package main

import (
	"context"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tokenarbiter/internal/session"
)

func TestOracleVerdicts(t *testing.T) {
	cases := []struct {
		name string
		play func(o *oracle)
		want string // substring of the verdict; "" means clean
	}{
		{"clean", func(o *oracle) {
			o.enter("a", 1)
			o.exit("a")
			o.enter("b", 1)
			o.exit("b")
			o.enter("a", 2)
			o.exit("a")
		}, ""},
		{"two holders", func(o *oracle) {
			o.enter("a", 1)
			o.enter("a", 2)
			o.exit("a")
			o.exit("a")
		}, "1 mutual-exclusion"},
		{"fence repeats", func(o *oracle) {
			o.enter("a", 5)
			o.exit("a")
			o.enter("a", 5)
			o.exit("a")
		}, "1 fence-order"},
		{"fence rewinds after a regeneration", func(o *oracle) {
			o.enter("a", 9)
			o.exit("a")
			o.enter("a", 3)
			o.exit("a")
		}, "1 fence-order"},
		{"release without acquire", func(o *oracle) { o.exit("a") }, "1 unpaired"},
		{"acquire never released", func(o *oracle) { o.enter("a", 1) }, "1 unpaired"},
	}
	for _, c := range cases {
		o := newOracle()
		c.play(o)
		err := o.verdict()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: clean history judged %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: verdict %v, want it to report %q", c.name, err, c.want)
		}
	}
}

// brokenBackend is a lock provider with no lock in it: every LockFence
// returns at once, to any number of callers, and its fences repeat.
type brokenBackend struct{ calls atomic.Uint64 }

func (b *brokenBackend) LockFence(context.Context, string) (uint64, error) {
	return 1 + b.calls.Add(1)/2, nil
}
func (b *brokenBackend) Unlock(string) {}

// TestOracleCatchesBrokenBackend drives the real load generator, through
// real session servers, against a Backend that does not exclude: the
// oracle must fail the run.
func TestOracleCatchesBrokenBackend(t *testing.T) {
	backend := &brokenBackend{}
	g := newLoadgen(nil)
	ctx := context.Background()
	for node := 0; node < 2; node++ { // two servers, as two nodes sharing one broken "lock"
		srv, err := session.NewServer(session.Config{Backend: backend, DefaultTTL: sessionTTL})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
		cl, err := session.Dial(ln.Addr().String(), session.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		sess, err := cl.Open(ctx, sessionTTL)
		if err != nil {
			t.Fatal(err)
		}
		g.add(sess, node, "k0", nil)
	}
	g.startClosed()
	time.Sleep(100 * time.Millisecond)
	g.stop()
	if samples, _ := g.collect(); len(samples) == 0 {
		t.Fatal("the load generator completed no cycle")
	}
	err := g.oracle.verdict()
	if err == nil || !strings.Contains(err.Error(), "fence-order") {
		t.Fatalf("oracle verdict on a backend without exclusion: %v, want a fence-order violation", err)
	}
}
