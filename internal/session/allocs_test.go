package session_test

import (
	"context"
	"net"
	"sync/atomic"
	"testing"

	"tokenarbiter/internal/race"
	"tokenarbiter/internal/session"
)

// instantBackend grants every LockFence at once with the next fence.
type instantBackend struct{ fence atomic.Uint64 }

func (b *instantBackend) LockFence(context.Context, string) (uint64, error) {
	return b.fence.Add(1), nil
}
func (b *instantBackend) Unlock(string) {}

// sessionCycleBudget is what one Acquire+Release round trip may
// allocate, client and server together: nothing. Its four frames would
// cost 8 boxes if either end passed them as dme.Message; both encode
// them by value with wire.EncodeValue and read them borrowed with
// DecodeBorrowed, and a response reaches its caller as a reply value on
// a reused channel. The two request keys would cost 2 copies; the
// server's decoder interns them.
const sessionCycleBudget = 0

// TestSessionCycleAllocs pins the session tier's per-cycle allocation
// budget against a backend that grants at once: no frame is boxed into a
// dme.Message, reply channels and server waiters are reused, and a slot
// start allocates no closure.
func TestSessionCycleAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	srv, err := session.NewServer(session.Config{Backend: &instantBackend{}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, end := net.Pipe()
	srv.ServeConn(end)
	c, err := session.NewClient(cli, session.Options{NoKeepAlive: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	sess, err := c.Open(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	const key = "alloc-budget"
	cycle := func() {
		if _, err := sess.Acquire(ctx, key); err != nil {
			t.Fatal(err)
		}
		if err := sess.Release(key); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // grow every pool and buffer first
		cycle()
	}
	if allocs := testing.AllocsPerRun(500, cycle); allocs > sessionCycleBudget {
		t.Errorf("Acquire+Release round trip: %.1f allocations, want ≤ %d", allocs, sessionCycleBudget)
	}
}
