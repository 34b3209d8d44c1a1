package cluster_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"tokenarbiter/internal/cluster"
	"tokenarbiter/internal/faultnet"
	"tokenarbiter/internal/live"
	"tokenarbiter/internal/reqtrace"
)

// fakeTB records the errors Start reports, and runs its cleanups on
// demand; Failed stays the real test's, so the capture's temporary
// directory goes when the real test passes.
type fakeTB struct {
	*testing.T
	cleanups []func()
	errs     []string
}

func (f *fakeTB) Cleanup(fn func()) { f.cleanups = append(f.cleanups, fn) }
func (f *fakeTB) Errorf(format string, args ...any) {
	f.errs = append(f.errs, fmt.Sprintf(format, args...))
}
func (f *fakeTB) cleanup() {
	for i := len(f.cleanups) - 1; i >= 0; i-- {
		f.cleanups[i]()
	}
}

// overlap records two grants of key "k" that overlap within one lineage:
// nodes 0 and 1, epoch 0, fences 1 and 2.
func overlap(c *cluster.Cluster) {
	now := reqtrace.Now()
	for i, ev := range []string{reqtrace.EvGrant, reqtrace.EvGrant, reqtrace.EvRelease, reqtrace.EvRelease} {
		node := i % 2
		c.Recorder.Record(reqtrace.Record{T: now + float64(i)*1e-3, Ev: ev, Node: node, Peer: -1, Key: "k", Fence: uint64(node + 1)})
	}
}

// TestJudgeIsWired: two overlapping grants recorded into a cluster's
// capture make Close's verdict name the overlap, and make Start's
// cleanup fail the test.
func TestJudgeIsWired(t *testing.T) {
	c, err := cluster.New(cluster.Config{N: 2, Capture: t.TempDir() + "/overlap.jsonl"})
	if err != nil {
		t.Fatal(err)
	}
	overlap(c)
	v, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Violations) != 1 || v.Violations[0].Rule != "overlap" {
		t.Errorf("verdict %s, want one overlap", v)
	}

	tb := &fakeTB{T: t}
	overlap(cluster.Start(tb, cluster.Config{N: 2}))
	tb.cleanup()
	if len(tb.errs) != 1 || !strings.Contains(tb.errs[0], "overlap") {
		t.Errorf("Start's cleanup reported %q, want one overlap", tb.errs)
	}
}

// TestRestartHolder restarts a key's token holder mid-run: the old
// incarnation's close ends its grant, the arbiter queued behind it
// regenerates the token through §6, the fresh node locks too, and the
// verdict is clean.
func TestRestartHolder(t *testing.T) {
	const key = "k"
	c := cluster.Start(t, cluster.Config{N: 3})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Node 0, the initial arbiter, holds the key while nodes 1 and 2 join
	// its batch; the batch makes one of them the holder and the other the
	// next arbiter, so the restart loses the token and nothing else.
	if err := c.Managers[0].Lock(ctx, key); err != nil {
		t.Fatal(err)
	}
	locked := make(chan int, 2)
	for _, i := range []int{1, 2} {
		m := c.Managers[i]
		go func() {
			if err := m.Lock(ctx, key); err != nil {
				t.Errorf("node %d: %v", m.ID(), err)
			}
			locked <- m.ID()
		}()
	}
	for {
		ins, err := c.Managers[0].Node(key).Inspect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ins.BatchLen == 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	c.Managers[0].Unlock(key)
	holder := <-locked
	arbiter := c.Managers[3-holder]
	if err := c.Restart(holder); err != nil {
		t.Fatal(err)
	}
	if got := <-locked; got != 3-holder {
		t.Fatalf("node %d locked twice", got)
	}
	arbiter.Unlock(key)
	if err := c.Managers[holder].Lock(ctx, key); err != nil {
		t.Fatalf("restarted node's lock: %v", err)
	}
	c.Managers[holder].Unlock(key)

	v, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if v.Err() != nil {
		t.Errorf("verdict %s, want no violation", v)
	}
	// The old incarnation's grant ends in its close; the fresh one's in
	// a release, and Close closes it.
	var got []string
	for _, r := range c.Capture().Records {
		if r.Node == holder && r.Key == key {
			switch r.Ev {
			case reqtrace.EvGrant, reqtrace.EvRelease, reqtrace.EvClose:
				got = append(got, r.Ev)
			}
		}
	}
	if want := "grant,close,grant,release,close"; strings.Join(got, ",") != want {
		t.Errorf("node %d's lifecycle records %v, want %s", holder, got, want)
	}
}

// TestBuildFailureClosesWhatItBuilt: when node 2's Manager cannot be
// built, New closes the TCP transports and the Managers it built before
// it returns the error: their listeners' goroutines are gone.
func TestBuildFailureClosesWhatItBuilt(t *testing.T) {
	base := runtime.NumGoroutine()
	_, err := cluster.New(cluster.Config{
		N: 3, Transport: "tcp", Capture: t.TempDir() + "/capture.jsonl",
		Manager: func(i int, cfg *live.ManagerConfig) {
			if i == 2 {
				cfg.Factory = nil
			}
		},
	})
	if err == nil || !strings.Contains(err.Error(), "node 2") {
		t.Fatalf("New = %v, want node 2's build error", err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed build, %d before", runtime.NumGoroutine(), base)
		}
	}
}

// TestPartitionMarksTheCapture: Partition and Heal drive the configured
// injector and bracket the cut with a fault and a heal record for every
// key, so the checker can excuse what the cut made.
func TestPartitionMarksTheCapture(t *testing.T) {
	inj := faultnet.New(faultnet.Options{})
	c, err := cluster.New(cluster.Config{N: 3, Faults: inj, Capture: t.TempDir() + "/partition.jsonl"})
	if err != nil {
		t.Fatal(err)
	}
	c.Partition([]int{0}, []int{1, 2})
	if got := len(inj.BlockedLinks()); got != 4 {
		t.Errorf("partition {0}|{1,2} blocked %d links, want 4", got)
	}
	c.Heal()
	if got := len(inj.BlockedLinks()); got != 0 {
		t.Errorf("heal left %d links blocked", got)
	}
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
	var marks []string
	for _, rec := range c.Capture().Records {
		if rec.Ev == reqtrace.EvFault || rec.Ev == reqtrace.EvHeal {
			if rec.Key != "" {
				t.Errorf("%s record names key %q, want every key", rec.Ev, rec.Key)
			}
			marks = append(marks, rec.Ev)
		}
	}
	if want := []string{reqtrace.EvFault, reqtrace.EvHeal}; strings.Join(marks, ",") != strings.Join(want, ",") {
		t.Errorf("capture marks %v, want %v", marks, want)
	}
	if ct := inj.Counters(); ct.Partitions != 1 || ct.Heals != 1 {
		t.Errorf("injector counters %+v, want one partition and one heal", ct)
	}
}
