package session_test

// Grant-callback tests over real live.Managers: a session server whose
// backend has LockFunc hands each request to the key's node and takes
// its grant in a callback on the node's executor, with no goroutine
// waiting in between. These pin the request lifecycle the blocking
// fakes of slots_test.go cannot reach — a restart of the key's
// participant under outstanding requests, a Close with requests still
// in the DME group, a wait bound that fires before the grant — and that
// no goroutine parks per request.

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"tokenarbiter/internal/cluster"
	"tokenarbiter/internal/live"
	"tokenarbiter/internal/session"
	"tokenarbiter/internal/telemetry"
)

// queueOn issues one acquire per session against node's server, each on
// its own goroutine, waiting for each to be accepted so the queue order
// is the slice order.
func queueOn(t *testing.T, reg *telemetry.Registry, sessions []*session.Session, key string, wait time.Duration) []chan acquireResult {
	t.Helper()
	base := reg.Snapshot().Counters["session_acquires_total"]
	out := make([]chan acquireResult, len(sessions))
	for i, s := range sessions {
		ch := make(chan acquireResult, 1)
		out[i] = ch
		go func() {
			f, err := s.AcquireWait(context.Background(), key, wait)
			ch <- acquireResult{f, err}
		}()
		waitUntil(t, "acquire to be accepted", func() bool {
			return reg.Snapshot().Counters["session_acquires_total"] == base+uint64(i+1)
		})
	}
	return out
}

// requestsAt reports how many lock requests wait for a grant in node's
// instance of key (the lock_waiters gauge, which survives restarts).
func requestsAt(m *live.Manager, key string) int64 {
	if reg := m.Registry(key); reg != nil {
		return reg.Snapshot().Gauges["lock_waiters"]
	}
	return 0
}

// holdOn opens a session on node's server and acquires key with it.
func holdOn(t *testing.T, cl *cluster.Cluster, node int, key string) (*session.Session, uint64) {
	t.Helper()
	s := openSessions(t, dial(t, cl, node, session.Options{NoKeepAlive: true}), 1, 10*time.Second)[0]
	fence, err := s.Acquire(ctxT(t), key)
	if err != nil {
		t.Fatalf("holder on node %d: %v", node, err)
	}
	return s, fence
}

// TestGrantCallbackParksNoGoroutine: with D requests outstanding behind
// a holder, no goroutine waits for any of them — no grant-slot loop and
// no LockFence call anywhere in the process.
func TestGrantCallbackParksNoGoroutine(t *testing.T) {
	cl := cluster.Start(t, cluster.Config{N: 3, Sessions: "pipe"})
	holder, _ := holdOn(t, cl, 0, "k")
	queued := openSessions(t, dial(t, cl, 0, session.Options{NoKeepAlive: true}), session.GrantSlots, 10*time.Second)
	res := queueOn(t, cl.Servers[0].Metrics(), queued, "k", 0)
	waitUntil(t, "D requests to reach the node", func() bool {
		return requestsAt(cl.Managers[0], "k") == session.GrantSlots
	})

	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	for _, frame := range []string{"session.(*Server).slot(", "live.(*Node).LockFence("} {
		if k := bytes.Count(buf, []byte(frame)); k > 0 {
			t.Errorf("%d goroutines wait in %s with %d requests outstanding", k, frame, session.GrantSlots)
		}
	}

	if err := holder.Release("k"); err != nil {
		t.Fatal(err)
	}
	for i, ch := range res {
		if got := result(t, ch, "queued acquire"); got.err != nil {
			t.Fatalf("queued acquire %d: %v", i, got.err)
		}
		if err := queued[i].Release("k"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGrantCallbackRestartKey: the key's participant on the requesting
// node is restarted while D requests are outstanding there. The Manager
// reissues them on the new incarnation, and every queued acquire — the
// D outstanding and the one behind them — is granted, in queue order.
func TestGrantCallbackRestartKey(t *testing.T) {
	cl := cluster.Start(t, cluster.Config{N: 3, Sessions: "pipe"})
	holder, held := holdOn(t, cl, 1, "k")
	queued := openSessions(t, dial(t, cl, 2, session.Options{NoKeepAlive: true}), session.GrantSlots+1, 10*time.Second)
	res := queueOn(t, cl.Servers[2].Metrics(), queued, "k", 0)
	waitUntil(t, "D requests to reach node 2", func() bool {
		return requestsAt(cl.Managers[2], "k") == session.GrantSlots
	})

	if _, err := cl.Managers[2].RestartKey("k"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "D requests to be reissued on the new incarnation", func() bool {
		return requestsAt(cl.Managers[2], "k") == session.GrantSlots
	})
	if got := cl.Servers[2].Slots("k"); got != session.GrantSlots {
		t.Fatalf("%d requests outstanding after the restart, want %d", got, session.GrantSlots)
	}

	if err := holder.Release("k"); err != nil {
		t.Fatal(err)
	}
	last := held
	for i, ch := range res {
		got := result(t, ch, "queued acquire")
		if got.err != nil {
			t.Fatalf("queued acquire %d: %v", i, got.err)
		}
		if got.fence <= last {
			t.Fatalf("queued acquire %d granted fence %d after %d", i, got.fence, last)
		}
		last = got.fence
		if err := queued[i].Release("k"); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "requests to drain", func() bool { return cl.Servers[2].Slots("k") == 0 })
}

// TestGrantCallbackServerClose: Close answers the queued acquires while
// their requests are still in the DME group. When those grants land,
// the closed server declines each on the node's executor, the node
// releases it there, and the key moves on to another node.
func TestGrantCallbackServerClose(t *testing.T) {
	cl := cluster.Start(t, cluster.Config{N: 3, Sessions: "pipe"})
	holder, _ := holdOn(t, cl, 1, "k")
	queued := openSessions(t, dial(t, cl, 0, session.Options{NoKeepAlive: true}), session.GrantSlots, 10*time.Second)
	res := queueOn(t, cl.Servers[0].Metrics(), queued, "k", 0)
	waitUntil(t, "D requests to reach node 0", func() bool {
		return requestsAt(cl.Managers[0], "k") == session.GrantSlots
	})

	if err := cl.Servers[0].Close(); err != nil {
		t.Fatal(err)
	}
	for i, ch := range res {
		// CodeShuttingDown, or the connection closed under the call
		// first: either way a refused acquire.
		got := result(t, ch, "queued acquire")
		if got.err == nil {
			t.Fatalf("queued acquire %d granted by a closed server", i)
		}
		if code := codeOf(got.err); code != session.Code(255) && code != session.CodeShuttingDown {
			t.Fatalf("queued acquire %d: %v, want CodeShuttingDown", i, got.err)
		}
	}
	if got := cl.Servers[0].Metrics().Snapshot().Gauges["session_queue_waiters"]; got != 0 {
		t.Fatalf("session_queue_waiters = %d after Close", got)
	}

	if err := holder.Release("k"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the late grants to be handed back", func() bool {
		g, r := cl.Managers[0].Node("k").Stats()
		return g == session.GrantSlots && r == session.GrantSlots
	})
	if got := requestsAt(cl.Managers[0], "k"); got != 0 {
		t.Fatalf("%d requests still wait on node 0", got)
	}
	other, _ := holdOn(t, cl, 2, "k")
	if err := other.Release("k"); err != nil {
		t.Fatal(err)
	}
}

// TestGrantCallbackWaitBound: a waiter's wait bound fires while its
// request is outstanding. The grant that lands later finds no waiter,
// is declined and released inline on the node's executor, and the key
// grants again — on the same node and elsewhere.
func TestGrantCallbackWaitBound(t *testing.T) {
	clk := session.NewFakeClock()
	cl := cluster.Start(t, cluster.Config{N: 3, Sessions: "pipe", Clock: clk})
	holder, _ := holdOn(t, cl, 1, "k")
	bounded := openSessions(t, dial(t, cl, 0, session.Options{NoKeepAlive: true}), 1, 10*time.Second)
	res := queueOn(t, cl.Servers[0].Metrics(), bounded, "k", 50*time.Millisecond)
	waitUntil(t, "the request to reach node 0", func() bool {
		return requestsAt(cl.Managers[0], "k") == 1
	})

	clk.Advance(50 * time.Millisecond)
	if got := result(t, res[0], "bounded acquire"); codeOf(got.err) != session.CodeTimeout {
		t.Fatalf("bounded acquire: %v, want CodeTimeout", got.err)
	}
	if err := holder.Release("k"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the unwanted grant to be handed back", func() bool {
		g, r := cl.Managers[0].Node("k").Stats()
		return g == 1 && r == 1
	})
	if got := cl.Servers[0].Metrics().Snapshot().Counters["session_grants_total"]; got != 0 {
		t.Fatalf("session_grants_total = %d after a grant nobody wanted", got)
	}
	if _, err := bounded[0].Acquire(ctxT(t), "k"); err != nil {
		t.Fatalf("acquire on the same node after the declined grant: %v", err)
	}
	if err := bounded[0].Release("k"); err != nil {
		t.Fatal(err)
	}
	other, _ := holdOn(t, cl, 2, "k")
	if err := other.Release("k"); err != nil {
		t.Fatal(err)
	}
}
