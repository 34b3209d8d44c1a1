package live_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"tokenarbiter/internal/cluster"
	"tokenarbiter/internal/live"
)

type grantResult struct {
	fence uint64
	err   error
}

// grantTo returns a GrantFunc that reports its outcome on a channel and
// answers take.
func grantTo(take bool) (live.GrantFunc, chan grantResult) {
	ch := make(chan grantResult, 4)
	return func(fence uint64, err error) bool {
		ch <- grantResult{fence, err}
		return take
	}, ch
}

func awaitGrant(t *testing.T, ch chan grantResult) grantResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("LockFunc callback never ran")
		return grantResult{}
	}
}

// TestLockFuncTakeAndDecline: a taken grant is held until Unlock, like
// Lock's; a declined one is released by the node at once, and the key
// grants on. A callback may issue the next request from the executor.
func TestLockFuncTakeAndDecline(t *testing.T) {
	mgrs := cluster.Start(t, cluster.Config{N: 1, Core: cluster.Fast()}).Managers
	m := mgrs[0]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	take, taken := grantTo(true)
	m.LockFunc("k", take)
	first := awaitGrant(t, taken)
	if first.err != nil || first.fence == 0 {
		t.Fatalf("taken grant: fence %d, err %v", first.fence, first.err)
	}
	m.Unlock("k")

	decline, declined := grantTo(false)
	m.LockFunc("k", decline)
	if r := awaitGrant(t, declined); r.err != nil || r.fence <= first.fence {
		t.Fatalf("declined grant: fence %d, err %v", r.fence, r.err)
	}
	fence, err := m.LockFence(ctx, "k")
	if err != nil {
		t.Fatalf("Lock after a declined grant: %v", err)
	}
	m.Unlock("k")

	// Two requests chained from the callback: the second is issued on
	// the executor that handed over the first.
	chained := make(chan grantResult, 2)
	var again live.GrantFunc
	n := 0
	again = func(f uint64, err error) bool {
		chained <- grantResult{f, err}
		if n++; n == 1 {
			m.LockFunc("k", again)
			return false
		}
		return true
	}
	m.LockFunc("k", again)
	a, b := awaitGrant(t, chained), awaitGrant(t, chained)
	if a.err != nil || b.err != nil || a.fence <= fence || b.fence <= a.fence {
		t.Fatalf("chained grants: %+v then %+v after fence %d", a, b, fence)
	}
	m.Unlock("k")

	granted, released := m.Node("k").Stats()
	if granted != 5 || released != 5 {
		t.Errorf("stats granted=%d released=%d, want 5/5", granted, released)
	}
	if g := m.Registry("k").Snapshot().Gauges["lock_waiters"]; g != 0 {
		t.Errorf("lock_waiters = %d with nothing waiting", g)
	}
}

// TestLockFuncErrors: a request that cannot be made, or that the
// Manager's Close ends, reaches its callback as an error.
func TestLockFuncErrors(t *testing.T) {
	mgrs := cluster.Start(t, cluster.Config{N: 1, Core: cluster.Fast()}).Managers
	m := mgrs[0]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	empty, emptyCh := grantTo(true)
	m.LockFunc("", empty)
	if r := awaitGrant(t, emptyCh); !errors.Is(r.err, live.ErrEmptyKey) {
		t.Fatalf(`LockFunc(""): %v, want ErrEmptyKey`, r.err)
	}

	if err := m.Lock(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	pending, pendingCh := grantTo(true)
	m.LockFunc("k", pending)
	deadline := time.Now().Add(5 * time.Second)
	for m.Registry("k").Snapshot().Gauges["lock_waiters"] != 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the key")
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if r := awaitGrant(t, pendingCh); !errors.Is(r.err, live.ErrClosed) {
		t.Fatalf("request pending at Close: %v, want ErrClosed", r.err)
	}

	late, lateCh := grantTo(true)
	m.LockFunc("k", late)
	if r := awaitGrant(t, lateCh); !errors.Is(r.err, live.ErrClosed) {
		t.Fatalf("LockFunc after Close: %v, want ErrClosed", r.err)
	}
}
