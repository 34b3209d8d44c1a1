package live_test

// One grant path: a blocking LockFence is a LockFunc request with a
// parked caller, so a restart reissues it with the other requests, in
// order, and a cancel racing its grant either keeps the grant or gives
// it back on the node's executor, never both.

import (
	"context"
	"errors"
	"testing"
	"time"

	"tokenarbiter/internal/cluster"
	"tokenarbiter/internal/core"
	"tokenarbiter/internal/live"
	"tokenarbiter/internal/transport"
)

// waitersAt reads key's lock_waiters gauge on m.
func waitersAt(m *live.Manager, key string) int64 {
	if reg := m.Registry(key); reg != nil {
		return reg.Snapshot().Gauges["lock_waiters"]
	}
	return 0
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// checkBalanced fails unless every Manager released each grant it made
// and has no request left waiting on key.
func checkBalanced(t *testing.T, mgrs []*live.Manager, key string) {
	t.Helper()
	for i, m := range mgrs {
		if granted, released := m.Stats(); granted != released {
			t.Errorf("node %d: cs_granted_total %d, cs_released_total %d", i, granted, released)
		}
		if g := waitersAt(m, key); g != 0 {
			t.Errorf("node %d: lock_waiters = %d with nothing waiting", i, g)
		}
	}
}

// TestRestartKeyReissuesParkedLockFence: node 2 queues a Manager
// LockFence (A), then a LockFunc request (B), behind node 0's hold, and
// restarts the key. Both are reissued on the new incarnation in their
// order, so A is granted first, and B only once A unlocks. A LockFence
// still parked when its Manager closes returns ErrClosed.
func TestRestartKeyReissuesParkedLockFence(t *testing.T) {
	mgrs := cluster.Start(t, cluster.Config{N: 3}).Managers
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	held, err := mgrs[0].LockFence(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}

	a := make(chan grantResult, 1)
	go func() {
		f, err := mgrs[2].LockFence(ctx, "k")
		a <- grantResult{f, err}
	}()
	waitFor(t, "A to reach node 2", func() bool { return waitersAt(mgrs[2], "k") == 1 })
	take, b := grantTo(true)
	mgrs[2].LockFunc("k", take)
	waitFor(t, "B to reach node 2", func() bool { return waitersAt(mgrs[2], "k") == 2 })

	if _, err := mgrs[2].RestartKey("k"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "A and B to be reissued", func() bool { return waitersAt(mgrs[2], "k") == 2 })
	mgrs[0].Unlock("k")

	var ra grantResult
	select {
	case ra = <-a:
	case rb := <-b:
		t.Fatalf("B granted first (fence %d, err %v): the restart reordered the requests", rb.fence, rb.err)
	case <-time.After(10 * time.Second):
		t.Fatal("A was never granted")
	}
	if ra.err != nil || ra.fence <= held {
		t.Fatalf("A: fence %d, err %v after node 0's fence %d", ra.fence, ra.err, held)
	}
	mgrs[2].Unlock("k")
	if rb := awaitGrant(t, b); rb.err != nil || rb.fence <= ra.fence {
		t.Fatalf("B: fence %d, err %v after A's fence %d", rb.fence, rb.err, ra.fence)
	}
	mgrs[2].Unlock("k")
	checkBalanced(t, mgrs, "k")

	if err := mgrs[0].Lock(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() {
		_, err := mgrs[2].LockFence(ctx, "k")
		parked <- err
	}()
	waitFor(t, "the last LockFence to park on node 2", func() bool { return waitersAt(mgrs[2], "k") == 1 })
	if err := mgrs[2].Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-parked:
		if !errors.Is(err, live.ErrClosed) {
			t.Fatalf("LockFence parked at Close = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("LockFence parked at Close never returned")
	}
	mgrs[0].Unlock("k")
}

// TestLockFenceCancelRacesRemoteGrant cancels node 1's LockFence at
// staggered offsets around the moment node 0 releases the key to it,
// over a network slow enough that the cancel lands before, during and
// after the grant's token hop. A call either returns its fence or
// ctx.Err(), never both; each cancel is counted once, the abandoned
// grants are handed back, and the key keeps granting.
func TestLockFenceCancelRacesRemoteGrant(t *testing.T) {
	cl := cluster.Start(t, cluster.Config{
		N:    2,
		Core: core.Options{Treq: 0.001, Tfwd: 0.001, RetransmitTimeout: 0.25},
		Mem:  transport.MemOptions{Delay: 300 * time.Microsecond, FIFO: true},
	})
	mgrs := cl.Managers
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// handover times one remote grant: node 0 releases the key to a
	// LockFence node 1 issued while node 0 held it.
	handover := func(call context.Context, offset time.Duration, giveUp func()) (grantResult, time.Duration) {
		if err := mgrs[0].Lock(ctx, "k"); err != nil {
			t.Fatalf("node 0 Lock: %v", err)
		}
		done := make(chan grantResult, 1)
		go func() {
			f, err := mgrs[1].LockFence(call, "k")
			done <- grantResult{f, err}
		}()
		if offset < 0 {
			time.Sleep(-offset)
			giveUp()
		}
		released := time.Now()
		mgrs[0].Unlock("k")
		if offset >= 0 {
			time.Sleep(offset)
			giveUp()
		}
		select {
		case r := <-done:
			return r, time.Since(released)
		case <-time.After(10 * time.Second):
			t.Fatal("LockFence never returned")
			return grantResult{}, 0
		}
	}
	// The slowest of a few uncancelled hand-overs sets the span of the
	// offsets, so the cancels straddle the grant with or without -race.
	var span time.Duration
	for i := 0; i < 5; i++ {
		r, took := handover(ctx, 0, func() {})
		if r.err != nil {
			t.Fatal(r.err)
		}
		mgrs[1].Unlock("k")
		span = max(span, took)
	}

	const iterations = 240
	var granted, canceled int
	for i := 0; i < iterations; i++ {
		// Offsets run from a fifth of the span before the release to
		// 1.4 spans after it, in steps of a twentieth.
		call, giveUp := context.WithCancel(ctx)
		offset := time.Duration(i%32-4) * span / 20
		r, _ := handover(call, offset, giveUp)
		giveUp()
		switch {
		case r.err == nil && r.fence > 0:
			granted++
			mgrs[1].Unlock("k")
		case errors.Is(r.err, context.Canceled) && r.fence == 0:
			canceled++
		default:
			t.Fatalf("iteration %d: LockFence = (%d, %v), want a fence or context.Canceled", i, r.fence, r.err)
		}
	}
	t.Logf("hand-over span %v: %d calls granted, %d cancelled", span, granted, canceled)

	for _, m := range mgrs {
		if err := m.Lock(ctx, "k"); err != nil {
			t.Fatalf("node %d: Lock after the races: %v", m.ID(), err)
		}
		m.Unlock("k")
	}
	if got := mgrs[1].Registry("k").Snapshot().Counters["lock_cancels_total"]; got != uint64(canceled) {
		t.Errorf("lock_cancels_total = %d, want %d (the calls that returned ctx.Err())", got, canceled)
	}
	checkBalanced(t, mgrs, "k")
}
