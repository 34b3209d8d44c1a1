package live_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"tokenarbiter/internal/cluster"
	"tokenarbiter/internal/core"
)

// TestLockFromIdleGrantsInline: a lone Lock on the idle token holder does
// not wait out a collection window — the grant completes inside the
// LockFence call, on the caller's goroutine — while a closed loop of two
// local requesters, which re-request inside the window opened at token
// return, still shares batches of two.
func TestLockFromIdleGrantsInline(t *testing.T) {
	const (
		treq = 5 * time.Millisecond
		key  = "k"
	)
	opts := core.Options{Treq: treq.Seconds(), Tfwd: treq.Seconds(), RetransmitTimeout: 0.25}
	mgrs := cluster.Start(t, cluster.Config{N: 3, Core: opts}).Managers
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	m := mgrs[0]

	timedLock := func() time.Duration {
		t.Helper()
		start := time.Now()
		if _, err := m.LockFence(ctx, key); err != nil {
			t.Fatalf("LockFence: %v", err)
		}
		took := time.Since(start)
		m.Unlock(key)
		return took
	}

	// The first request the key ever sees finds node 0 idle but with no
	// batch history, so it waits the paper's window once: one dispatch, no
	// skip, and a history of one singleton for the next request to read.
	timedLock()
	if d, s := m.SumCounter("dispatches_total"), m.SumCounter("window_skips_total"); d != 1 || s != 0 {
		t.Fatalf("after the first Lock of a cold key: dispatches=%d window_skips=%d, want 1 and 0", d, s)
	}

	// Let the token-return window run out, then lock again: a lone Lock on
	// the idle holder. A shared VM can stall any one attempt, so the claim
	// is that a from-idle Lock *can* beat Treq/4, which a Lock that waits
	// a window never does.
	best := time.Hour
	for attempt := 0; attempt < 40 && best >= treq/4; attempt++ {
		time.Sleep(2 * treq)
		before := m.SumCounter("window_skips_total")
		took := timedLock()
		if m.SumCounter("window_skips_total") == before+1 && took < best {
			best = took
		}
	}
	if best >= treq/4 {
		t.Fatalf("fastest from-idle Lock took %v, want under Treq/4 = %v", best, treq/4)
	}
	t.Logf("fastest from-idle Lock: %v (Treq %v)", best, treq)
	// /statusz?key= shows the skips next to the dispatches, and the
	// estimate behind them.
	st, err := m.Node(key).Status(ctx)
	if err != nil || st.WindowSkips == 0 || st.WindowSkips != m.SumCounter("window_skips_total") ||
		st.Dispatches != m.SumCounter("dispatches_total") || st.RecentBatchMean != 1 {
		t.Fatalf("Status: dispatches=%d window_skips=%d recent_batch_mean=%v err=%v, want the counters' values and a mean of 1",
			st.Dispatches, st.WindowSkips, st.RecentBatchMean, err)
	}
	// lock_wait_seconds resolves such a grant at its own scale instead of
	// folding it into a 100 µs floor bucket: its floor is a microsecond,
	// and the fastest grant lands no higher than the bucket its own
	// duration falls in. (How fast that is depends on the build: tens of
	// microseconds, or about a hundred under the race detector.)
	wait := m.MergedHistogram("lock_wait_seconds")
	if len(wait.Bounds) == 0 || wait.Bounds[0] > 1e-6 {
		t.Fatalf("lock_wait_seconds: bounds %v, want a microsecond floor", wait.Bounds)
	}
	var within uint64
	for i, bound := range wait.Bounds {
		within += wait.Buckets[i]
		if bound >= best.Seconds() {
			break
		}
	}
	if within == 0 {
		t.Errorf("lock_wait_seconds: bounds %v, buckets %v; want an observation at or below the bucket of the fastest Lock (%v)",
			wait.Bounds, wait.Buckets, best)
	}

	// The closed loop: batches of two, and no more skips than its start.
	time.Sleep(2 * treq)
	batches := m.MergedHistogram("qlist_batch_size")
	skips := m.SumCounter("window_skips_total")
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := m.LockFence(ctx, key); err != nil {
					t.Errorf("LockFence: %v", err)
					return
				}
				m.Unlock(key)
			}
		}()
	}
	wg.Wait()
	after := m.MergedHistogram("qlist_batch_size")
	n := after.Count - batches.Count
	if n == 0 {
		t.Fatal("the closed loop dispatched nothing")
	}
	if mean := (after.Sum - batches.Sum) / float64(n); mean < 1.8 {
		t.Errorf("closed loop: mean batch %.2f over %d dispatches, want ≈2", mean, n)
	}
	if got := m.SumCounter("window_skips_total") - skips; got > 2 {
		t.Errorf("closed loop skipped %d windows, want only its start", got)
	}
}

// TestTimerClassLightLoadNoLateness: at light load no request waits
// behind a short timer — the window opened at token return expires empty
// and the old arbiter's Tfwd ends with nobody forwarding — so both are
// lax and short_timer_lateness_seconds, which samples the precise class
// only, records nothing. Two Managers trade the token with
// idle gaps; the first cycles, before either node has a batch history to
// skip windows by, are left out.
func TestTimerClassLightLoadNoLateness(t *testing.T) {
	const (
		treq = 200 * time.Microsecond
		key  = "k"
	)
	opts := core.Options{Treq: treq.Seconds(), Tfwd: treq.Seconds(), RetransmitTimeout: 0.25}
	mgrs := cluster.Start(t, cluster.Config{N: 2, Core: opts}).Managers
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	lateness := func() (n uint64) {
		for _, m := range mgrs {
			n += m.MergedHistogram("short_timer_lateness_seconds").Count
		}
		return n
	}
	cycle := func(i int) {
		t.Helper()
		m := mgrs[i%2]
		if _, err := m.LockFence(ctx, key); err != nil {
			t.Fatalf("cycle %d: LockFence: %v", i, err)
		}
		m.Unlock(key)
		time.Sleep(25 * treq) // well past the window and Tfwd
	}
	const warm, cycles = 4, 30
	for i := 0; i < warm; i++ {
		cycle(i)
	}
	before, skips := lateness(), mgrs[0].SumCounter("window_skips_total")+mgrs[1].SumCounter("window_skips_total")
	for i := warm; i < warm+cycles; i++ {
		cycle(i)
	}
	if got := mgrs[0].SumCounter("window_skips_total") + mgrs[1].SumCounter("window_skips_total") - skips; got != cycles {
		t.Fatalf("%d of %d idle-gap cycles skipped the window, want every one: the load is not light", got, cycles)
	}
	if got := lateness() - before; got != 0 {
		t.Errorf("%d short_timer_lateness_seconds samples over %d light-load cycles, want 0", got, cycles)
	}
}
