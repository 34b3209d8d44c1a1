package live_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tokenarbiter/internal/cluster"
	"tokenarbiter/internal/core"
)

// TestLocalRequestersShareBatches: a node may have several requests
// outstanding on one key (the session server keeps up to D). Two
// goroutines looping LockFence/Unlock on node 0 of a 3-node cluster
// must be stamped into the same Q-list — one re-requests inside the
// collection window the other's release opened — so dispatched batches
// average two entries, mutual exclusion holds between them, and with
// the token never leaving node 0 not one message crosses the network.
func TestLocalRequestersShareBatches(t *testing.T) {
	opts := core.Options{Treq: 0.0005, Tfwd: 0.0005, RetransmitTimeout: 0.25}
	mgrs := cluster.Start(t, cluster.Config{N: 3, Core: opts}).Managers
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const (
		key    = "k"
		cycles = 200
	)
	var (
		wg        sync.WaitGroup
		inCS      atomic.Int32
		lastFence atomic.Uint64
	)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < cycles; i++ {
				fence, err := mgrs[0].LockFence(ctx, key)
				if err != nil {
					t.Errorf("LockFence: %v", err)
					return
				}
				if n := inCS.Add(1); n != 1 {
					t.Errorf("%d holders inside the critical section", n)
				}
				if prev := lastFence.Swap(fence); fence <= prev {
					t.Errorf("fence %d granted after %d", fence, prev)
				}
				inCS.Add(-1)
				mgrs[0].Unlock(key)
			}
		}()
	}
	wg.Wait()

	h := mgrs[0].MergedHistogram("qlist_batch_size")
	if h.Count == 0 {
		t.Fatal("no batch was dispatched")
	}
	if mean := h.Sum / float64(h.Count); mean < 1.8 {
		t.Errorf("mean Q-list batch %.2f over %d dispatches, want ≈2", mean, h.Count)
	}
	for i, m := range mgrs {
		for _, ks := range m.KeyStats() {
			if ks.MsgsSent != 0 {
				t.Errorf("node %d sent %d messages for key %q; the token never left node 0", i, ks.MsgsSent, ks.Key)
			}
		}
	}
}
