package live_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"tokenarbiter/internal/cluster"
	"tokenarbiter/internal/live"
)

// TestManagerInterleavingsNeverDeadlock drives a fixed-seed random
// schedule of Lock/Unlock/TryLockContext operations over several keys
// and nodes, every acquisition bounded by a TryLockContext deadline, and
// requires global progress: the schedule always completes and every key
// sees at least one successful acquisition. Keys are never restarted
// mid-schedule — restarting a key on its token-holding node without
// recovery enabled orphans that key's token by design; the chaos soak
// covers restarts with recovery on.
func TestManagerInterleavingsNeverDeadlock(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second schedule")
	}
	const (
		nodes = 3
		keys  = 5
		ops   = 24 // per worker
	)
	mgrs := cluster.Start(t, cluster.Config{N: nodes, Core: cluster.Fast()}).Managers
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	type result struct {
		acquired map[string]int
		err      error
	}
	results := make(chan result, nodes)
	for n := 0; n < nodes; n++ {
		go func(m *live.Manager, seed uint64) {
			rng := rand.New(rand.NewPCG(seed, seed*2654435761))
			acquired := make(map[string]int)
			held := make(map[string]bool)
			defer func() {
				for key := range held {
					m.Unlock(key)
				}
			}()
			for op := 0; op < ops; op++ {
				key := fmt.Sprintf("key-%d", rng.IntN(keys))
				if held[key] {
					// Hold briefly, then release — sometimes after a few
					// other operations to interleave CS spans.
					m.Unlock(key)
					delete(held, key)
					continue
				}
				opCtx, opCancel := context.WithTimeout(ctx, 500*time.Millisecond)
				ok, err := m.TryLockContext(opCtx, key)
				opCancel()
				if err != nil {
					results <- result{err: fmt.Errorf("op %d key %s: %w", op, key, err)}
					return
				}
				if ok {
					acquired[key]++
					held[key] = true
					if rng.IntN(2) == 0 {
						time.Sleep(time.Duration(rng.IntN(500)) * time.Microsecond)
						m.Unlock(key)
						delete(held, key)
					}
				}
			}
			results <- result{acquired: acquired}
		}(mgrs[n], uint64(n+1)*7919)
	}
	total := make(map[string]int)
	for n := 0; n < nodes; n++ {
		select {
		case r := <-results:
			if r.err != nil {
				t.Fatal(r.err)
			}
			for k, c := range r.acquired {
				total[k] += c
			}
		case <-ctx.Done():
			t.Fatal("schedule wedged: a worker never finished (deadlock)")
		}
	}
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%d", k)
		if total[key] == 0 {
			t.Errorf("%s was never acquired across the whole schedule", key)
		}
	}
}
