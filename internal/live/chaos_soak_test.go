package live_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tokenarbiter/internal/cluster"
	"tokenarbiter/internal/core"
	"tokenarbiter/internal/faultnet"
	"tokenarbiter/internal/live"
	"tokenarbiter/internal/wire"
)

// TestChaosSoak drives a 5-node cluster of one-key Managers through the
// full fault gauntlet — random drop/dup/corrupt/delay/reorder on every
// link, a forced token loss, a partition-and-heal cycle, and a node crash
// (Close) with restart (a fresh Manager on the reconnected endpoint) —
// and asserts the three chaos-layer guarantees: safety as the checker
// judges the capture (reqtrace.Check: exclusion and fencing per lineage,
// no superseded token granting and no wedge past the recovery bound),
// bounded recovery (the token is regenerated after forced loss), and
// liveness (every worker completes its quota). Runs under -race in CI
// with three fixed seeds.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is a multi-second test; skipped in -short")
	}
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			chaosSoak(t, seed)
		})
	}
}

func chaosSoak(t *testing.T, seed uint64) {
	const (
		n     = 5
		quota = 8
		key   = "soak"
	)
	var decodeErrs atomic.Uint64
	inj := faultnet.New(faultnet.Options{
		Seed: seed,
		Faults: faultnet.Faults{
			Drop:          0.08,
			Dup:           0.05,
			Corrupt:       0.02,
			Delay:         200 * time.Microsecond,
			Jitter:        300 * time.Microsecond,
			Reorder:       0.05,
			ReorderWindow: 2 * time.Millisecond,
		},
		OnFault: func(err error) {
			var de *wire.DecodeError
			if errors.As(err, &de) {
				decodeErrs.Add(1)
			}
		},
	})

	// 15 s is the recovery bound the forced-loss phase waits out.
	cl := cluster.Start(t, cluster.Config{
		N: n, Core: cluster.FastRecovery(), Faults: inj,
		Capture: fmt.Sprintf("chaos-soak-seed%d", seed), Settle: 15,
	})
	// mgrs[i] is node i's current Manager, nil while the node is crashed:
	// the workers read it while the crash phase swaps it.
	var mgrs [n]atomic.Pointer[live.Manager]
	for i, m := range cl.Managers {
		mgrs[i].Store(m)
	}
	// regenerations totals the cluster's token regenerations. A crashed
	// node's counters die with its Manager; lostRegens carries them so the
	// total stays cumulative across the restart.
	var lostRegens uint64
	regenerations := func() uint64 {
		sum := lostRegens
		for i := range mgrs {
			if m := mgrs[i].Load(); m != nil {
				sum += m.SumCounter("recovery_regenerations_total")
			}
		}
		return sum
	}
	// engine returns node i's engine for the soak key, nil while the node
	// is down or has not joined the key's group yet.
	engine := func(i int) *live.Node {
		if m := mgrs[i].Load(); m != nil {
			return m.Node(key)
		}
		return nil
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// dumpState logs per-node protocol state and counters on failure paths
	// (with its own context: ctx is usually expired by then).
	dumpState := func() {
		dctx, dcancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer dcancel()
		for i := 0; i < n; i++ {
			nd := engine(i)
			if nd == nil {
				t.Logf("node %d: down", i)
				continue
			}
			ins, err := nd.Inspect(dctx)
			if err != nil {
				t.Logf("node %d: inspect: %v", i, err)
				continue
			}
			snap := nd.Metrics().Snapshot()
			t.Logf("node %d: arbiter=%d collecting=%v token=%v inCS=%v epoch=%d fence=%d/%d out=%d retx=%d regen=%d takeover=%d dup-drop=%d stale-drop=%d",
				i, ins.Arbiter, ins.IsArbiter, ins.HasToken, ins.InCS, ins.Epoch,
				ins.LastFence, ins.MaxFence, ins.Outstanding,
				snap.Counters["requests_retransmitted_total"],
				snap.Counters["recovery_regenerations_total"],
				snap.Counters["recovery_takeovers_total"],
				snap.Counters["token_duplicates_dropped_total"],
				snap.Counters["token_stale_dropped_total"])
		}
	}

	// Workers churn on the lock for the whole run — the chaos phases need
	// live token traffic to bite on — and keep a per-worker count of
	// completed CS entries. The liveness quota is judged AFTER the fault
	// gauntlet: every surviving worker must complete `quota` further
	// critical sections once the forced phases are over (random link
	// faults stay on throughout).
	counts := make([]atomic.Int64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for ctx.Err() == nil {
				m := mgrs[i].Load()
				if m == nil {
					// Crashed; wait for the restart.
					time.Sleep(10 * time.Millisecond)
					continue
				}
				if _, err := m.LockFence(ctx, key); err != nil {
					if errors.Is(err, live.ErrClosed) {
						continue // killed mid-wait; retry on the next incarnation
					}
					if ctx.Err() == nil {
						t.Errorf("worker %d: %v", i, err)
					}
					return
				}
				time.Sleep(300 * time.Microsecond) // hold the CS briefly
				counts[i].Add(1)
				m.Unlock(key)
			}
		}(i)
	}

	// Phase 1 — run under random link faults only.
	time.Sleep(500 * time.Millisecond)

	// Phase 2 — forced token loss: kill the next two PRIVILEGE transfers
	// (the token and, if need be, its immediate regeneration), then
	// require a regeneration within a generous recovery bound.
	regenBase := regenerations()
	inj.DropNextKind(core.KindPrivilege, 2)
	deadline := time.Now().Add(15 * time.Second)
	for regenerations() == regenBase {
		if time.Now().After(deadline) {
			t.Fatal("token not regenerated within the recovery bound after forced loss")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Phase 3 — partition {0,1} from {2,3,4} for ~700ms, then heal. The
	// isolated side may regenerate a twin token (no quorum prevents it);
	// the fault/heal records let the checker excuse what the split made.
	cl.Partition([]int{0, 1}, []int{2, 3, 4})
	time.Sleep(700 * time.Millisecond)
	cl.Heal()

	// Phase 4 — crash node 4, leave it down briefly, restart it.
	victim := mgrs[4].Swap(nil)
	lostRegens = victim.SumCounter("recovery_regenerations_total")
	if err := victim.Close(); err != nil {
		t.Fatalf("crash node 4: %v", err)
	}
	time.Sleep(300 * time.Millisecond)
	if err := cl.Restart(4); err != nil {
		t.Fatalf("restart node 4: %v", err)
	}
	mgrs[4].Store(cl.Managers[4])

	// Phase 5 — liveness: every worker completes `quota` critical
	// sections after the forced phases, under the still-running random
	// faults. Then stop the churn.
	base := make([]int64, n)
	for i := range base {
		base[i] = counts[i].Load()
	}
	for {
		done := true
		for i := range base {
			if counts[i].Load() < base[i]+quota {
				done = false
			}
		}
		if done {
			break
		}
		if ctx.Err() != nil {
			for i := range base {
				t.Errorf("worker %d completed %d/%d post-gauntlet critical sections",
					i, counts[i].Load()-base[i], quota)
			}
			dumpState()
			t.Fatal("liveness quota not reached before the soak deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	wg.Wait()
	regens := regenerations()
	v, err := cl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if v.Accepted[key] < n*quota {
		t.Errorf("the fenced store accepted %d grants, want ≥ %d", v.Accepted[key], n*quota)
	}

	c := inj.Counters()
	if c.Drops == 0 || c.Dups == 0 || c.Corruptions == 0 {
		t.Errorf("fault mix did not exercise all fault types: %+v", c)
	}
	if c.Partitions != 1 || c.Heals != 1 {
		t.Errorf("partition lifecycle counters: %+v, want 1 partition and 1 heal", c)
	}
	if decodeErrs.Load() == 0 {
		t.Error("no corruption surfaced as *wire.DecodeError")
	}
	if regens == 0 {
		t.Error("soak completed without a single token regeneration")
	}
	t.Logf("seed %d: regenerations=%d faults=%+v verdict: %s", seed, regens, c, v)
}
