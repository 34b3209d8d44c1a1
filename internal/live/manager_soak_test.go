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
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/faultnet"
	"tokenarbiter/internal/live"
	"tokenarbiter/internal/reqtrace"
	"tokenarbiter/internal/transport"
	"tokenarbiter/internal/wire"
)

// keyBlackout is a test middleware that silently discards every message —
// outbound and inbound — belonging to one lock key, chosen at runtime.
// faultnet's fault rules are kind-targeted and key-blind by design (they
// model the network, which cannot see keys); blacking out exactly one
// key's DME group while its siblings share the same transport is how the
// soak proves cross-key isolation. All nodes share one control, so
// setting the victim partitions that key's group cluster-wide.
type blackoutCtl struct {
	victim  atomic.Pointer[string]
	dropped atomic.Uint64
}

func (c *blackoutCtl) set(key string) { c.victim.Store(&key) }
func (c *blackoutCtl) clear()         { c.victim.Store(nil) }

func (c *blackoutCtl) drops(msg dme.Message) bool {
	v := c.victim.Load()
	if v == nil {
		return false
	}
	if _, key := wire.SplitKey(msg); key == *v {
		c.dropped.Add(1)
		return true
	}
	return false
}

type keyBlackout struct {
	next transport.Transport
	ctl  *blackoutCtl
}

func blackoutMW(ctl *blackoutCtl) transport.Middleware {
	return func(next transport.Transport) transport.Transport {
		return &keyBlackout{next: next, ctl: ctl}
	}
}

func (b *keyBlackout) Self() dme.NodeID            { return b.next.Self() }
func (b *keyBlackout) Unwrap() transport.Transport { return b.next }
func (b *keyBlackout) Close() error                { return b.next.Close() }

func (b *keyBlackout) Send(to dme.NodeID, msg dme.Message) error {
	if b.ctl.drops(msg) {
		return nil // swallowed, like a lossy link
	}
	return b.next.Send(to, msg)
}

func (b *keyBlackout) SetHandler(h transport.Handler) {
	b.next.SetHandler(func(from dme.NodeID, msg dme.Message) {
		if b.ctl.drops(msg) {
			return // in-flight stragglers die here too
		}
		h(from, msg)
	})
}

// TestManagerChaosSoakMultiKey drives 3 Managers × 8 lock keys — every
// key its own DME group, all multiplexed over each node's single faulty
// transport — through random link faults, a cluster partition, and a
// single-key blackout, asserting the multi-key guarantees:
//
//   - per-key safety as the checker judges the capture (reqtrace.Check:
//     exclusion and fencing per lineage, excused across lineages only
//     as its rule allows, no superseded token granting and no wedge
//     past the recovery bound);
//   - cross-key isolation (a fully blacked-out key's recovery churn
//     never stalls the other seven keys' critical sections);
//   - liveness (every worker of every key completes its post-gauntlet
//     quota).
//
// Runs under -race in CI next to TestChaosSoak.
func TestManagerChaosSoakMultiKey(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-key chaos soak is a multi-second test; skipped in -short")
	}
	for _, seed := range []uint64{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			managerChaosSoak(t, seed, 0)
		})
	}
	// The same gauntlet with sub-millisecond phases, below the
	// short-timer cutoff: a window holding requests fires from the
	// short-timer service, which then runs the grant handoff itself.
	t.Run("seed=1,phase=0.5ms", func(t *testing.T) {
		managerChaosSoak(t, 1, 500*time.Microsecond)
	})
}

// managerChaosSoak runs the soak under one fault seed. phase, when
// non-zero, replaces cluster.FastRecovery's Treq and Tfwd.
func managerChaosSoak(t *testing.T, seed uint64, phase time.Duration) {
	const (
		n     = 3
		nKeys = 8
		quota = 4
	)
	keys := make([]string, nKeys)
	for k := range keys {
		keys[k] = fmt.Sprintf("key-%d", k)
	}

	// fullFaults runs between the forced phases; mildFaults (latency
	// only, no loss) quiesces the regeneration churn while a convergence
	// check needs all eight keys to agree at once.
	fullFaults := faultnet.Faults{
		Drop:          0.06,
		Dup:           0.04,
		Corrupt:       0.02,
		Delay:         200 * time.Microsecond,
		Jitter:        300 * time.Microsecond,
		Reorder:       0.05,
		ReorderWindow: 2 * time.Millisecond,
	}
	mildFaults := faultnet.Faults{
		Delay:  200 * time.Microsecond,
		Jitter: 300 * time.Microsecond,
	}
	var decodeErrs atomic.Uint64
	inj := faultnet.New(faultnet.Options{
		Seed:   seed,
		Faults: fullFaults,
		OnFault: func(err error) {
			var de *wire.DecodeError
			if errors.As(err, &de) {
				decodeErrs.Add(1)
			}
		},
	})

	opts := cluster.FastRecovery()
	if phase > 0 {
		opts.Treq = phase.Seconds()
		opts.Tfwd = phase.Seconds()
	}

	// 30 s is the recovery bound the convergence barrier waits out.
	capture := fmt.Sprintf("manager-soak-seed%d", seed)
	if phase > 0 {
		capture += fmt.Sprintf("-phase%dus", phase.Microseconds())
	}
	ctl := &blackoutCtl{}
	// The blackout sits above the injector: the injector stays key-blind
	// and composes below the demux exactly as in production.
	cl := cluster.Start(t, cluster.Config{
		N: n, Core: opts, Faults: inj, Middleware: []transport.Middleware{blackoutMW(ctl)},
		Capture: capture, Settle: 30,
	})
	mgrs := cl.Managers

	// The deadline is deliberately generous: eight independent recovery
	// state machines share one transport per node, so reconvergence and
	// the liveness quota can take far longer on a loaded CI machine than
	// the single-mutex soak's phases. Typical runs finish in seconds.
	ctx, cancel := context.WithTimeout(context.Background(), 240*time.Second)
	defer cancel()

	sumRegen := func() uint64 {
		var sum uint64
		for _, m := range mgrs {
			sum += m.SumCounter("recovery_regenerations_total")
		}
		return sum
	}
	dumpState := func() {
		dctx, dcancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer dcancel()
		for _, key := range keys {
			for i, m := range mgrs {
				nd := m.Node(key)
				if nd == nil {
					t.Logf("%s node %d: absent", key, i)
					continue
				}
				ins, err := nd.Inspect(dctx)
				if err != nil {
					t.Logf("%s node %d: inspect: %v", key, i, err)
					continue
				}
				t.Logf("%s node %d: arbiter=%d token=%v inCS=%v epoch=%d fence=%d/%d out=%d",
					key, i, ins.Arbiter, ins.HasToken, ins.InCS, ins.Epoch,
					ins.LastFence, ins.MaxFence, ins.Outstanding)
			}
		}
	}

	// One worker per (node, key) churning for the whole run.
	counts := make([][]atomic.Int64, n)
	for i := range counts {
		counts[i] = make([]atomic.Int64, nKeys)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		for k := 0; k < nKeys; k++ {
			wg.Add(1)
			go func(m *live.Manager, node, ki int) {
				defer wg.Done()
				key := keys[ki]
				for ctx.Err() == nil {
					if _, err := m.LockFence(ctx, key); err != nil {
						if ctx.Err() == nil && !errors.Is(err, live.ErrClosed) {
							t.Errorf("worker %d/%s: %v", node, key, err)
						}
						return
					}
					time.Sleep(200 * time.Microsecond)
					counts[node][ki].Add(1)
					m.Unlock(key)
				}
			}(mgrs[i], i, k)
		}
	}
	// Drain the workers before the cluster's cleanup tears the key
	// instances down: when a phase bails out with t.Fatal the defers run
	// with workers still inside their critical sections, and a worker
	// would otherwise Unlock into a closed Manager and panic, masking
	// the phase's real failure.
	defer func() {
		cancel()
		wg.Wait()
	}()

	// Phase 1 — all keys churn under random link faults only.
	time.Sleep(400 * time.Millisecond)

	// Phase 2 — partition node 0 (every key's initial arbiter) from
	// {1,2}. Twin tokens are possible on every key at once; the fault/heal
	// records let the checker excuse what the split made.
	cl.Partition([]int{0}, []int{1, 2})
	time.Sleep(600 * time.Millisecond)
	cl.Heal()

	// The barrier before the isolation phase: with the loss faults
	// quiesced (latency stays), every key's group gets back to one epoch
	// with ≤1 token, so no key enters the blackout still in recovery.
	if err := inj.SetFaults(mildFaults); err != nil {
		t.Fatal(err)
	}
	if !waitKeysConverged(ctx, mgrs, keys, 30*time.Second) {
		dumpState()
		t.Fatal("some key's group did not reconverge after the partition healed")
	}
	if err := inj.SetFaults(fullFaults); err != nil {
		t.Fatal(err)
	}

	// Phase 3 — cross-key isolation: black out one key's traffic
	// entirely (its group is partitioned into three singletons; recovery
	// churns and may fork per-node twins) and require every
	// OTHER key to keep completing critical sections throughout. The
	// random loss faults are quiesced for the window so the blackout is
	// the only disturbance: otherwise an innocent key can lose its token
	// to a random drop right at the window start and spend most of the
	// window in recovery, confounding what the phase measures.
	if err := inj.SetFaults(mildFaults); err != nil {
		t.Fatal(err)
	}
	victim := keys[3]
	before := make([]int64, nKeys)
	for k := range keys {
		for i := 0; i < n; i++ {
			before[k] += counts[i][k].Load()
		}
	}
	cl.Mark(reqtrace.EvFault, victim)
	ctl.set(victim)
	time.Sleep(600 * time.Millisecond)
	ctl.clear()
	cl.Mark(reqtrace.EvHeal, victim)
	for k, key := range keys {
		if key == victim {
			continue
		}
		var after int64
		for i := 0; i < n; i++ {
			after += counts[i][k].Load()
		}
		if gained := after - before[k]; gained < 2 {
			t.Errorf("cross-key isolation: %s completed only %d critical sections during %s's blackout",
				key, gained, victim)
		}
	}
	if ctl.dropped.Load() == 0 {
		t.Error("blackout phase dropped no messages; the victim key was idle")
	}

	if err := inj.SetFaults(fullFaults); err != nil {
		t.Fatal(err)
	}

	// Phase 4 — liveness: every worker of every key (including the
	// victim's) completes its quota after the gauntlet, random link
	// faults still running.
	base := make([][]int64, n)
	for i := range base {
		base[i] = make([]int64, nKeys)
		for k := range base[i] {
			base[i][k] = counts[i][k].Load()
		}
	}
	for {
		done := true
		for i := range base {
			for k := range base[i] {
				if counts[i][k].Load() < base[i][k]+quota {
					done = false
				}
			}
		}
		if done {
			break
		}
		if ctx.Err() != nil {
			for i := range base {
				for k := range base[i] {
					if got := counts[i][k].Load() - base[i][k]; got < quota {
						t.Errorf("worker %d/%s: %d/%d post-gauntlet critical sections",
							i, keys[k], got, quota)
					}
				}
			}
			dumpState()
			t.Fatal("liveness quota not reached before the soak deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	wg.Wait()
	regens := sumRegen()
	v, err := cl.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		if a := v.Accepted[key]; a < n*quota {
			t.Errorf("key %s: the fenced store accepted %d grants, want ≥ %d", key, a, n*quota)
		}
	}
	c := inj.Counters()
	if c.Drops == 0 || c.Corruptions == 0 {
		t.Errorf("fault mix did not exercise the fault types: %+v", c)
	}
	if decodeErrs.Load() == 0 {
		t.Error("no corruption surfaced as *wire.DecodeError")
	}
	t.Logf("seed %d: regenerations=%d blackout-drops=%d faults=%+v verdict: %s",
		seed, regens, ctl.dropped.Load(), c, v)
}

// waitKeysConverged polls until every named key's group reports one
// shared epoch and at most one token across the managers, or the bound
// expires.
func waitKeysConverged(ctx context.Context, mgrs []*live.Manager, keys []string, bound time.Duration) bool {
	deadline := time.Now().Add(bound)
	for {
		allOK := true
		for _, key := range keys {
			var epoch uint64
			tokens, seen := 0, 0
			converged := true
			for _, m := range mgrs {
				nd := m.Node(key)
				if nd == nil {
					continue // never pulled in; nothing to disagree about
				}
				ins, err := nd.Inspect(ctx)
				if err != nil {
					converged = false
					break
				}
				if seen == 0 {
					epoch = ins.Epoch
				} else if ins.Epoch != epoch {
					converged = false
				}
				seen++
				if ins.HasToken {
					tokens++
				}
			}
			if !converged || tokens > 1 {
				allOK = false
				break
			}
		}
		if allOK {
			return true
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return false
		}
		time.Sleep(20 * time.Millisecond)
	}
}
