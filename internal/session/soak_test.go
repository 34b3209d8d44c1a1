package session_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tokenarbiter/internal/faultnet"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/reqtrace"
	"tokenarbiter/internal/session"
	"tokenarbiter/internal/session/sessiontest"
	"tokenarbiter/internal/telemetry"
	"tokenarbiter/internal/transport"
)

// soakRecorder opens a flight-recorder capture of the soak, always: a
// failure that happens one run in five must leave something to replay
// (`mutexsim replay <capture>`). Under $FLIGHTREC_DIR when that is set —
// CI sets it and uploads the directory when the job fails — else in a
// temp dir that is removed when the test passes and named in the log
// when it fails.
func soakRecorder(t *testing.T, algo string, n int, name string) *reqtrace.Recorder {
	dir := os.Getenv("FLIGHTREC_DIR")
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "flightrec-"); err != nil {
			t.Fatalf("flight recorder dir: %v", err)
		}
		t.Cleanup(func() {
			if !t.Failed() {
				_ = os.RemoveAll(dir)
			}
		})
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatalf("flight recorder dir %s: %v", dir, err)
	}
	path := filepath.Join(dir, name+".jsonl")
	rec, err := reqtrace.CreateRecorder(path, algo, n)
	if err != nil {
		t.Fatalf("flight recorder %s: %v", path, err)
	}
	t.Cleanup(func() {
		_ = rec.Close()
		if t.Failed() {
			t.Logf("flight-recorder capture of the failed run: %s", path)
		}
	})
	return rec
}

// keyedResource models one lock-protected resource the fenced way a real
// store would: acquisitions present their fencing token and only strictly
// increasing fences are accepted — a fence at or below the high-water
// mark is a stale holder overtaken by recovery, rejected (which is the
// fencing defense working, not a failure). Exclusion is temporal: two
// accepted holders overlapping is a violation, except while the shared
// grace flag is up (partition or forced-restart residue: the protocol can
// legitimately fork twin tokens with no quorum to stop it).
type keyedResource struct {
	grace *atomic.Bool

	mu         sync.Mutex
	highWater  uint64
	holders    int
	accepted   int
	stale      int
	overlaps   int
	violations []string
}

func (r *keyedResource) acquire(fence uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if fence <= r.highWater {
		r.stale++
		return false
	}
	r.highWater = fence
	if r.holders > 0 {
		if r.grace.Load() {
			r.overlaps++
		} else {
			r.violations = append(r.violations, fmt.Sprintf(
				"fence %d accepted while %d holder(s) still held the resource", fence, r.holders))
		}
	}
	r.holders++
	r.accepted++
	return true
}

func (r *keyedResource) release() {
	r.mu.Lock()
	r.holders--
	r.mu.Unlock()
}

// observe records a fence granted to a deliberately-leaky session: it
// advances the watermark (later grants must still climb above it) without
// holder accounting — the zombie's overlap with its §6 replacement is the
// scenario fencing exists for, not an exclusion violation.
func (r *keyedResource) observe(fence uint64) {
	r.mu.Lock()
	if fence > r.highWater {
		r.highWater = fence
	}
	r.mu.Unlock()
}

func (r *keyedResource) snapshot() (accepted, stale, overlaps int, violations []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.accepted, r.stale, r.overlaps, append([]string(nil), r.violations...)
}

// waitFor is waitUntil with a caller-chosen deadline: the soak's
// convergence and liveness phases run under active link faults and can
// legitimately need longer than the unit-test helper's bound.
func waitFor(t *testing.T, desc string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", desc)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sumRegs totals one counter across the cluster's server registries.
func sumRegs(regs []*telemetry.Registry, name string) uint64 {
	var sum uint64
	for _, reg := range regs {
		sum += reg.Snapshot().Counters[name]
	}
	return sum
}

// TestSessionChaosSoak churns ~1000 leased sessions across a 3-node
// cluster and 4 keys while the inter-node links run the fault gauntlet —
// random drop/dup/corrupt/delay, a partition-and-heal cycle, and forced
// key-participant restarts (the rejoin path) — with a band of deliberately
// leaky holders whose leases lapse mid-CS so expiry flows through the §6
// invalidation. Asserts per-key mutual exclusion and fence monotonicity at
// a model resource, expiry-invalidation accounting, watch delivery on
// release, and a post-gauntlet per-key liveness quota. Runs under -race in
// the CI soak job with FLIGHTREC_DIR capture.
func TestSessionChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("session chaos soak is a multi-second test; skipped in -short")
	}
	for _, seed := range []uint64{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sessionChaosSoak(t, seed)
		})
	}
}

func sessionChaosSoak(t *testing.T, seed uint64) {
	const (
		nodes        = 3
		connsPerNode = 2
		sessPerConn  = 170 // 3×2×170 = 1020 churning sessions
		leakyPerNode = 8
		holdFor      = 200 * time.Microsecond
		quota        = 20 // post-gauntlet accepted ops per key
	)
	keys := []string{"alpha", "beta", "gamma", "delta"}

	algo, err := registry.RegisterWire(registry.Core)
	if err != nil {
		t.Fatal(err)
	}
	rec := soakRecorder(t, algo, nodes, fmt.Sprintf("session-chaos-soak-seed%d", seed))
	inj := faultnet.New(faultnet.Options{
		Seed: seed,
		Faults: faultnet.Faults{
			Drop:          0.05,
			Dup:           0.03,
			Corrupt:       0.02,
			Delay:         200 * time.Microsecond,
			Jitter:        300 * time.Microsecond,
			Reorder:       0.05,
			ReorderWindow: 2 * time.Millisecond,
		},
		Algo: algo,
	})

	cl := sessiontest.Start(t, sessiontest.Options{
		N:    nodes,
		Seed: seed,
		Middleware: func(i int, base transport.Transport) transport.Transport {
			// Recorder outermost: it captures what the protocol attempted,
			// not what survived the faults.
			return transport.Chain(base, rec.Middleware(), inj.Middleware())
		},
		Server: func(i int, cfg *session.Config) {
			cfg.MaxSessions = 1000
			cfg.MaxWaitersPerKey = 64 // small enough that admission control engages
		},
	})

	var grace atomic.Bool
	res := make(map[string]*keyedResource, len(keys))
	for _, k := range keys {
		res[k] = &keyedResource{grace: &grace}
	}
	perKeyAccepted := func() map[string]int {
		m := make(map[string]int, len(keys))
		for _, k := range keys {
			a, _, _, _ := res[k].snapshot()
			m[k] = a
		}
		return m
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	churnCtx, stopChurn := context.WithCancel(ctx)
	defer stopChurn()

	// Churning well-behaved sessions: open with auto-keepalive, loop
	// acquire → hold → release on a random key. Overload and wait-bound
	// refusals back off and retry; they are admission control working,
	// not failures.
	var (
		wg          sync.WaitGroup
		churnErrs   atomic.Uint64
		overloads   atomic.Uint64
		waitRetries atomic.Uint64
	)
	for node := 0; node < nodes; node++ {
		for c := 0; c < connsPerNode; c++ {
			conn := cl.Dial(t, node, session.Options{})
			for s := 0; s < sessPerConn; s++ {
				wg.Add(1)
				go func(node, c, s int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(seed)<<24 ^ int64(node)<<16 ^ int64(c)<<12 ^ int64(s)))
					sess, err := conn.Open(ctx, 2*time.Second)
					if err != nil {
						// Admission refusals under MaxSessions would be a
						// sizing bug in this test, not the server.
						churnErrs.Add(1)
						return
					}
					for churnCtx.Err() == nil {
						key := keys[rng.Intn(len(keys))]
						// The call runs on the outer ctx so an in-flight
						// acquire completes (grant or bound) rather than
						// being abandoned in the server's wait queue when
						// the churn stops; a post-stop grant is released
						// on the way out.
						fence, err := sess.AcquireWait(ctx, key, 2*time.Second)
						if err != nil {
							switch {
							case ctx.Err() != nil:
								return
							case codeOf(err) == session.CodeOverloaded:
								overloads.Add(1)
								time.Sleep(time.Duration(2+rng.Intn(8)) * time.Millisecond)
							case codeOf(err) == session.CodeTimeout:
								waitRetries.Add(1)
							case errors.Is(err, session.ErrSessionDead) || errors.Is(err, session.ErrClientClosed):
								return
							default:
								churnErrs.Add(1)
								return
							}
							continue
						}
						if churnCtx.Err() != nil {
							_ = sess.Release(key)
							return
						}
						ok := res[key].acquire(fence)
						time.Sleep(holdFor)
						if ok {
							res[key].release()
						}
						_ = sess.Release(key)
					}
				}(node, c, s)
			}
		}
	}

	// Watchers: one session per node watching every key, draining events.
	var watchEvents atomic.Uint64
	for node := 0; node < nodes; node++ {
		wconn := cl.Dial(t, node, session.Options{})
		wsess, err := wconn.Open(ctx, 5*time.Second)
		if err != nil {
			t.Fatalf("watcher open node %d: %v", node, err)
		}
		for _, k := range keys {
			if err := wsess.Watch(ctx, k); err != nil {
				t.Fatalf("watch %s on node %d: %v", k, node, err)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-wsess.Events():
					watchEvents.Add(1)
				case <-wsess.Done():
					return
				case <-churnCtx.Done():
					return
				}
			}
		}()
	}

	// Leaky holders: NoKeepAlive sessions that acquire and then vanish —
	// the lease lapses mid-CS and the server must invalidate the fence
	// through §6, not just forget locally. Their fences feed the model's
	// watermark so replacement grants are still forced above them.
	var grantedLeaky atomic.Uint64
	for node := 0; node < nodes; node++ {
		lconn := cl.Dial(t, node, session.Options{NoKeepAlive: true})
		for s := 0; s < leakyPerNode; s++ {
			wg.Add(1)
			go func(node, s int) {
				defer wg.Done()
				sess, err := lconn.Open(ctx, 1*time.Second)
				if err != nil {
					return
				}
				key := keys[(node+s)%len(keys)]
				fence, err := sess.AcquireWait(ctx, key, 700*time.Millisecond)
				if err != nil {
					return // expired or bounded out while queued; fine
				}
				grantedLeaky.Add(1)
				res[key].observe(fence)
				// Abandon: no release, no keepalive. The server push on
				// expiry must close the session client-side.
				select {
				case <-sess.Done():
				case <-ctx.Done():
					t.Error("leaky holder never observed its expiry")
				}
			}(node, s)
		}
	}

	// Phase 1 — churn under random link faults only.
	time.Sleep(500 * time.Millisecond)

	// Phase 2 — every leaky session that won a grant lapses (1s TTL) and
	// must be invalidated through the protocol.
	waitFor(t, "leaky holders invalidated via §6", 15*time.Second, func() bool {
		return grantedLeaky.Load() > 0 &&
			sumRegs(cl.Regs, "session_expiry_invalidations_total") >= grantedLeaky.Load()
	})

	// Phase 3 — partition node 0 from {1,2} for ~600ms, then heal. Twin
	// tokens are possible until reconvergence; relax the overlap check.
	grace.Store(true)
	inj.Partition([]int{0}, []int{1, 2})
	time.Sleep(600 * time.Millisecond)
	inj.Heal()

	// Phase 4 — forced participant restarts, still inside the grace
	// window: node 0's instance exercises the initial-node rejoin path
	// (no token re-mint; §6 regenerates above the group watermark).
	for i, key := range []string{keys[0], keys[1]} {
		if _, err := cl.Managers[i].RestartKey(key); err != nil {
			t.Fatalf("restart %s on node %d: %v", key, i, err)
		}
	}

	// Reconvergence: per key, every node at one epoch with at most one
	// token holder — then the strict exclusion assertion is re-armed.
	waitFor(t, "cluster reconverged to one epoch per key", 20*time.Second, func() bool {
		for _, key := range keys {
			var epoch uint64
			tokens := 0
			for i := 0; i < nodes; i++ {
				nd := cl.Managers[i].Node(key)
				if nd == nil {
					return false
				}
				ins, err := nd.Inspect(ctx)
				if err != nil {
					return false
				}
				if i == 0 {
					epoch = ins.Epoch
				} else if ins.Epoch != epoch {
					return false
				}
				if ins.HasToken {
					tokens++
				}
			}
			if tokens > 1 {
				return false
			}
		}
		return true
	})
	grace.Store(false)

	// dumpState logs per-key per-node protocol state on failure paths
	// (with its own context: ctx may be expired by then).
	dumpState := func() {
		dctx, dcancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer dcancel()
		for _, key := range keys {
			for i := 0; i < nodes; i++ {
				nd := cl.Managers[i].Node(key)
				if nd == nil {
					t.Logf("key %s node %d: no instance", key, i)
					continue
				}
				ins, err := nd.Inspect(dctx)
				if err != nil {
					t.Logf("key %s node %d: inspect: %v", key, i, err)
					continue
				}
				snap := cl.Managers[i].Registry(key).Snapshot()
				t.Logf("key %s node %d: arbiter=%d isArb=%v token=%v inCS=%v epoch=%d fence=%d/%d out=%d inval=%d regen=%d resolved=%d takeover=%d abandon=%d dup-drop=%d stale-drop=%d retx=%d",
					key, i, ins.Arbiter, ins.IsArbiter, ins.HasToken, ins.InCS,
					ins.Epoch, ins.LastFence, ins.MaxFence, ins.Outstanding,
					snap.Counters["recovery_invalidations_total"],
					snap.Counters["recovery_regenerations_total"],
					snap.Counters["recovery_resolved_total"],
					snap.Counters["recovery_takeovers_total"],
					snap.Counters["collections_abandoned_total"],
					snap.Counters["token_duplicates_dropped_total"],
					snap.Counters["token_stale_dropped_total"],
					snap.Counters["requests_retransmitted_total"])
			}
		}
		acc := perKeyAccepted()
		for _, k := range keys {
			t.Logf("key %s: accepted=%d", k, acc[k])
		}
	}

	// Phase 5 — liveness quota: every key's resource accepts `quota`
	// further operations after the forced phases, random faults still on.
	base := perKeyAccepted()
	quotaDeadline := time.Now().Add(30 * time.Second)
	for {
		now := perKeyAccepted()
		done := true
		for _, k := range keys {
			if now[k]-base[k] < quota {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(quotaDeadline) {
			for _, k := range keys {
				t.Errorf("key %s: %d/%d post-gauntlet accepted operations", k, now[k]-base[k], quota)
			}
			dumpState()
			t.Fatal("per-key liveness quota not reached")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stopChurn()
	wg.Wait()

	// Quiet phase — deterministic watch-on-release delivery: a fresh
	// watcher and a fresh holder on the same node, one release, one event.
	wconn := cl.Dial(t, 0, session.Options{})
	wsess, err := wconn.Open(ctx, 5*time.Second)
	if err != nil {
		t.Fatalf("quiet watcher open: %v", err)
	}
	if err := wsess.Watch(ctx, keys[0]); err != nil {
		t.Fatalf("quiet watch: %v", err)
	}
	hconn := cl.Dial(t, 0, session.Options{})
	hsess, err := hconn.Open(ctx, 5*time.Second)
	if err != nil {
		t.Fatalf("quiet holder open: %v", err)
	}
	// The wait queue may still be draining residue from the churn: retry
	// admission refusals and wait bounds until the quiet acquire lands.
	var fence uint64
	for {
		fence, err = hsess.AcquireWait(ctx, keys[0], 2*time.Second)
		if err == nil {
			break
		}
		if code := codeOf(err); code == session.CodeOverloaded || code == session.CodeTimeout {
			continue
		}
		t.Fatalf("quiet acquire: %v", err)
	}
	if err := hsess.Release(keys[0]); err != nil {
		t.Fatalf("quiet release: %v", err)
	}
	// Drain-era releases may still be flowing to the watcher; scan until
	// the event for OUR release (its exact fence) shows up.
	for {
		select {
		case ev := <-wsess.Events():
			if ev.Key != keys[0] || ev.Fence < fence {
				continue
			}
			if ev.Fence == fence && ev.Reason != session.ReasonReleased {
				t.Errorf("quiet watch event %+v, want release of fence %d", ev, fence)
			}
			goto watched
		case <-ctx.Done():
			t.Fatal("watch event not delivered after release")
		}
	}
watched:

	// Final accounting.
	var totalAccepted, totalStale, totalOverlaps int
	for _, k := range keys {
		accepted, stale, overlaps, violations := res[k].snapshot()
		for _, v := range violations {
			t.Errorf("key %s: mutual exclusion violated: %s", k, v)
		}
		totalAccepted += accepted
		totalStale += stale
		totalOverlaps += overlaps
	}
	if totalAccepted < len(keys)*quota {
		t.Errorf("resources accepted %d operations, want ≥ %d", totalAccepted, len(keys)*quota)
	}
	if n := churnErrs.Load(); n > 0 {
		t.Errorf("%d churn sessions died with unexpected errors", n)
	}
	if got := sumRegs(cl.Regs, "session_watch_events_total"); got == 0 {
		t.Error("no watch events delivered during the soak")
	}
	var regens uint64
	for _, m := range cl.Managers {
		regens += m.SumCounter("recovery_regenerations_total")
	}
	if regens == 0 {
		t.Error("soak completed without a single §6 token regeneration")
	}
	c := inj.Counters()
	if c.Drops == 0 || c.Dups == 0 {
		t.Errorf("fault mix did not exercise the links: %+v", c)
	}
	if c.Partitions != 1 || c.Heals != 1 {
		t.Errorf("partition lifecycle counters: %+v, want 1 partition and 1 heal", c)
	}
	t.Logf("seed %d: accepted=%d stale-rejected=%d split-brain-overlaps=%d leaky-granted=%d invalidations=%d regenerations=%d overloads=%d wait-retries=%d watch-events=%d faults=%+v",
		seed, totalAccepted, totalStale, totalOverlaps,
		grantedLeaky.Load(), sumRegs(cl.Regs, "session_expiry_invalidations_total"),
		regens, overloads.Load(), waitRetries.Load(), watchEvents.Load(), c)
}
