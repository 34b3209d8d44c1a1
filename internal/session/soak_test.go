package session_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tokenarbiter/internal/cluster"
	"tokenarbiter/internal/faultnet"
	"tokenarbiter/internal/session"
)

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

// sumServers totals one counter across the cluster's session servers.
func sumServers(servers []*session.Server, name string) uint64 {
	var sum uint64
	for _, srv := range servers {
		sum += srv.Metrics().Snapshot().Counters[name]
	}
	return sum
}

// TestSessionChaosSoak churns ~1000 leased sessions across a 3-node
// cluster and 4 keys while the inter-node links run the fault gauntlet —
// random drop/dup/corrupt/delay, a partition-and-heal cycle, and forced
// key-participant restarts (the rejoin path) — with a band of deliberately
// leaky holders whose leases lapse mid-CS so expiry flows through the §6
// invalidation. Asserts per-key safety as the checker judges the capture
// (reqtrace.Check: exclusion and fencing per lineage, no superseded token
// granting and no wedge past the recovery bound), expiry-invalidation
// accounting, watch delivery on release, and a post-gauntlet per-key
// liveness quota. Runs under -race in the CI soak job with FLIGHTREC_DIR
// capture.
func TestSessionChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("session chaos soak is a multi-second test; skipped in -short")
	}
	for _, seed := range []uint64{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sessionChaosSoak(t, seed, 0)
		})
	}
	// The same gauntlet with sub-millisecond phases: a window holding
	// requests then fires from the short-timer service, and the grants it
	// produces reach the session tier's callbacks on that service's
	// goroutine.
	t.Run("seed=1,phase=0.5ms", func(t *testing.T) {
		sessionChaosSoak(t, 1, 500*time.Microsecond)
	})
}

// sessionChaosSoak runs the soak under one fault seed. phase, when
// non-zero, sets the protocol's Treq and Tfwd.
func sessionChaosSoak(t *testing.T, seed uint64, phase time.Duration) {
	const (
		nodes        = 3
		connsPerNode = 2
		sessPerConn  = 170 // 3×2×170 = 1020 churning sessions
		leakyPerNode = 8
		holdFor      = 200 * time.Microsecond
		quota        = 20 // post-gauntlet accepted ops per key
	)
	keys := []string{"alpha", "beta", "gamma", "delta"}

	// 20 s is the recovery bound the soak's phases wait out.
	capture := fmt.Sprintf("session-chaos-soak-seed%d", seed)
	if phase > 0 {
		capture += fmt.Sprintf("-phase%dus", phase.Microseconds())
	}
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
	})

	opts := cluster.FastRecovery()
	if phase > 0 {
		opts.Treq = phase.Seconds()
		opts.Tfwd = phase.Seconds()
	}
	cl := cluster.Start(t, cluster.Config{
		N: nodes, Core: opts, Faults: inj, Sessions: "pipe",
		Server: func(i int, cfg *session.Config) {
			cfg.MaxSessions = 1000
			cfg.MaxWaitersPerKey = 64 // small enough that admission control engages
		},
		Capture: capture, Settle: 20,
	})

	// Completed grants per key, the liveness quota's measure.
	granted := make([]atomic.Int64, len(keys))
	perKeyGranted := func() []int64 {
		n := make([]int64, len(keys))
		for k := range keys {
			n[k] = granted[k].Load()
		}
		return n
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
			conn := dial(t, cl, node, session.Options{})
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
						k := rng.Intn(len(keys))
						key := keys[k]
						// The call runs on the outer ctx so an in-flight
						// acquire completes (grant or bound) rather than
						// being abandoned in the server's wait queue when
						// the churn stops; a post-stop grant is released
						// on the way out.
						_, err := sess.AcquireWait(ctx, key, 2*time.Second)
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
						time.Sleep(holdFor)
						granted[k].Add(1)
						_ = sess.Release(key)
					}
				}(node, c, s)
			}
		}
	}

	// Watchers: one session per node watching every key, draining events.
	var watchEvents atomic.Uint64
	for node := 0; node < nodes; node++ {
		wconn := dial(t, cl, node, session.Options{})
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
	// through §6, not just forget locally. At node level they are ordinary
	// holders; the checker's rule excuses their replacement.
	var grantedLeaky atomic.Uint64
	for node := 0; node < nodes; node++ {
		lconn := dial(t, cl, node, session.Options{NoKeepAlive: true})
		for s := 0; s < leakyPerNode; s++ {
			wg.Add(1)
			go func(node, s int) {
				defer wg.Done()
				sess, err := lconn.Open(ctx, 1*time.Second)
				if err != nil {
					return
				}
				key := keys[(node+s)%len(keys)]
				for {
					_, err := sess.AcquireWait(ctx, key, 700*time.Millisecond)
					if err == nil {
						break
					}
					if codeOf(err) != session.CodeOverloaded {
						return // expired or bounded out while queued; fine
					}
					// The churn keeps each wait queue near its cap: retry
					// admission refusals as the churn does, or a run can
					// end with no leaky grant for phase 2 to wait out.
					time.Sleep(time.Duration(2+s%8) * time.Millisecond)
				}
				grantedLeaky.Add(1)
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
			sumServers(cl.Servers, "session_expiry_invalidations_total") >= grantedLeaky.Load()
	})

	// Phase 3 — partition node 0 from {1,2} for ~600ms, then heal. Twin
	// tokens are possible; the fault/heal records let the checker excuse
	// what the split made.
	cl.Partition([]int{0}, []int{1, 2})
	time.Sleep(600 * time.Millisecond)
	cl.Heal()

	// Phase 4 — forced participant restarts: node 0's instance exercises
	// the initial-node rejoin path (no token re-mint; §6 regenerates above
	// the group watermark).
	for i, key := range []string{keys[0], keys[1]} {
		if _, err := cl.Managers[i].RestartKey(key); err != nil {
			t.Fatalf("restart %s on node %d: %v", key, i, err)
		}
	}

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
	}

	// Phase 5 — liveness quota: every key completes `quota` further
	// grants after the forced phases, random faults still on.
	base := perKeyGranted()
	quotaDeadline := time.Now().Add(30 * time.Second)
	for {
		now := perKeyGranted()
		done := true
		for k := range keys {
			if now[k]-base[k] < quota {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(quotaDeadline) {
			for k, key := range keys {
				t.Errorf("key %s: %d/%d post-gauntlet grants", key, now[k]-base[k], quota)
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
	wconn := dial(t, cl, 0, session.Options{})
	wsess, err := wconn.Open(ctx, 5*time.Second)
	if err != nil {
		t.Fatalf("quiet watcher open: %v", err)
	}
	if err := wsess.Watch(ctx, keys[0]); err != nil {
		t.Fatalf("quiet watch: %v", err)
	}
	hconn := dial(t, cl, 0, session.Options{})
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

	// Final accounting; the capture is judged with the cluster shut down.
	var regens uint64
	for _, m := range cl.Managers {
		regens += m.SumCounter("recovery_regenerations_total")
	}
	v, err := cl.Close()
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for _, k := range keys {
		accepted += v.Accepted[k]
	}
	if accepted < len(keys)*quota {
		t.Errorf("the fenced store accepted %d grants, want ≥ %d", accepted, len(keys)*quota)
	}
	if n := churnErrs.Load(); n > 0 {
		t.Errorf("%d churn sessions died with unexpected errors", n)
	}
	if got := sumServers(cl.Servers, "session_watch_events_total"); got == 0 {
		t.Error("no watch events delivered during the soak")
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
	t.Logf("seed %d: leaky-granted=%d invalidations=%d regenerations=%d overloads=%d wait-retries=%d watch-events=%d faults=%+v verdict: %s",
		seed, grantedLeaky.Load(), sumServers(cl.Servers, "session_expiry_invalidations_total"), regens, overloads.Load(), waitRetries.Load(), watchEvents.Load(), c, v)
}
