package main

// Session-layer load mode (-sessions N): instead of driving Manager.Lock
// directly from worker goroutines, every node fronts its Manager with an
// internal/session Server on a loopback-TCP listener (the cluster builds
// them with the config server returns), and the driver
// opens N TTL-leased sessions spread round-robin across a small pool of
// shared client connections per node — the many-client shape the session
// layer exists for: tens of thousands of leases multiplexed onto one DME
// participant per key per node.
//
// Admission control is part of the workload, not a failure: opens beyond
// -maxsessions and acquires beyond -maxwaiters are refused with
// CodeOverloaded, and the driver backs off exponentially and retries —
// the refusals and backoffs are reported in the session summary. Every
// grant and release a session observes feeds one reqtrace.Checker, which
// asserts per-key mutual exclusion and fencing-token monotonicity across
// the whole cluster; a violation fails the run.

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tokenarbiter/internal/cluster"
	"tokenarbiter/internal/reqtrace"
	"tokenarbiter/internal/session"
	"tokenarbiter/internal/stats"
)

// sessionLoadConfig carries the session-mode knobs from the flag set.
type sessionLoadConfig struct {
	sessions    int           // concurrent sessions to sustain
	conns       int           // shared client connections per node
	ttl         time.Duration // lease TTL (auto-keepalive renews)
	wait        time.Duration // server-side acquire wait bound
	think       time.Duration // per-session pause between operations
	hold        time.Duration // critical-section hold time
	maxSessions int           // per-node admission bound (0 = unlimited)
	maxWaiters  int           // per-key wait-queue bound (0 = unlimited)
	duration    time.Duration
	keys        []string
}

// sessionTally aggregates the driver-side observations.
type sessionTally struct {
	opened      atomic.Int64
	openRejects atomic.Int64
	unopened    atomic.Int64
	attempts    atomic.Int64
	grants      atomic.Int64
	overloads   atomic.Int64
	timeouts    atomic.Int64
	connLost    atomic.Int64
	errs        atomic.Int64
}

// server is every node's session server config on an n-node cluster:
// the driver's admission bounds and lease TTL, and a write queue sized
// to its fan-in.
func (cfg sessionLoadConfig) server(nodes int) func(int, *session.Config) {
	// With hundreds of sessions multiplexed per connection, a
	// grant/timeout burst can put one response per session in flight at
	// once, and the default queue would evict the connection as a slow
	// consumer — a self-inflicted wound, not backpressure against a
	// genuinely slow client.
	perConn := (cfg.sessions + nodes*cfg.conns - 1) / (nodes * cfg.conns)
	writeQueue := 2*perConn + session.DefaultWriteQueue
	return func(_ int, sc *session.Config) {
		sc.MaxSessions = cfg.maxSessions
		sc.MaxWaitersPerKey = cfg.maxWaiters
		sc.DefaultTTL = cfg.ttl
		sc.WriteQueue = writeQueue
	}
}

// runSessionLoad connects cfg.conns clients to each of the cluster's
// session servers and drives cfg.sessions concurrent leased sessions
// against them for the measurement duration. The cluster closes the
// clients and the servers.
func runSessionLoad(c *cluster.Cluster, cfg sessionLoadConfig) error {
	nodes := len(c.Managers)
	clients := make([][]*session.Client, nodes)
	for i := range clients {
		clients[i] = make([]*session.Client, cfg.conns)
		for k := range clients[i] {
			var err error
			if clients[i][k], err = c.Dial(i, session.Options{}); err != nil {
				return fmt.Errorf("conn %d: %w", k, err)
			}
		}
	}

	// Client-side records carry no epoch: every grant is one lineage, so
	// any overlap or fence at or below an accepted one is a violation.
	checker := reqtrace.NewChecker(0)

	var (
		tally     sessionTally
		latMu     sync.Mutex
		latencies []float64
		welford   stats.Welford
		stop      = make(chan struct{})
		wg        sync.WaitGroup
	)
	// The outer context outlives the stop signal so in-flight acquires
	// complete (grant or server-side bound) instead of abandoning queue
	// entries on shutdown.
	ctx, cancel := context.WithTimeout(context.Background(), cfg.duration+cfg.wait+30*time.Second)
	defer cancel()

	for j := 0; j < cfg.sessions; j++ {
		node := j % nodes
		cl := clients[node][(j/nodes)%cfg.conns]
		key := cfg.keys[j%len(cfg.keys)]
		wg.Add(1)
		go func(j int, cl *session.Client, key string) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(j+1), uint64(j)^0x10adbee5))
			sess := openWithBackoff(ctx, cl, cfg.ttl, rng, stop, &tally)
			if sess == nil {
				tally.unopened.Add(1)
				return
			}
			defer sess.End(context.Background()) //nolint:errcheck // shutdown path
			backoff := time.Millisecond
			for {
				select {
				case <-stop:
					return
				case <-sess.Done():
					return
				case <-time.After(jittered(cfg.think, rng)):
				}
				tally.attempts.Add(1)
				start := time.Now()
				fence, err := sess.AcquireWait(ctx, key, cfg.wait)
				switch {
				case err == nil:
					l := time.Since(start).Seconds()
					latMu.Lock()
					latencies = append(latencies, l)
					welford.Add(l)
					latMu.Unlock()
					tally.grants.Add(1)
					rec := reqtrace.Record{T: reqtrace.Now(), Ev: reqtrace.EvGrant, Node: j, Peer: -1, Key: key, Fence: fence}
					checker.Record(rec)
					time.Sleep(cfg.hold)
					rec.T, rec.Ev = reqtrace.Now(), reqtrace.EvRelease
					checker.Record(rec)
					_ = sess.Release(key)
					backoff = time.Millisecond
				case sessionCode(err) == session.CodeOverloaded:
					// Admission control: the key's wait queue is full.
					// Back off exponentially so the retry storm decays
					// instead of hammering the refusal path.
					tally.overloads.Add(1)
					select {
					case <-time.After(jittered(backoff, rng)):
					case <-stop:
						return
					}
					if backoff < 64*time.Millisecond {
						backoff *= 2
					}
				case sessionCode(err) == session.CodeTimeout:
					tally.timeouts.Add(1)
				case errors.Is(err, session.ErrSessionDead), errors.Is(err, session.ErrClientClosed):
					return
				case cl.Err() != nil:
					// The shared connection died (server eviction or wire
					// failure), taking every session on it along — connection
					// loss, not a per-operation protocol error.
					tally.connLost.Add(1)
					return
				default:
					tally.errs.Add(1)
					return
				}
			}
		}(j, cl, key)
	}

	// Sample concurrency while the workload runs: the leases are what
	// "concurrent sessions" means, and the servers' gauges count them.
	time.Sleep(cfg.duration)
	var concurrent, rejects int64
	for _, s := range c.Servers {
		snap := s.Metrics().Snapshot()
		concurrent += int64(snap.Gauges["sessions_active"])
		rejects += int64(snap.Counters["session_rejects_total"])
	}
	close(stop)
	wg.Wait()

	latMu.Lock()
	defer latMu.Unlock()
	fmt.Printf("session load: opened=%d concurrent=%d open-rejects=%d unopened=%d\n",
		tally.opened.Load(), concurrent, tally.openRejects.Load(), tally.unopened.Load())
	fmt.Printf("session ops:  attempts=%d grants=%d (%.0f/sec) overloaded=%d timeouts=%d conn-lost=%d errors=%d server-rejects=%d\n",
		tally.attempts.Load(), tally.grants.Load(),
		float64(tally.grants.Load())/cfg.duration.Seconds(),
		tally.overloads.Load(), tally.timeouts.Load(), tally.connLost.Load(),
		tally.errs.Load(), rejects)
	if n := len(latencies); n > 0 {
		sort.Float64s(latencies)
		pct := func(p float64) float64 { return latencies[int(p*float64(n-1))] * 1000 }
		fmt.Printf("grant latency ms: p50=%.2f p90=%.2f p99=%.2f max=%.2f mean=%.2f\n",
			pct(0.50), pct(0.90), pct(0.99), latencies[n-1]*1000, welford.Mean()*1000)
	}
	printSessionServers(c.Servers)

	if err := checker.Verdict().Err(); err != nil {
		return fmt.Errorf("correctness violated: %w", err)
	}
	fmt.Printf("checker: 0 violations (mutual exclusion and fence monotonicity held over %d grants)\n",
		tally.grants.Load())
	if tally.errs.Load() > 0 {
		return fmt.Errorf("%d sessions died on unexpected errors", tally.errs.Load())
	}
	return nil
}

// openWithBackoff opens one session, retrying CodeOverloaded refusals
// with exponential backoff until stop. Any other failure gives up.
func openWithBackoff(ctx context.Context, cl *session.Client, ttl time.Duration, rng *rand.Rand, stop <-chan struct{}, tally *sessionTally) *session.Session {
	backoff := time.Millisecond
	for {
		sess, err := cl.Open(ctx, ttl)
		if err == nil {
			tally.opened.Add(1)
			return sess
		}
		if sessionCode(err) != session.CodeOverloaded {
			return nil
		}
		tally.openRejects.Add(1)
		select {
		case <-time.After(jittered(backoff, rng)):
		case <-stop:
			return nil
		}
		if backoff < 100*time.Millisecond {
			backoff *= 2
		}
	}
}

// printSessionServers is the per-node session summary: the server-side
// view of the same run, from each server's own registry.
func printSessionServers(servers []*session.Server) {
	fmt.Println("per-node sessions:")
	fmt.Printf("  %-4s %9s %8s %8s %8s %9s %9s %9s %9s\n",
		"node", "opens", "active", "rejects", "grants", "timeouts", "expiries", "watchev", "invalid")
	for i, s := range servers {
		snap := s.Metrics().Snapshot()
		c := snap.Counters
		fmt.Printf("  %-4d %9d %8d %8d %8d %9d %9d %9d %9d\n",
			i, c["session_opens_total"], snap.Gauges["sessions_active"],
			c["session_rejects_total"], c["session_grants_total"],
			c["session_wait_timeouts_total"], c["session_expiries_total"],
			c["session_watch_events_total"], c["session_expiry_invalidations_total"])
	}
}

// jittered spreads d over [d/2, 3d/2) so cohorts of sessions don't move
// in lockstep.
func jittered(d time.Duration, rng *rand.Rand) time.Duration {
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rng.Int64N(int64(d)))
}

// sessionCode extracts the protocol response code from an error, or
// CodeOK when it isn't a code error.
func sessionCode(err error) session.Code {
	var ce *session.CodeError
	if errors.As(err, &ce) {
		return ce.Code
	}
	return session.CodeOK
}
