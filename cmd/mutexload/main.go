// Command mutexload drives a live distributed-mutex cluster under load
// and reports acquisition-latency percentiles, throughput and messages
// per critical section — the operational counterpart of the simulation
// experiments, measured on the real runtime (goroutines + timers) over
// an in-memory or loopback-TCP transport. Every node runs the paper's
// arbiter protocol; its comparison with the baselines is the simulator's
// (`mutexsim fig6`):
//
//	mutexload -nodes 5 -duration 5s -rate 200
//	mutexload -transport tcp -nodes 3 -duration 3s -hold 2ms
//	mutexload -nodes 5 -duration 10s -chaos drop=0.05,dup=0.02,corrupt=0.01,seed=7
//
// -keys M load-tests the multi-key lock service: every node runs
// a live.Manager serving M named lock keys over its single endpoint, and
// the worker pool is spread across the keys (worker g drives key g mod
// M), so the report shows how aggregate throughput scales with key count
// at a fixed worker count:
//
//	mutexload -nodes 3 -keys 1 -workers 8 -rate 0 -duration 5s
//	mutexload -nodes 3 -keys 8 -workers 8 -rate 0 -duration 5s
//
// -workers sets the worker goroutines per node (default 1, the classic
// single-mutex workload), and -rate 0 runs them closed-loop — the
// configuration that exposes the single-key serialization ceiling
// (aggregate cs/sec ≈ 1/hold) that independent lock keys lift. The end of
// the run prints aggregate plus per-key throughput and messages/CS.
//
// -chaos threads every node's outbound traffic through a shared, seeded
// fault injector (internal/faultnet), on either transport, and reports
// the injected-fault tallies at the end — measuring how the protocol's
// recovery holds latency under a reproducible fault mix. It
// is the one way to inject loss (drop=P).
//
// mutexload explores a configuration by hand. A number worth quoting
// comes from the benchmark in bench/ (declared by BENCHMARK.json), which
// drives the same stack through the session tier with measured noise.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tokenarbiter/internal/cluster"
	"tokenarbiter/internal/core"
	"tokenarbiter/internal/faultnet"
	"tokenarbiter/internal/live"
	"tokenarbiter/internal/reqtrace"
	"tokenarbiter/internal/stats"
	"tokenarbiter/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mutexload:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mutexload", flag.ContinueOnError)
	var (
		nodes     = fs.Int("nodes", 5, "cluster size")
		trans     = fs.String("transport", "mem", "transport: mem or tcp")
		keys      = fs.Int("keys", 1, "named lock keys served per node (1: classic single mutex; >1: the multi-key service)")
		workers   = fs.Int("workers", 1, "worker goroutines per node, spread round-robin across the keys")
		duration  = fs.Duration("duration", 5*time.Second, "measurement duration")
		rate      = fs.Float64("rate", 200, "aggregate lock attempts per second (0 = closed loop)")
		hold      = fs.Duration("hold", time.Millisecond, "critical-section hold time")
		treq      = fs.Float64("treq", 0.002, "request collection phase (seconds)")
		tfwd      = fs.Float64("tfwd", 0.002, "request forwarding phase (seconds)")
		monitor   = fs.Bool("monitor", false, "enable the §4.1 starvation-free variant")
		recover   = fs.Bool("recovery", true, "enable the §6 recovery protocol")
		netDelay  = fs.Duration("netdelay", 200*time.Microsecond, "in-memory network one-way delay")
		chaosStr  = fs.String("chaos", "", "fault-injection spec applied to every node's outbound traffic, e.g. drop=0.05,dup=0.02,corrupt=0.01,delay=1ms,seed=7 (requires -recovery)")
		perNodeS  = fs.Bool("pernode", true, "print a per-node metrics summary at the end of the run")
		flightrec = fs.String("flightrec", "", "write one flight-recorder capture (JSONL) of the whole cluster's traffic, lock lifecycle and protocol transitions to this file; re-execute it with `mutexsim replay`")
		slowN     = fs.Int("slowest", 3, "end-of-run: print the per-phase breakdown of this many slowest traced acquisitions (0 disables)")

		sessionsN   = fs.Int("sessions", 0, "session mode: sustain this many concurrent TTL-leased sessions against per-node session servers instead of driving the lock API directly (0 = classic worker mode)")
		connsN      = fs.Int("conns", 8, "session mode: shared client connections per node; sessions are spread round-robin across them")
		ttl         = fs.Duration("ttl", 10*time.Second, "session mode: lease TTL (auto-keepalive renews)")
		wait        = fs.Duration("wait", 2*time.Second, "session mode: server-side acquire wait bound (past it the server answers timeout)")
		think       = fs.Duration("think", 50*time.Millisecond, "session mode: per-session pause between operations (jittered)")
		maxSessions = fs.Int("maxsessions", 0, "session mode: per-node admission bound on concurrent sessions (0 = unlimited)")
		maxWaiters  = fs.Int("maxwaiters", 256, "session mode: per-key wait-queue bound; acquires beyond it are refused with overloaded (0 = unlimited)")
	)
	// -loss dropped messages on the mem transport only and was silently
	// ignored over tcp; -chaos is the one spelling of drop probability.
	fs.Func("loss", "removed: use -chaos drop=P", func(string) error {
		return errors.New("removed; use -chaos drop=P, which works on both transports")
	})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nodes < 1 {
		return fmt.Errorf("need at least one node")
	}
	if *keys < 1 {
		return fmt.Errorf("-keys %d: need at least one lock key", *keys)
	}
	if *workers < 1 {
		return fmt.Errorf("-workers %d: need at least one worker per node", *workers)
	}
	if *sessionsN < 0 {
		return fmt.Errorf("-sessions %d: cannot be negative", *sessionsN)
	}
	if *sessionsN > 0 && *connsN < 1 {
		return fmt.Errorf("-conns %d: need at least one connection per node", *connsN)
	}

	opts := core.Options{
		Treq:              *treq,
		Tfwd:              *tfwd,
		Monitor:           *monitor,
		RetransmitTimeout: 1,
	}
	if *monitor {
		opts.MonitorFlushTimeout = 2
	}
	if *recover {
		opts.Recovery = core.RecoveryOptions{
			Enabled:        true,
			TokenTimeout:   1,
			RoundTimeout:   0.25,
			ArbiterTimeout: 3,
			ProbeTimeout:   0.25,
		}
	}
	keyNames := make([]string, *keys)
	for k := range keyNames {
		keyNames[k] = fmt.Sprintf("lock-%d", k)
	}
	totalWorkers := *nodes * *workers

	// One shared injector covers every node's outbound link, so a single
	// seed reproduces the whole cluster's fault schedule.
	var inj *faultnet.Injector
	if *chaosStr != "" {
		spec, err := faultnet.ParseSpec(*chaosStr)
		if err != nil {
			return fmt.Errorf("-chaos: %w", err)
		}
		inj = faultnet.New(faultnet.Options{Seed: spec.Seed, Faults: spec.Faults})
	}

	// One shared collector and (with -flightrec) one shared flight
	// recorder serve every node: spans from all the nodes a request
	// crossed land in one place, and a single capture file holds the whole
	// cluster's timeline — exactly what `mutexsim replay` needs. The
	// counting layer under every Manager feeds the end-of-run summary.
	tracer := reqtrace.NewCollector(reqtrace.DefaultDepth)
	ccfg := cluster.Config{
		N: *nodes, Core: opts, Transport: *trans,
		Mem:     transport.MemOptions{Delay: *netDelay},
		Faults:  inj,
		Manager: func(_ int, cfg *live.ManagerConfig) { cfg.Tracer = tracer },
		Capture: *flightrec,
	}
	slc := sessionLoadConfig{
		sessions:    *sessionsN,
		conns:       *connsN,
		ttl:         *ttl,
		wait:        *wait,
		think:       *think,
		hold:        *hold,
		maxSessions: *maxSessions,
		maxWaiters:  *maxWaiters,
		duration:    *duration,
		keys:        keyNames,
	}
	if *sessionsN > 0 {
		ccfg.Sessions, ccfg.Server = "tcp", slc.server(*nodes)
	}
	cl, err := cluster.New(ccfg)
	if err != nil {
		return err
	}
	// `mutexsim replay` judges a -flightrec capture; the verdict Close
	// returns is not this report's.
	defer cl.Close() //nolint:errcheck // shutdown path

	if *sessionsN > 0 {
		fmt.Printf("cluster: %d nodes over %s, keys=%d, sessions=%d, conns=%d/node, ttl=%v, wait=%v, think=%v, hold=%v, duration=%v, maxsessions=%d maxwaiters=%d chaos=%q\n",
			*nodes, *trans, *keys, *sessionsN, *connsN, *ttl, *wait, *think, *hold, *duration, *maxSessions, *maxWaiters, *chaosStr)
		err := runSessionLoad(cl, slc)
		if *perNodeS {
			printPerNode(cl.Managers, cl.Counters)
		}
		if cl.Recorder != nil {
			records, dropped := cl.Recorder.Totals()
			fmt.Printf("flight recorder: %d records (%d dropped) -> %s\n", records, dropped, *flightrec)
		}
		if inj != nil {
			c := inj.Counters()
			fmt.Printf("chaos: dropped=%d duplicated=%d corrupted=%d delayed=%d reordered=%d\n",
				c.Drops, c.Dups, c.Corruptions, c.Delayed, c.Reordered)
		}
		return err
	}

	fmt.Printf("cluster: %d nodes over %s, keys=%d, workers=%d/node, rate=%.0f/s, hold=%v, duration=%v, monitor=%v recovery=%v chaos=%q\n",
		*nodes, *trans, *keys, *workers, *rate, *hold, *duration, *monitor, *recover, *chaosStr)

	ctx, cancel := context.WithTimeout(context.Background(), *duration+30*time.Second)
	defer cancel()

	var (
		mu        sync.Mutex
		latencies []float64
		perKey    = make(map[string]int)
		lat       stats.Welford
		attempts  atomic.Int64
		errs      atomic.Int64
		stop      = make(chan struct{})
		wg        sync.WaitGroup
	)
	perWorker := *rate / float64(totalWorkers)
	for i, m := range cl.Managers {
		for w := 0; w < *workers; w++ {
			g := i**workers + w // global worker index
			key := keyNames[g%*keys]
			wg.Add(1)
			go func(m *live.Manager, key string, seed uint64) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(seed, seed^0x42))
				acquired := 0
				defer func() {
					mu.Lock()
					perKey[key] += acquired
					mu.Unlock()
				}()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if perWorker > 0 {
						gap := time.Duration(rng.ExpFloat64() / perWorker * float64(time.Second))
						select {
						case <-time.After(gap):
						case <-stop:
							return
						}
					}
					attempts.Add(1)
					start := time.Now()
					if err := m.Lock(ctx, key); err != nil {
						errs.Add(1)
						return
					}
					l := time.Since(start).Seconds()
					mu.Lock()
					latencies = append(latencies, l)
					lat.Add(l) // Welford state is not thread-safe; share mu with latencies
					mu.Unlock()
					acquired++
					time.Sleep(*hold)
					m.Unlock(key)
				}
			}(m, key, uint64(g+1))
		}
	}

	time.Sleep(*duration)
	close(stop)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(latencies) == 0 {
		return fmt.Errorf("no acquisitions completed (errors: %d)", errs.Load())
	}
	sort.Float64s(latencies)
	pct := func(p float64) float64 {
		i := int(p * float64(len(latencies)-1))
		return latencies[i] * 1000
	}
	var sent uint64
	for _, c := range cl.Counters {
		s, _ := c.Totals()
		sent += s
	}
	n := len(latencies)
	fmt.Printf("acquisitions: %d (%.0f/sec aggregate over %d keys), errors: %d\n",
		n, float64(n)/duration.Seconds(), *keys, errs.Load())
	fmt.Printf("latency ms: p50=%.2f p90=%.2f p99=%.2f max=%.2f mean=%.2f\n",
		pct(0.50), pct(0.90), pct(0.99), latencies[n-1]*1000, lat.Mean()*1000)
	if *keys > 1 {
		printPerKey(cl.Managers, keyNames, perKey, duration.Seconds())
	}
	if *perNodeS {
		printPerNode(cl.Managers, cl.Counters)
	}
	if *slowN > 0 {
		printSlowest(tracer, *slowN)
	}
	// The message-complexity footer: the live counterpart of the
	// simulator's messages per CS at matched parameters.
	fmt.Printf("keys=%d: %.2f messages per CS (%d messages, %d critical sections, %d nodes)\n",
		*keys, float64(sent)/float64(n), sent, n, *nodes)
	if cl.Recorder != nil {
		records, dropped := cl.Recorder.Totals()
		fmt.Printf("flight recorder: %d records (%d dropped) -> %s\n", records, dropped, *flightrec)
	}
	if inj != nil {
		c := inj.Counters()
		fmt.Printf("chaos: dropped=%d duplicated=%d corrupted=%d delayed=%d reordered=%d\n",
			c.Drops, c.Dups, c.Corruptions, c.Delayed, c.Reordered)
	}
	return nil
}

// printPerKey reports each key's slice of the aggregate: acquisitions
// and throughput from the workers' own tallies, messages per CS from the
// key's registries summed across every node's manager (each key is an
// independent DME group, so its message complexity stands alone).
func printPerKey(mgrs []*live.Manager, keyNames []string, perKey map[string]int, seconds float64) {
	fmt.Println("per-key:")
	fmt.Printf("  %-10s %12s %10s %12s\n", "key", "acquired", "cs/sec", "msgs/CS")
	for _, key := range keyNames {
		var sent, granted uint64
		for _, m := range mgrs {
			reg := m.Registry(key)
			if reg == nil {
				continue
			}
			snap := reg.Snapshot()
			granted += snap.Counters["cs_granted_total"]
			for _, v := range snap.Kinds["transport_sent_total"] {
				sent += v
			}
		}
		msgsPerCS := 0.0
		if granted > 0 {
			msgsPerCS = float64(sent) / float64(granted)
		}
		fmt.Printf("  %-10s %12d %10.0f %12.2f\n",
			key, perKey[key], float64(perKey[key])/seconds, msgsPerCS)
	}
}

// printSlowest reports the slowest completed acquisitions by lock-wait
// time with their end-to-end trace IDs and per-phase breakdown — which
// node asked, when the batch accepted it, every token hop, the grant
// fence — so a P99 outlier in the latency line above can be explained
// request by request.
func printSlowest(c *reqtrace.Collector, n int) {
	slow := c.Slowest(n)
	if len(slow) == 0 {
		return
	}
	fmt.Printf("slowest acquisitions (of %d traced):\n", len(c.Completed()))
	for _, t := range slow {
		s := t.Summarize()
		key := s.Key
		if key == "" {
			key = "-"
		}
		fmt.Printf("  trace %-12s key=%-10s wait=%8.2fms hold=%6.2fms hops=%d fence=%d\n",
			s.ID, key, s.Wait*1000, s.Hold*1000, s.Hops, s.Fence)
		for _, st := range s.Steps {
			peer := ""
			if st.Peer >= 0 && st.Peer != st.Node {
				peer = fmt.Sprintf(" -> node %d", st.Peer)
			}
			fmt.Printf("    +%9.2fms  %-16s node %d%s (Δ%.2fms)\n",
				(st.At-s.Start)*1000, st.Phase, st.Node, peer, st.Delta*1000)
		}
	}
}

// printPerNode scrapes each node's per-key telemetry registries and
// prints the live counterparts of the simulation observables summed over
// the node's keys: grants, token passes, dispatches, lock-wait
// percentiles (merged across keys) and the node's message traffic.
func printPerNode(mgrs []*live.Manager, counters []*transport.Counting) {
	fmt.Println("per-node metrics:")
	fmt.Printf("  %-4s %8s %8s %8s %8s %12s %12s %10s %10s\n",
		"node", "grants", "tokpass", "dispatch", "retx", "wait-p50-ms", "wait-p99-ms", "sent", "recv")
	for i, m := range mgrs {
		wait := m.MergedHistogram("lock_wait_seconds")
		sent, recv := counters[i].Totals()
		fmt.Printf("  %-4d %8d %8d %8d %8d %12.2f %12.2f %10d %10d\n",
			i,
			m.SumCounter("cs_granted_total"),
			m.SumCounter("token_passes_total"),
			m.SumCounter("dispatches_total"),
			m.SumCounter("requests_retransmitted_total"),
			wait.P50*1000, wait.P99*1000,
			sent, recv)
	}
}
