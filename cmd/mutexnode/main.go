// Command mutexnode runs one live lock-service node (a live.Manager)
// over TCP and drives a demo workload against it, printing each
// critical-section grant. Start N copies (one per node id) with the same
// -peers list and the same -keys; node 0 starts as the token holder and
// arbiter of every key.
//
// Example, three nodes on one machine:
//
//	mutexnode -id 0 -http :8080 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//	mutexnode -id 1 -http :8081 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//	mutexnode -id 2 -http :8082 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//
// Every node runs the paper's arbiter protocol (internal/core) with its
// §6 recovery; the baselines it is compared with run in the simulator
// (`mutexsim fig6`). Every connection's handshake and every frame is
// tagged with the algorithm and wire format, so a peer that speaks
// something else is rejected with a logged error instead of a garbage
// decode.
//
// The node serves -keys M named lock keys (lock-0 … lock-M-1; the
// default 1 is the single mutex, key lock-0): one independent DME group
// per key, all multiplexed over the node's single TCP endpoint via
// key-tagged frames. The demo workload round-robins -count acquisitions
// over the keys with -think pause between them, holds each for -hold,
// and prints a line per grant with its key and fencing token. With
// -count 0 the node only serves the protocol (a pure participant).
// -session additionally serves the client session protocol in front of
// the same locks; it changes nothing between peers.
//
// With -http the node serves its admin endpoints: /metrics (Prometheus
// text, per-key series labelled key="..."), /statusz (aggregate JSON;
// ?key=K for one key's state snapshot including the current role),
// /healthz, /debug/trace?key=K (recent protocol transitions as JSONL),
// /debug/requests, and /sessionz with -session. On shutdown every node —
// including a -count 0 pure participant — prints a per-kind message
// summary with the messages-per-CS ratio.
//
// With -chaos the node's outbound traffic passes through a seeded fault
// injector (drops, duplicates, corruption, delay, reordering — see
// internal/faultnet for the spec grammar). When -http is also set, the
// injector is live-tunable through /debug/faults: query it for the
// current fault state, or mutate it (`?drop=0.2`, `?partition=0,1|2`,
// `?heal`, `?clear`) to stage failures against a running cluster.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/faultnet"
	"tokenarbiter/internal/live"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/reqtrace"
	"tokenarbiter/internal/session"
	"tokenarbiter/internal/telemetry"
	"tokenarbiter/internal/transport"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mutexnode:", err)
		os.Exit(1)
	}
}

// nodeConfig is the parsed and validated flag set; parseFlags builds it
// so the validation rules are testable without running a cluster.
type nodeConfig struct {
	id        int
	addrs     map[dme.NodeID]string
	n         int
	keys      int
	count     int
	hold      time.Duration
	think     time.Duration
	linger    time.Duration
	treq      float64
	tfwd      float64
	monitor   bool
	recovery  bool
	httpAddr  string
	session   string
	verbose   bool
	chaos     string
	flightrec string
}

// parseFlags parses and validates the command line.
func parseFlags(args []string) (*nodeConfig, error) {
	fs := flag.NewFlagSet("mutexnode", flag.ContinueOnError)
	var (
		id        = fs.Int("id", 0, "this node's id (index into -peers)")
		peers     = fs.String("peers", "127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002", "comma-separated peer addresses, one per node id")
		keys      = fs.Int("keys", 1, "number of named lock keys to serve, lock-0 … lock-(keys-1) (1: a single mutex); every peer must match")
		count     = fs.Int("count", 10, "critical sections to execute (0: serve only)")
		hold      = fs.Duration("hold", 50*time.Millisecond, "time to hold the mutex per acquisition")
		think     = fs.Duration("think", 100*time.Millisecond, "pause between acquisitions")
		linger    = fs.Duration("linger", 3*time.Second, "keep serving the protocol after finishing -count acquisitions, so peers still queued behind this node are served without a §6 recovery round")
		treq      = fs.Float64("treq", 0.05, "core: request collection phase (seconds)")
		tfwd      = fs.Float64("tfwd", 0.05, "core: request forwarding phase (seconds)")
		monitor   = fs.Bool("monitor", false, "core: enable the starvation-free monitor variant")
		recovery  = fs.Bool("recovery", true, "core: enable the §6 failure recovery protocol")
		httpAddr  = fs.String("http", "", "admin endpoint address (e.g. :8080) serving /metrics, /statusz, /healthz, /debug/trace; empty disables")
		sessAddr  = fs.String("session", "", "serve the client session protocol (TTL leases, wait queues, watches) on this address (e.g. :7100)")
		verbose   = fs.Bool("v", false, "log protocol transitions (slog, stderr)")
		chaos     = fs.String("chaos", "", "inject faults into this node's outbound traffic, e.g. drop=0.05,dup=0.02,corrupt=0.01,delay=2ms,jitter=1ms,reorder=0.05,seed=7; live-tunable via /debug/faults when -http is set")
		flightrec = fs.String("flightrec", "", "write a flight-recorder capture (JSONL: every wire frame sent/received plus the lock lifecycle and protocol transitions) to this file; re-execute it with `mutexsim replay`")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	addrList := strings.Split(*peers, ",")
	n := len(addrList)
	if *id < 0 || *id >= n {
		return nil, fmt.Errorf("id %d outside peer list of %d", *id, n)
	}
	if *keys < 1 {
		return nil, fmt.Errorf("-keys %d: need at least one lock key", *keys)
	}
	addrs := make(map[dme.NodeID]string, n)
	for i, a := range addrList {
		addrs[i] = strings.TrimSpace(a)
	}

	return &nodeConfig{
		id: *id, addrs: addrs, n: n, keys: *keys,
		count: *count, hold: *hold, think: *think, linger: *linger,
		treq: *treq, tfwd: *tfwd, monitor: *monitor, recovery: *recovery,
		httpAddr: *httpAddr, session: *sessAddr, verbose: *verbose, chaos: *chaos,
		flightrec: *flightrec,
	}, nil
}

// buildFactory assembles the per-key protocol factory from the core
// flags (variant, recovery, phase tuning).
func buildFactory(cfg *nodeConfig) live.Factory {
	opts := core.Options{
		Treq:              cfg.treq,
		Tfwd:              cfg.tfwd,
		Monitor:           cfg.monitor,
		RetransmitTimeout: 2,
	}
	if cfg.monitor {
		opts.MonitorFlushTimeout = 5
	}
	if cfg.recovery {
		opts.Recovery = core.RecoveryOptions{
			Enabled:        true,
			TokenTimeout:   3,
			RoundTimeout:   1,
			ArbiterTimeout: 10,
			ProbeTimeout:   1,
		}
	}
	return registry.CoreLiveFactory(opts)
}

// keyName names the demo workload's lock keys: lock-0 … lock-M-1. Every
// peer derives the same names from its own -keys value.
func keyName(i int) string { return fmt.Sprintf("lock-%d", i) }

// run serves one node until its workload and -linger finish or ctx is
// cancelled (main cancels it on SIGINT/SIGTERM).
func run(ctx context.Context, args []string) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}

	var logger *slog.Logger
	if cfg.verbose {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}

	tcp, err := transport.NewTCPOpt(cfg.id, cfg.addrs, transport.TCPOptions{
		OnWireError: func(err error) {
			fmt.Fprintln(os.Stderr, "mutexnode:", err)
		},
	})
	if err != nil {
		return err
	}
	// One registry serves the protocol metrics and the transport tallies;
	// the counting layer is on by default so every node can report its
	// message volume (and the /metrics endpoint its per-kind counters).
	// With -chaos, the fault injector slots in below it — innermost, so
	// injected faults are indistinguishable from network behavior and the
	// counters still report what the protocol attempted to send. The
	// whole chain sits below the Manager's key demux, so both layers
	// observe the merged stream of every key.
	reg := telemetry.NewRegistry()
	var inj *faultnet.Injector
	if cfg.chaos != "" {
		spec, err := faultnet.ParseSpec(cfg.chaos)
		if err != nil {
			_ = tcp.Close()
			return fmt.Errorf("-chaos: %w", err)
		}
		inj = faultnet.New(faultnet.Options{
			Seed:   spec.Seed,
			Faults: spec.Faults,
			OnFault: func(err error) {
				fmt.Fprintln(os.Stderr, "mutexnode: chaos:", err)
			},
		})
		inj.RegisterMetrics(reg)
	}
	// The flight recorder sits outermost (it captures what the protocol
	// attempted, faults included but below it), followed by counting, with
	// the injector innermost as before.
	var frec *reqtrace.Recorder
	if cfg.flightrec != "" {
		frec, err = reqtrace.CreateRecorder(cfg.flightrec, registry.Core, cfg.n)
		if err != nil {
			_ = tcp.Close()
			return err
		}
		defer frec.Close() //nolint:errcheck // shutdown path
	}
	// Request tracing is always on for this demo binary: the collector is
	// cheap, and it lights up /debug/requests plus the trace-ID exemplars
	// on the wait/hold histograms.
	tracer := reqtrace.NewCollector(reqtrace.DefaultDepth)
	tr := transport.Chain(tcp, frec.Middleware(), transport.CountingMW(reg), faultMW(inj))
	ct, _ := transport.Find[*transport.Counting](tr)

	mgr, err := live.NewManager(live.ManagerConfig{
		ID: cfg.id, N: cfg.n, Transport: tr, Factory: buildFactory(cfg), Algo: registry.Core,
		Logger: logger, Metrics: reg, Tracer: tracer, FlightRec: frec,
	})
	if err != nil {
		_ = tcp.Close()
		return err
	}
	defer mgr.Close() //nolint:errcheck // shutdown path
	var ssrv *session.Server
	if cfg.session != "" {
		// The session server shares the node's registry, so /metrics
		// exposes the session_* counters alongside the protocol's.
		ssrv, err = session.NewServer(session.Config{
			Backend: mgr, Metrics: reg, Logger: logger,
		})
		if err != nil {
			return err
		}
		defer ssrv.Close() //nolint:errcheck // shutdown path
		sln, err := net.Listen("tcp", cfg.session)
		if err != nil {
			return err
		}
		go ssrv.Serve(sln) //nolint:errcheck // returns ErrServerClosed on shutdown
		fmt.Printf("node %d: session service on %s (TTL leases, wait queues, watches)\n",
			cfg.id, sln.Addr())
	}

	if cfg.httpAddr != "" {
		// One mux: the optional fault-injector control endpoint and the
		// session-layer status mount beside the Manager's own routes.
		mux := mgr.AdminHandler()
		endpoints := "/metrics /statusz /healthz /debug/trace /debug/requests"
		if inj != nil {
			mux.Handle("/debug/faults", inj.Handler())
			endpoints += " /debug/faults"
		}
		if ssrv != nil {
			mux.HandleFunc("/sessionz", ssrv.ServeSessionz)
			endpoints += " /sessionz"
		}
		srv := &http.Server{Addr: cfg.httpAddr, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "mutexnode: admin server:", err)
			}
		}()
		defer func() {
			shCtx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			_ = srv.Shutdown(shCtx)
		}()
		fmt.Printf("node %d: admin endpoints on %s (%s)\n", cfg.id, cfg.httpAddr, endpoints)
	}
	defer printSummary(cfg, mgr, ct, tcp, inj)
	if frec != nil {
		defer func() {
			records, dropped := frec.Totals()
			fmt.Printf("node %d: flight recorder: %d records (%d dropped) -> %s\n",
				cfg.id, records, dropped, cfg.flightrec)
		}()
	}

	fmt.Printf("node %d/%d listening on %s (algorithm %s, lock keys: %d, treq=%.3fs tfwd=%.3fs monitor=%v recovery=%v)\n",
		cfg.id, cfg.n, cfg.addrs[cfg.id], registry.Core, cfg.keys,
		cfg.treq, cfg.tfwd, cfg.monitor, cfg.recovery)

	if cfg.count == 0 {
		<-ctx.Done()
		return nil
	}
	if err := workload(ctx, cfg, mgr); err != nil {
		return err
	}
	if cfg.linger > 0 {
		select {
		case <-time.After(cfg.linger):
		case <-ctx.Done():
		}
	}
	return nil
}

// workload round-robins -count acquisitions over the node's lock keys
// (offset by the node id so the keys see staggered traffic from every
// node), printing each grant with its per-key fencing token.
func workload(ctx context.Context, cfg *nodeConfig, mgr *live.Manager) error {
	for i := 1; i <= cfg.count; i++ {
		key := keyName((cfg.id + i) % cfg.keys)
		fence, err := mgr.LockFence(ctx, key)
		if err != nil {
			return fmt.Errorf("lock %d (%s): %w", i, key, err)
		}
		fmt.Printf("node %d: acquired CS #%d key=%s fence=%d at %s\n",
			cfg.id, i, key, fence, time.Now().Format("15:04:05.000"))
		select {
		case <-time.After(cfg.hold):
		case <-ctx.Done():
		}
		mgr.Unlock(key)
		select {
		case <-time.After(cfg.think):
		case <-ctx.Done():
			return nil
		}
	}
	return nil
}

// faultMW adapts an optional injector to a Middleware; Chain skips the
// nil when -chaos is off.
func faultMW(inj *faultnet.Injector) transport.Middleware {
	if inj == nil {
		return nil
	}
	return inj.Middleware()
}

// printSummary is the shutdown report: aggregate grants, per-kind
// sent/received counts, payload units and wire bytes over the shared
// endpoint, one row per lock key from the key's own registry, and the
// local messages-per-CS ratio (which under a symmetric workload matches
// the cluster-wide figure the simulation reports).
func printSummary(cfg *nodeConfig, mgr *live.Manager, ct *transport.Counting, tcp *transport.TCPTransport, inj *faultnet.Injector) {
	granted, released := mgr.Stats()
	fmt.Printf("node %d: done (algorithm %s, %d keys, %d granted, %d released)\n",
		cfg.id, registry.Core, len(mgr.Keys()), granted, released)
	printTraffic(cfg.id, mgr.Metrics(), ct)
	printWireAndChaos(cfg.id, tcp, inj)
	printKinds(cfg.id, ct)
	for _, ks := range mgr.KeyStats() {
		fmt.Printf("node %d:   key %-12s granted=%-5d sent=%-6d received=%-6d wait-p99=%.1fms\n",
			cfg.id, ks.Key, ks.Granted, ks.MsgsSent, ks.MsgsRecv, ks.WaitP99*1000)
	}
	printPerCS(cfg.id, granted, ct)
}

func printTraffic(id int, reg *telemetry.Registry, ct *transport.Counting) {
	sent, received := ct.Totals()
	sentU, recvU := ct.UnitTotals()
	fmt.Printf("node %d: messages sent=%d received=%d units sent=%d received=%d",
		id, sent, received, sentU, recvU)
	if snap := reg.Snapshot(); snap.Counters["transport_wire_bytes_sent_total"] > 0 {
		fmt.Printf(" wire bytes sent=%d received=%d",
			snap.Counters["transport_wire_bytes_sent_total"],
			snap.Counters["transport_wire_bytes_received_total"])
	}
	fmt.Println()
}

func printWireAndChaos(id int, tcp *transport.TCPTransport, inj *faultnet.Injector) {
	if mism, dec := tcp.WireErrors(); mism > 0 || dec > 0 {
		fmt.Printf("node %d: WIRE ERRORS: %d algorithm/version mismatches, %d undecodable payloads (is every peer a mutexnode of this build's wire format?)\n",
			id, mism, dec)
	}
	if inj != nil {
		c := inj.Counters()
		fmt.Printf("node %d: chaos: dropped=%d duplicated=%d corrupted=%d delayed=%d reordered=%d partition-dropped=%d\n",
			id, c.Drops, c.Dups, c.Corruptions, c.Delayed, c.Reordered, c.PartitionDrops)
	}
}

func printKinds(id int, ct *transport.Counting) {
	byKind := ct.SentByKind()
	inKind := ct.ReceivedByKind()
	kinds := make(map[string]struct{}, len(byKind)+len(inKind))
	for k := range byKind {
		kinds[k] = struct{}{}
	}
	for k := range inKind {
		kinds[k] = struct{}{}
	}
	sorted := make([]string, 0, len(kinds))
	for k := range kinds {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		fmt.Printf("node %d:   %-14s sent=%-6d received=%d\n", id, k, byKind[k], inKind[k])
	}
}

func printPerCS(id int, granted uint64, ct *transport.Counting) {
	if granted == 0 {
		return
	}
	sent, received := ct.Totals()
	fmt.Printf("node %d: messages per CS: %.2f sent, %.2f incl. received\n",
		id, float64(sent)/float64(granted),
		float64(sent+received)/float64(granted))
}
