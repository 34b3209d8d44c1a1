package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tokenarbiter/internal/faultnet"
	"tokenarbiter/internal/reqtrace"
	"tokenarbiter/internal/session"
	"tokenarbiter/internal/telemetry"
)

// liveSpec is the shape of one live workload: which session servers the
// two client connections go to, how many sessions ride each, which key
// each session loops on, and whether load is closed-loop, open-loop, or
// closed-loop with injected token loss.
type liveSpec struct {
	name     string
	connNode [clientConns]int
	sessions int // per connection, ≤ maxSessionsPerConn
	// perSessionKeys gives session j of each connection its own key
	// k<j>; otherwise every session loops on k0.
	perSessionKeys bool
	open           bool // seeded Poisson arrivals at openRate instead of a closed loop
	loss           bool // drop one PRIVILEGE per part of the window
}

var liveSpecs = []liveSpec{
	{name: wlLocal1Key, connNode: [clientConns]int{0, 0}, sessions: 1},
	{name: wlHop1Key, connNode: [clientConns]int{0, 1}, sessions: 1},
	{name: wlHop4Key, connNode: [clientConns]int{0, 1}, sessions: maxSessionsPerConn, perSessionKeys: true},
	{name: wlOpenLight, connNode: [clientConns]int{0, 1}, sessions: maxSessionsPerConn, open: true},
	{name: wlTokenLoss, connNode: [clientConns]int{0, 1}, sessions: 1, loss: true},
}

func liveSpecByName(name string) (liveSpec, bool) {
	for _, s := range liveSpecs {
		if s.name == name {
			return s, true
		}
	}
	return liveSpec{}, false
}

func (s liveSpec) key(session int) string {
	if s.perSessionKeys {
		return fmt.Sprintf("k%d", session)
	}
	return "k0"
}

// snapshot is every counter the bench reads at a window edge. Each is
// read through a layer's public surface; rates are differences of two
// snapshots.
type snapshot struct {
	at        int64
	cpu       time.Duration // getrusage user+sys, whole process
	mallocs   uint64
	gcCPU     float64 // seconds
	sent      uint64  // inter-node protocol messages (Counting)
	byKind    map[string]uint64
	wireBytes uint64
	frames    uint64
	flushes   uint64
	wireErrs  uint64
	core      map[string]uint64
	batchSum  float64
	batchN    uint64
	sessReqs  uint64 // client requests the session servers counted
	drops     uint64
	steal     uint64 // hypervisor steal, clock ticks over all CPUs
	sched     *metrics.Float64Histogram
}

// coreCounters are the per-key protocol counters summed over keys and
// nodes.
var coreCounters = []string{
	"dispatches_total", "token_passes_total", "requests_forwarded_total",
	"requests_retransmitted_total", "requests_dropped_total",
	"recovery_invalidations_total", "recovery_regenerations_total", "recovery_resolved_total",
}

// sessionRequestCounters count the client frames a session server
// answered inside a window; each got one reply frame.
var sessionRequestCounters = []string{
	"session_acquires_total", "session_releases_total", "session_renewals_total",
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks is the time the hypervisor ran something else while a
// virtual CPU of this machine had work, in clock ticks summed over CPUs:
// the eighth value of /proc/stat's first line. It reads 0 where there is
// no such file or no hypervisor.
func stealTicks() uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	if f := strings.Fields(line); len(f) > 8 && f[0] == "cpu" {
		ticks, _ := strconv.ParseUint(f[8], 10, 64) // malformed reads as no steal
		return ticks
	}
	return 0
}

const (
	rtGCCPU   = "/cpu/classes/gc/total:cpu-seconds"
	rtHeap    = "/memory/classes/heap/objects:bytes"
	rtSchedLa = "/sched/latencies:seconds"
)

// runtimeSample reads the Go runtime's own view of the process.
func runtimeSample() (gcCPU float64, heapBytes uint64, sched *metrics.Float64Histogram) {
	s := []metrics.Sample{{Name: rtGCCPU}, {Name: rtHeap}, {Name: rtSchedLa}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		heapBytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[2].Value.Float64Histogram()
		sched = &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}
	}
	return gcCPU, heapBytes, sched
}

// schedP99 is the 99th percentile of the scheduler latencies recorded
// between two samples, in seconds.
func schedP99(before, after *metrics.Float64Histogram) float64 {
	if before == nil || after == nil || len(before.Counts) != len(after.Counts) {
		return 0
	}
	var total uint64
	for i := range after.Counts {
		total += after.Counts[i] - before.Counts[i]
	}
	var cum uint64
	for i := range after.Counts {
		cum += after.Counts[i] - before.Counts[i]
		if total > 0 && float64(cum) >= 0.99*float64(total) {
			return after.Buckets[i+1]
		}
	}
	return 0
}

func (c *cluster) snapshot() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := snapshot{
		at: now(), cpu: processCPU(), mallocs: ms.Mallocs, steal: stealTicks(),
		byKind: make(map[string]uint64), core: make(map[string]uint64),
	}
	s.gcCPU, _, s.sched = runtimeSample()
	for _, n := range c.nodes {
		sent, _ := n.counting.Totals()
		s.sent += sent
		for k, v := range n.counting.SentByKind() {
			s.byKind[k] += v
		}
		wb, _ := n.tcp.WireBytes()
		s.wireBytes += wb
		fr, fl := n.tcp.CoalesceStats()
		s.frames += fr
		s.flushes += fl
		mm, de := n.tcp.WireErrors()
		s.wireErrs += mm + de
		for _, key := range n.mgr.Keys() {
			reg := n.mgr.Registry(key)
			if reg == nil {
				continue
			}
			snap := reg.Snapshot()
			for _, name := range coreCounters {
				s.core[name] += snap.Counters[name]
			}
			if h, ok := snap.Histograms["qlist_batch_size"]; ok {
				s.batchSum += h.Sum
				s.batchN += h.Count
			}
		}
		sc := n.srv.Metrics().Snapshot().Counters
		for _, name := range sessionRequestCounters {
			s.sessReqs += sc[name]
		}
	}
	if c.faults != nil {
		s.drops = c.faults.Counters().Drops
	}
	return s
}

// passKind selects what a pass over a live workload adds to the plain
// stack.
type passKind int

const (
	passPlain    passKind = iota // the measured pass: nothing added
	passSpans                    // bench-owned span wrappers installed
	passReqtrace                 // the program's own request tracer on
)

// liveOpts is one pass's parameters.
type liveOpts struct {
	seed   uint64
	warm   time.Duration
	window time.Duration
	kind   passKind
}

// parts is how many parts of about partLen the window is cut into.
func (o liveOpts) parts() int { return max(1, int(o.window/partLen)) }

// liveRun is everything one pass over a live workload observed.
type liveRun struct {
	spec     liveSpec
	snaps    []snapshot // the edges of the measured window's parts
	ws       windowStats
	samples  []sample // every completed cycle, warm-up included
	failures []int64
	late     []lateness // open loop: generator lateness per arrival
	// token_loss: drop → next grant per injection, ns; lossGrace when no
	// grant came.
	outages   []int64
	handoff   telemetry.HistogramSnapshot // cluster life, all nodes
	sessWait  telemetry.HistogramSnapshot
	heapBytes uint64
	oracleErr error
	spans     []span
}

// liveHarness is a built cluster with its sessions open and every key
// granted once: the state setup_s times the way to.
type liveHarness struct {
	spec    liveSpec
	cluster *cluster
	gen     *loadgen
	feeds   []chan int64
}

// setupLive builds the stack for spec and drives one grant through every
// key, so lazily created per-key state exists before anything is timed.
func setupLive(spec liveSpec, o liveOpts) (*liveHarness, error) {
	co := clusterOpts{seed: o.seed}
	if spec.loss {
		co.faults = faultnet.New(faultnet.Options{Seed: o.seed})
	}
	switch o.kind {
	case passSpans:
		co.spans = newSpanRecorder()
	case passReqtrace:
		co.tracer = reqtrace.NewCollector(reqtrace.DefaultDepth)
	}
	c, err := newCluster(co)
	if err != nil {
		return nil, err
	}
	h := &liveHarness{spec: spec, cluster: c, gen: newLoadgen(co.spans)}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, node := range spec.connNode {
		sessions, err := c.dial(ctx, node, spec.sessions)
		if err != nil {
			c.close()
			return nil, err
		}
		var feed chan int64
		if spec.open {
			// Sized to hold twice a whole run's expected arrivals, so
			// the generator never blocks behind a busy connection.
			feed = make(chan int64, int(2*openRate*(o.warm+o.window+time.Second).Seconds()))
			h.feeds = append(h.feeds, feed)
		}
		for j, s := range sessions {
			h.gen.add(s, node, spec.key(j), feed)
		}
	}
	seen := map[string]bool{}
	for _, w := range h.gen.workers {
		if seen[w.key] {
			continue
		}
		seen[w.key] = true
		if err := firstGrant(ctx, h.gen.oracle, w.sess, w.key); err != nil {
			c.close()
			return nil, fmt.Errorf("first grant on %s: %w", w.key, err)
		}
	}
	return h, nil
}

func firstGrant(ctx context.Context, o *oracle, s *session.Session, key string) error {
	fence, err := s.Acquire(ctx, key)
	if err != nil {
		return err
	}
	o.enter(key, fence)
	o.exit(key)
	return s.Release(key)
}

func (h *liveHarness) close() { h.cluster.close() }

// measure runs warm-up then the measured window on a set-up harness and
// tears it down.
func (h *liveHarness) measure(o liveOpts) *liveRun {
	defer h.close()
	run := &liveRun{spec: h.spec}
	g, c := h.gen, h.cluster
	// window takes the edge snapshots: one at the start of the measured
	// window and one at the end of each of its parts.
	parts := o.parts()
	window := func() {
		if g.spans != nil {
			g.spans.on.Store(true)
		}
		run.snaps = append(run.snaps, c.snapshot())
		start := run.snaps[0].at
		for k := 1; k <= parts; k++ {
			time.Sleep(time.Duration(start + int64(o.window)*int64(k)/int64(parts) - now()))
			run.snaps = append(run.snaps, c.snapshot())
		}
		if g.spans != nil {
			g.spans.on.Store(false)
		}
	}
	if h.spec.open {
		rng := rand.New(rand.NewPCG(o.seed, 0x09e41))
		// A little more load than the window needs keeps arrivals coming
		// while the last edge snapshot is taken.
		offsets, conn := poissonSchedule(rng, openRate, o.warm+o.window+100*time.Millisecond, len(h.feeds))
		t0 := now()
		edges := make(chan struct{})
		go func() {
			defer close(edges)
			time.Sleep(o.warm)
			window()
		}()
		run.late = g.runOpen(h.feeds, t0, offsets, conn)
		<-edges
	} else {
		g.startClosed()
		time.Sleep(o.warm)
		injected := make(chan struct{})
		go func() {
			defer close(injected)
			if h.spec.loss {
				run.outages = injectLoss(g, c.faults, o.window, parts)
			}
		}()
		window()
		<-injected
		g.stop()
	}
	run.samples, run.failures = g.collect()
	run.ws = run.computeWindow()
	run.oracleErr = g.oracle.verdict()
	var handoff, sessWait []telemetry.HistogramSnapshot
	for _, n := range c.nodes {
		handoff = append(handoff, n.mgr.MergedHistogram("handoff_latency_seconds"))
		if hs, ok := n.srv.Metrics().Snapshot().Histograms["session_acquire_wait_seconds"]; ok {
			sessWait = append(sessWait, hs)
		}
	}
	run.handoff = telemetry.MergeHistograms(handoff...)
	run.sessWait = telemetry.MergeHistograms(sessWait...)
	_, run.heapBytes, _ = runtimeSample()
	if g.spans != nil {
		run.spans = g.spans.take()
	}
	return run
}

// injectLoss drops one PRIVILEGE in every part of the window, a seventh
// of the way in, and times how long the cluster then goes without a
// grant. Clients keep requesting throughout.
func injectLoss(g *loadgen, inj *faultnet.Injector, window time.Duration, parts int) (outages []int64) {
	start, part := now(), int64(window)/int64(parts)
	for i := int64(0); i < int64(parts); i++ {
		time.Sleep(time.Duration(start + i*part + part/7 - now()))
		before, asked := inj.Counters().Drops, now()
		inj.DropNextKind("PRIVILEGE", 1)
		for inj.Counters().Drops == before && now()-asked < int64(lossGrace) {
			time.Sleep(50 * time.Microsecond)
		}
		dropped := now()
		g.firstGrant.Store(0)
		g.armedAt.Store(dropped)
		for g.firstGrant.Load() == 0 && now()-dropped < int64(lossGrace) {
			time.Sleep(200 * time.Microsecond)
		}
		g.armedAt.Store(0)
		if fg := g.firstGrant.Load(); fg != 0 {
			outages = append(outages, fg-dropped)
		} else {
			outages = append(outages, int64(lossGrace))
		}
	}
	return outages
}

// runLive sets a workload up, measures one pass and tears it down.
func runLive(spec liveSpec, o liveOpts) (*liveRun, error) {
	h, err := setupLive(spec, o)
	if err != nil {
		return nil, err
	}
	return h.measure(o), nil
}
