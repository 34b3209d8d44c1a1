package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"
)

// metricValue is one published number. N is the number of samples behind
// a timing, or of critical sections behind a per-CS rate; 0 where the
// value is a plain count or a configured constant.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metricSet collects metrics against one definition list, so a value
// can only be published under a declared name and always carries the
// declared unit.
type metricSet struct {
	defs   []metricDef
	values map[string]metricValue
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]metricValue, len(defs))}
}

func (m *metricSet) set(name string, v float64, n int) {
	d, ok := findDef(m.defs, name)
	if !ok {
		panic("bench: metric " + name + " is not declared in defs.go")
	}
	m.values[name] = metricValue{Value: v, Unit: d.Unit, N: n}
}

// merge copies every value of o into m.
func (m *metricSet) merge(o *metricSet) {
	for k, v := range o.values {
		m.values[k] = v
	}
}

// complete gives every declared metric the set does not hold the value
// 0: the layer did no work on this workload.
func (m *metricSet) complete() map[string]metricValue {
	for _, d := range m.defs {
		if _, ok := m.values[d.Name]; !ok {
			m.values[d.Name] = metricValue{Unit: d.Unit}
		}
	}
	return m.values
}

// windowStats is the per-part view of one measured window.
//
// Steal is the hypervisor running someone else while this machine's
// CPUs had work: it slows whatever is measured by an amount that says
// nothing about the program, and on the reference VM it moves between 0
// and 40% from minute to minute. Both ways a window is reduced to one
// number use each part's steal and never the measured values, so the
// reduction is blind to the outcome. A rate (per second, per CS) falls
// about linearly with steal and is fitted to zero steal (fit). A
// percentile is flat until steal reaches the share of acquires above
// it, then jumps, so it is taken over the parts the host disturbed
// least (quietLats).
type windowStats struct {
	lats  [][]int64 // sorted latencies of the cycles granted in each part
	steal []float64 // the share of each part's CPU time the host took
	total int       // cycles granted anywhere in the window
	quiet []int     // the third of the parts with the least steal, ties included
	// quietLats is every latency of the quiet parts, sorted.
	quietLats []int64
}

func (r *liveRun) parts() int   { return len(r.snaps) - 1 }
func (r *liveRun) start() int64 { return r.snaps[0].at }
func (r *liveRun) end() int64   { return r.snaps[r.parts()].at }

// computeWindow sorts the run's cycles into the window's parts; measure
// calls it once the run is over.
func (r *liveRun) computeWindow() windowStats {
	n := r.parts()
	ws := windowStats{lats: make([][]int64, n), steal: make([]float64, n)}
	for _, s := range r.samples {
		k := sort.Search(n, func(k int) bool { return r.snaps[k+1].at > s.done })
		if k < n && s.done >= r.start() {
			ws.lats[k] = append(ws.lats[k], s.lat)
			ws.total++
		}
	}
	for k := range ws.lats {
		slices.Sort(ws.lats[k])
		a, b := r.snaps[k], r.snaps[k+1]
		ws.steal[k] = ratio(float64(b.steal-a.steal)/clockTicksPerSecond, float64(b.at-a.at)/1e9*float64(runtime.NumCPU()))
	}
	limit := sortedCopy(ws.steal)[(n-1)/3]
	for k, s := range ws.steal {
		if s <= limit {
			ws.quiet = append(ws.quiet, k)
			ws.quietLats = append(ws.quietLats, ws.lats[k]...)
		}
	}
	slices.Sort(ws.quietLats)
	return ws
}

// atZeroSteal fits y = a + b·x by least squares, x being each part's
// steal share and y a rate measured on that part, and returns a: what
// the rate reads with the host taking nothing. In one run whose parts
// lost 13% to 41% the fit put hop_1key at 2,669 cs/s where undisturbed
// runs read 2,723 and 2,737, and the plain average read 1,786. With no
// spread in steal (a host without a hypervisor) the fit is the mean.
func atZeroSteal(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	d := n*sxx - sx*sx
	if d == 0 {
		return ratio(sy, n)
	}
	b := (n*sxy - sx*sy) / d
	return (sy - b*sx) / n
}

// fit evaluates the rate f on every part that saw a grant and returns
// its value at zero steal. A line through fewer than minFitParts points
// would extrapolate their noise; such a window reads its median part.
func (ws windowStats) fit(f func(k int) float64) float64 {
	var x, y []float64
	for k, l := range ws.lats {
		if len(l) > 0 {
			x = append(x, ws.steal[k])
			y = append(y, f(k))
		}
	}
	if len(x) < minFitParts {
		return median(y)
	}
	return atZeroSteal(x, y)
}

// waitWeighted returns the q-quantile of the sorted latencies with each
// weighed by its own length: of all the time spent waiting, the share q
// was spent in acquires no longer than the result. A rare long wait
// counts for as much as the many short ones it outlasts, so an outage
// that takes a fifth of the waiting time shows at q = 0.9 where it would
// hide above the 99.9th plain percentile.
func waitWeighted(sorted []int64, q float64) float64 {
	var total, run int64
	for _, l := range sorted {
		total += l
	}
	for _, l := range sorted {
		if run += l; float64(run) >= q*float64(total) {
			return float64(l)
		}
	}
	return 0
}

// tally counts the window's operations: what was attempted and what
// failed.
func (r *liveRun) tally() (attempted, failed int) {
	attempted = r.ws.total
	for _, at := range r.failures {
		if at >= r.start() && at < r.end() {
			attempted++
			failed++
		}
	}
	// A dropped token no grant followed within the grace period is a
	// failed operation, whichever client it starved.
	attempted += len(r.outages)
	for _, d := range r.outages {
		if d >= int64(lossGrace) {
			failed++
		}
	}
	return attempted, failed
}

// lateSorted is the generator's lateness on the arrivals due inside the
// window, sorted.
func (r *liveRun) lateSorted() []int64 {
	var l []int64
	for _, a := range r.late {
		if a.due >= r.start() && a.due < r.end() {
			l = append(l, a.late)
		}
	}
	slices.Sort(l)
	return l
}

// invalid reports why a run must not be read as a measurement of the
// system, "" when it may.
func (r *liveRun) invalid() string {
	if r.oracleErr != nil {
		return r.oracleErr.Error()
	}
	if l := r.lateSorted(); len(l) > 0 {
		late, lat := percentile(l, .5), percentile(r.ws.quietLats, .5)
		if late > maxLateShare*lat {
			return fmt.Sprintf("load generator ran %v late at the median, over %.0f%% of the %v median latency: a slow generator, not a slow system",
				time.Duration(late), 100*maxLateShare, time.Duration(lat))
		}
	}
	if r.spec.loss {
		if drops := r.snaps[r.parts()].drops - r.snaps[0].drops; drops != uint64(len(r.outages)) {
			return fmt.Sprintf("faultnet dropped %d messages for %d injections", drops, len(r.outages))
		}
	}
	if errs := r.snaps[r.parts()].wireErrs; errs != 0 {
		return fmt.Sprintf("%d transport wire errors", errs)
	}
	return ""
}

// setupTime reduces a run's set-up times, in ns, to setup_s: their lower
// quartile, in seconds. What slows a set-up of a few milliseconds on a
// shared VM — a cold process, a parked scheduler, the host — only ever
// adds time, and the lower quartile moved half as much from run to run as
// the median did.
func setupTime(setups []int64) float64 {
	return percentile(sortedCopy(setups), .25) / 1e9
}

// endToEnd computes the end-to-end metrics of a plain pass. setups are
// the run's set-up times in ns.
func (r *liveRun) endToEnd(setups []int64) *metricSet {
	m := newMetricSet(endToEndDefs)
	ws := r.ws
	// perCS is a counter's growth over part k per cycle granted in it.
	perCS := func(k int, f func(a, b snapshot) float64) float64 {
		return f(r.snaps[k], r.snaps[k+1]) / float64(len(ws.lats[k]))
	}
	m.set("setup_s", setupTime(setups), len(setups))
	m.set("cs_per_s", ws.fit(func(k int) float64 {
		return float64(len(ws.lats[k])) / (float64(r.snaps[k+1].at-r.snaps[k].at) / 1e9)
	}), ws.total)
	quiet := ws.quietLats
	m.set("acquire_p50_us", percentile(quiet, .5)/1e3, len(quiet))
	m.set("cpu_us_per_cs", ws.fit(func(k int) float64 {
		return perCS(k, func(a, b snapshot) float64 { return float64(b.cpu-a.cpu) / 1e3 })
	}), ws.total)
	m.set("allocs_per_cs", ws.fit(func(k int) float64 {
		return perCS(k, func(a, b snapshot) float64 { return float64(b.mallocs - a.mallocs) })
	}), ws.total)
	// Every message on any socket: the protocol's inter-node messages
	// plus the client's own frames, each request counted with its reply.
	m.set("msgs_per_cs", ws.fit(func(k int) float64 {
		return perCS(k, func(a, b snapshot) float64 {
			return float64(b.sent-a.sent) + 2*float64(b.sessReqs-a.sessReqs)
		})
	}), ws.total)
	return m
}

// counterLayers computes the per-layer metrics that are counter
// differences over a plain pass's window.
func (r *liveRun) counterLayers() *metricSet {
	m := newMetricSet(perLayerDefs)
	ws := r.ws
	a, b := r.snaps[0], r.snaps[r.parts()]
	cs := float64(ws.total)
	perCS := func(name string, delta uint64) { m.set(name, ratio(float64(delta), cs), ws.total) }

	m.set("session.acquire_wait_p50_us", r.sessWait.P50*1e6, int(r.sessWait.Count))
	perCS("session.frames_per_cs", 2*(b.sessReqs-a.sessReqs))
	m.set("live.handoff_p50_us", r.handoff.P50*1e6, int(r.handoff.Count))
	m.set("transport.frames_per_flush", ratio(float64(b.frames-a.frames), float64(b.flushes-a.flushes)), int(b.flushes-a.flushes))
	perCS("transport.wire_bytes_per_cs", b.wireBytes-a.wireBytes)
	perCS("transport.msgs_per_cs", b.sent-a.sent)
	for _, kind := range []string{"REQUEST", "PRIVILEGE", "NEW-ARBITER"} {
		perCS("transport.msgs_per_cs."+kind, b.byKind[kind]-a.byKind[kind])
	}
	m.set("transport.errors", float64(b.wireErrs), 0)

	m.set("core.batch_mean", ratio(b.batchSum-a.batchSum, float64(b.batchN-a.batchN)), int(b.batchN-a.batchN))
	perCS("core.dispatches_per_cs", b.core["dispatches_total"]-a.core["dispatches_total"])
	perCS("core.token_passes_per_cs", b.core["token_passes_total"]-a.core["token_passes_total"])
	perCS("core.forwarded_per_cs", b.core["requests_forwarded_total"]-a.core["requests_forwarded_total"])
	perCS("core.retransmits_per_cs", b.core["requests_retransmitted_total"]-a.core["requests_retransmitted_total"])
	perCS("core.dropped_per_cs", b.core["requests_dropped_total"]-a.core["requests_dropped_total"])
	var rounds uint64
	for _, name := range []string{"recovery_invalidations_total", "recovery_regenerations_total", "recovery_resolved_total"} {
		rounds += b.core[name] - a.core[name]
	}
	m.set("core.recovery_rounds", float64(rounds), 0)
	m.set("core.window_us", protoTreq*1e6, 0)

	m.set("faultnet.injections", float64(len(r.outages)), 0)
	m.set("faultnet.drops", float64(b.drops-a.drops), 0)
	outs := sortedCopy(r.outages)
	m.set("faultnet.outage_p50_ms", percentile(outs, .5)/1e6, len(outs))

	quiet := ws.quietLats
	m.set("acquire_p90_us", percentile(quiet, .9)/1e3, len(quiet))
	m.set("acquire_p99_us", percentile(quiet, .99)/1e3, len(quiet))
	m.set("blocked_p90_ms", waitWeighted(quiet, .9)/1e6, len(quiet))
	late := r.lateSorted()
	m.set("loadgen.late_p50_us", percentile(late, .5)/1e3, len(late))
	m.set("loadgen.late_p99_us", percentile(late, .99)/1e3, len(late))
	// What cs_per_s would read taken plainly over the window: the two
	// differ by what the host took.
	m.set("host.cs_per_s_raw", ratio(cs, float64(b.at-a.at)/1e9), ws.total)
	m.set("host.steal_share", ratio(float64(b.steal-a.steal)/clockTicksPerSecond, float64(b.at-a.at)/1e9*float64(runtime.NumCPU())), 0)
	m.set("runtime.gc_cpu_share", ratio(b.gcCPU-a.gcCPU, (b.cpu-a.cpu).Seconds()), 0)
	m.set("runtime.sched_latency_p99_us", schedP99(a.sched, b.sched)*1e6, 0)
	m.set("runtime.heap_mb", float64(r.heapBytes)/(1<<20), 0)
	return m
}

// p50us is the median acquire latency over the quiet parts, in µs, with
// the number of acquires behind it.
func (r *liveRun) p50us() (float64, int) {
	lats := r.ws.quietLats
	return percentile(lats, .5) / 1e3, len(lats)
}

// quietSpans keeps the spans that began inside a quiet part.
func (r *liveRun) quietSpans() []span {
	var keep []span
	for _, s := range r.spans {
		for _, k := range r.ws.quiet {
			if s.Start >= r.snaps[k].at && s.Start < r.snaps[k+1].at {
				keep = append(keep, s)
				break
			}
		}
	}
	return keep
}
