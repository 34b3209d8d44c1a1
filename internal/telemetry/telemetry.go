// Package telemetry is a dependency-free metrics substrate for the live
// runtime: atomic counters, gauges and fixed-bucket latency histograms
// collected in a named Registry, with Prometheus text-exposition
// (prometheus.go) and JSON snapshot (json.go) encoders. (The event trace
// is internal/reqtrace's.)
//
// The simulation (internal/dme) extracts messages-per-CS and waiting-time
// figures from virtual time; this package gives live nodes the same
// observables from wall-clock time, so a deployed cluster can be compared
// against the paper's simulation numbers — De Turck's methodology of
// keeping observables uniform across implementations.
//
// All metric types are safe for concurrent use and never allocate on the
// update path (Counter.Add, Gauge.Set, Histogram.Observe), so they can be
// called from protocol fast paths and transport receive loops.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add increments (or, negative n, decrements) the gauge.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram tallies observations into fixed buckets defined by their
// inclusive upper bounds, Prometheus-style: an observation v lands in the
// first bucket with v ≤ bound, or in the implicit +Inf overflow bucket.
// The sum of observations is kept as float64 bits in an atomic, using a
// CAS loop — contention on a histogram is bounded by the lock rate, which
// the protocol itself serializes.
type Histogram struct {
	bounds []float64       // strictly increasing upper bounds
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // math.Float64bits

	exMu sync.Mutex
	ex   Exemplar // worst observation seen, if recorded via ObserveEx
}

// Exemplar ties a histogram's worst observation back to the request that
// produced it — Trace is an opaque trace ID (reqtrace.ID as a raw
// uint64; this package stays dependency-free). A zero Trace means no
// exemplar has been recorded.
type Exemplar struct {
	Value float64 `json:"value"`
	Trace uint64  `json:"trace"`
}

// DefLatencyBuckets covers 100 µs to ~30 s, the plausible range of
// lock-wait and CS-hold times from an in-memory cluster to a WAN one.
var DefLatencyBuckets = []float64{
	.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1,
	.25, .5, 1, 2.5, 5, 10, 30,
}

// LinearBuckets returns count buckets of the given width starting at lo:
// lo, lo+width, … — handy for small-integer distributions (Q-list sizes).
func LinearBuckets(lo, width float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = lo + float64(i)*width
	}
	return out
}

func newHistogram(buckets []float64) *Histogram {
	bounds := make([]float64, len(buckets))
	copy(bounds, buckets)
	sort.Float64s(bounds)
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveEx records one observation attributed to a trace ID, keeping
// the largest such observation as the histogram's exemplar — "which
// request was the slow one" for the admin surfaces. A zero trace ID
// degrades to a plain Observe.
func (h *Histogram) ObserveEx(v float64, trace uint64) {
	h.Observe(v)
	if trace == 0 {
		return
	}
	h.exMu.Lock()
	if v >= h.ex.Value || h.ex.Trace == 0 {
		h.ex = Exemplar{Value: v, Trace: trace}
	}
	h.exMu.Unlock()
}

// Exemplar returns the largest traced observation, or a zero Exemplar if
// none has been recorded.
func (h *Histogram) Exemplar() Exemplar {
	h.exMu.Lock()
	defer h.exMu.Unlock()
	return h.ex
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Buckets returns the upper bounds and the per-bucket (non-cumulative)
// counts; the final count is the +Inf overflow bucket.
func (h *Histogram) Buckets() (bounds []float64, counts []uint64) {
	bounds = h.bounds
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) assuming observations are
// uniform within buckets. Overflow observations clamp to the top bound.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 || len(h.bounds) == 0 {
		return 0
	}
	target := q * float64(n)
	var cum float64
	lo := 0.0
	for i, bound := range h.bounds {
		c := float64(h.counts[i].Load())
		if cum+c >= target && c > 0 {
			frac := (target - cum) / c
			return lo + frac*(bound-lo)
		}
		cum += c
		lo = bound
	}
	return h.bounds[len(h.bounds)-1]
}

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindHistogram
	kindCounterVec
	kindCounterFunc
)

// metric is one registered entry.
type metric struct {
	name string
	help string
	kind metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	vec     *CounterVec
	fn      func() uint64
}

// CounterVec is a family of counters partitioned by one label (the live
// stack uses it for per-message-kind tallies).
type CounterVec struct {
	label string

	mu       sync.Mutex
	children map[string]*Counter
}

// With returns the counter for the given label value, creating it on
// first use.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[value]
	if !ok {
		c = &Counter{}
		v.children[value] = c
	}
	return c
}

// Values returns a copy of the per-label-value counts.
func (v *CounterVec) Values() map[string]uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string]uint64, len(v.children))
	for k, c := range v.children {
		out[k] = c.Value()
	}
	return out
}

// Registry holds named metrics. Lookups are get-or-create: asking twice
// for the same name returns the same metric, so independent subsystems
// (live node, transport wrapper) can share one registry without
// coordinating registration order. Asking for an existing name with a
// different metric type panics — that is a programming error, caught in
// tests, exactly like Prometheus client registries treat it.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	order   []string // registration order, for stable JSON/Prometheus output
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

func (r *Registry) lookup(name, help string, kind metricKind) *metric {
	m, ok := r.metrics[name]
	if ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with a different type", name))
		}
		return m
	}
	m = &metric{name: name, help: help, kind: kind}
	r.metrics[name] = m
	r.order = append(r.order, name)
	return m
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name, help, kindCounter)
	if m.counter == nil {
		m.counter = &Counter{}
	}
	return m.counter
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name, help, kindGauge)
	if m.gauge == nil {
		m.gauge = &Gauge{}
	}
	return m.gauge
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (later calls reuse the existing
// buckets and ignore the argument).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name, help, kindHistogram)
	if m.hist == nil {
		m.hist = newHistogram(buckets)
	}
	return m.hist
}

// CounterVec returns the named one-label counter family, creating it on
// first use.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name, help, kindCounterVec)
	if m.vec == nil {
		m.vec = &CounterVec{label: label, children: make(map[string]*Counter)}
	}
	return m.vec
}

// CounterFunc registers a pull-style counter whose value is read from fn
// at export time — used for sources that already keep their own atomics
// (e.g. the TCP transport's wire-byte counts). Re-registering the same
// name replaces the function.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name, help, kindCounterFunc)
	m.fn = fn
}

// snapshotMetrics returns the registered metrics in registration order,
// under the lock only long enough to copy the slice headers.
func (r *Registry) snapshotMetrics() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*metric, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.metrics[name])
	}
	return out
}
