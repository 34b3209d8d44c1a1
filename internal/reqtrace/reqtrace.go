// Package reqtrace answers "where did THIS lock request spend its time":
// end-to-end request traces across the nodes of a DME group, and a flight
// recorder that captures the envelope traffic of a live run for offline,
// deterministic re-execution in the simulation kernel (replay.go).
//
// There is one event record, Record, and one way to consume it, Sink. A
// runtime (live.Node, or the simulation adapters in adapters.go) turns
// each protocol step into a Record exactly once and hands it to its
// sinks; each sink keeps what it serves and ignores the rest:
//
//	Ring       the last few records of one lock's node (/debug/trace)
//	Collector  the records that name a request, assembled per request
//	           (/debug/requests, `mutexload -slowest`)
//	Recorder   every record, as one capture line (`mutexsim replay`)
//	Checker    the grants, releases and §6 mints, judged for safety
//	           (checker.go; Check judges a capture)
//
// A request acquires a trace ID when the application asks for the lock
// (live.Node mints it at Lock/LockFence entry; the sim
// adapter mints it on the workload arrival). The ID is derived from the
// requester's node id and its per-node request sequence number — exactly
// the (node, seq) identity the core protocol stamps on QEntry — so records
// made by the requester's runtime and records made by protocol
// observers on OTHER nodes (batch inclusion at the arbiter, token hops)
// agree on the ID without any coordination.
//
// Records are point events on one clock (Now in live runs, virtual time
// in simulations); phase durations fall out of the deltas between
// consecutive records. The live runtime and the simulation harness
// produce the same records, so a request's life reads identically in
// both:
//
//	enqueue → request-accepted → token-passed* → grant → release
//
// Baseline algorithms have no observer hook, so their traces carry only
// the runtime-side records (enqueue, grant, release) — wait and hold times
// still measure correctly; the protocol-phase breakdown is a core-protocol
// feature.
package reqtrace

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"tokenarbiter/internal/core"
)

// ID identifies one application-level lock request across nodes. It packs
// the requester's node id (biased by one, so node 0 yields non-zero IDs)
// above the requester's private request sequence number, mirroring the
// core protocol's QEntry identity: request seq s of node n gets the same
// ID no matter which node derives it. The zero ID means "untraced".
type ID uint64

// seqBits is how much of the ID the per-node sequence number occupies.
// 2^40 requests per node per incarnation outlasts any run we drive; the
// remaining high bits hold node+1, good for ~16M nodes.
const seqBits = 40

// MakeID derives the trace ID of node's seq-th request (seq counts from 1,
// matching the core protocol's sequence numbering).
func MakeID(node int, seq uint64) ID {
	return ID(uint64(node+1)<<seqBits | seq&(1<<seqBits-1))
}

// Node returns the requester's node id.
func (id ID) Node() int { return int(id>>seqBits) - 1 }

// Seq returns the requester's per-node request sequence number.
func (id ID) Seq() uint64 { return uint64(id) & (1<<seqBits - 1) }

// String renders the ID as "node-seq", the form shown on admin surfaces.
func (id ID) String() string {
	if id == 0 {
		return "-"
	}
	return fmt.Sprintf("%d-%d", id.Node(), id.Seq())
}

// Record event names. Send/recv are wire-level (one per message crossing
// the Recorder's transport layer); enqueue/grant/release are the
// application-level lock lifecycle the runtime emits. Every other Ev is
// a protocol transition, spelled as core.EventKind.String() spells it
// ("request-accepted", "token-passed", "takeover", ...; CoreObserver
// converts them).
const (
	EvSend    = "send"
	EvRecv    = "recv"
	EvRequest = "enqueue" // the application asked for the lock (Lock entry / workload arrival)
	EvGrant   = "grant"   // the requester entered the critical section
	EvRelease = "release" // the requester released the critical section
)

// evTokenPassed is the one protocol transition the trace views count: a
// node sent the token (PRIVILEGE) onward while this request headed its
// Q-list — the token is traveling to serve it.
var evTokenPassed = core.EventTokenPassed.String()

// Record is the one event record: a /debug/trace line, a step of a
// request trace and a capture line are all this object. T is seconds on
// the emitter's clock — Now in live runs, virtual time in simulations;
// replay treats a capture's T as virtual time, so its timeline is
// self-contained.
type Record struct {
	T  float64 `json:"t"`
	Ev string  `json:"ev"`
	// Node is where the event happened (the arbiter for request-accepted,
	// the sending node for token-passed, the requester for the lifecycle).
	Node int `json:"node"`
	// Peer is the other node involved: the remote endpoint of a send/recv,
	// the core event's Arbiter on protocol transitions (the destination of
	// a token-passed, the announced successor of a dispatched, the usurped
	// arbiter of a takeover, ...), -1 on lifecycle records.
	Peer int `json:"peer"`
	// Key is the lock key of the DME group, for multi-key services.
	Key string `json:"key,omitempty"`
	// Trace names the request the event is about; zero when it is about
	// the group (or tracing is off).
	Trace ID `json:"trace,omitempty"`
	// Fence is the fencing token: the grant's on grant and release records,
	// the token's on dispatched/regenerated/dropped transitions.
	Fence uint64 `json:"fence,omitempty"`
	// Batch is the batch or Q-list length on protocol transitions.
	Batch int `json:"batch,omitempty"`
	// Epoch is the token epoch: the grant's token's on grant and release
	// records, and on the transitions that carry one.
	Epoch uint64 `json:"epoch,omitempty"`
	// Frame is present only on send/recv records: the wire frame body
	// exactly as a connection would carry it (base64-encoded by
	// encoding/json), so a capture replays through the same decode path
	// live traffic takes.
	Frame []byte `json:"frame,omitempty"`
}

// Sink consumes the event stream. Implementations must be safe for
// concurrent use: one sink is typically shared by every node of an
// in-process cluster and every key of a Manager.
type Sink interface {
	Record(Record)
}

// Sinks fans one record out to every sink in it, so one stream can feed a
// ring, a collector, a recorder and a checker at once.
type Sinks []Sink

// Record implements Sink.
func (s Sinks) Record(rec Record) {
	for _, k := range s {
		k.Record(rec)
	}
}

// epoch anchors Now; one per process, so every record a process emits —
// whichever sink keeps it — is on one timeline.
var epoch = time.Now()

// Now returns seconds since the process started tracing: the T of every
// live record.
func Now() float64 { return time.Since(epoch).Seconds() }

// ring is a bounded overwrite-oldest buffer, the storage behind Ring and
// the Collector's completed traces. Not safe for concurrent use; its
// owners hold their own mutex.
type ring[T any] struct {
	buf   []T
	total uint64 // values ever pushed; buf[total%cap] is the next slot
}

func newRing[T any](capacity int) ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return ring[T]{buf: make([]T, 0, capacity)}
}

func (r *ring[T]) push(v T) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.total%uint64(cap(r.buf))] = v
	}
	r.total++
}

// snapshot returns a copy of the buffered values, oldest first.
func (r *ring[T]) snapshot() []T {
	start := r.total % uint64(cap(r.buf)) // len(buf) until the first wrap
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[start:]...)
	return append(out, r.buf[:start]...)
}

// Ring is the sink that keeps the most recent records, whatever they are
// about — the /debug/trace view of one lock's node. Recording overwrites
// the oldest entry once the buffer is full; readers get a copy, oldest
// first. Safe for concurrent use.
type Ring struct {
	mu sync.Mutex
	r  ring[Record]
}

// NewRing returns a ring holding the last capacity records (minimum 1).
func NewRing(capacity int) *Ring {
	return &Ring{r: newRing[Record](capacity)}
}

// Record implements Sink.
func (r *Ring) Record(rec Record) {
	r.mu.Lock()
	r.r.push(rec)
	r.mu.Unlock()
}

// Events returns the buffered records, oldest first.
func (r *Ring) Events() []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.r.snapshot()
}

// Total returns how many records have ever been recorded (≥ len(Events());
// the difference is how many were overwritten).
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.r.total
}

// Trace is one request's assembled record list, in arrival order.
type Trace struct {
	ID     ID       `json:"id"`
	Key    string   `json:"key,omitempty"`
	Events []Record `json:"events"`
}

// at returns the time of the first record with the given name.
func (t Trace) at(ev string) (float64, bool) {
	for _, r := range t.Events {
		if r.Ev == ev {
			return r.T, true
		}
	}
	return 0, false
}

// between returns the from→to duration, or 0 when either endpoint is
// missing or they are out of order.
func (t Trace) between(from, to string) float64 {
	a, ok1 := t.at(from)
	b, ok2 := t.at(to)
	if !ok1 || !ok2 || b < a {
		return 0
	}
	return b - a
}

// Wait returns the enqueue→grant duration (the paper's waiting time for
// this one request), or 0 when either endpoint is missing.
func (t Trace) Wait() float64 { return t.between(EvRequest, EvGrant) }

// Hold returns the grant→release duration, or 0 when either endpoint is
// missing.
func (t Trace) Hold() float64 { return t.between(EvGrant, EvRelease) }

// Hops counts the token transfers made while this request headed the
// Q-list — the per-request share of token movement.
func (t Trace) Hops() int {
	hops := 0
	for _, r := range t.Events {
		if r.Ev == evTokenPassed {
			hops++
		}
	}
	return hops
}

// Fence returns the grant's fencing token, or 0 if the trace has no
// grant record.
func (t Trace) Fence() uint64 {
	for _, r := range t.Events {
		if r.Ev == EvGrant {
			return r.Fence
		}
	}
	return 0
}

// Step is one row of a per-phase breakdown: the record plus the time
// since the previous one — where the request spent that slice of its life.
type Step struct {
	Phase string  `json:"phase"`
	Node  int     `json:"node"`
	Peer  int     `json:"peer,omitempty"`
	At    float64 `json:"at"`
	Delta float64 `json:"delta"`
}

// Summary is the admin-surface form of a trace: stable identifiers,
// derived durations, and the per-phase breakdown.
type Summary struct {
	ID    string  `json:"id"`
	Key   string  `json:"key,omitempty"`
	Start float64 `json:"start"`
	Wait  float64 `json:"wait_seconds"`
	Hold  float64 `json:"hold_seconds"`
	Hops  int     `json:"token_hops"`
	Fence uint64  `json:"fence,omitempty"`
	Steps []Step  `json:"steps"`
}

// Summarize builds the Summary view of the trace.
func (t Trace) Summarize() Summary {
	sum := Summary{
		ID:    t.ID.String(),
		Key:   t.Key,
		Wait:  t.Wait(),
		Hold:  t.Hold(),
		Hops:  t.Hops(),
		Fence: t.Fence(),
	}
	if len(t.Events) > 0 {
		sum.Start = t.Events[0].T
	}
	prev := sum.Start
	for _, r := range t.Events {
		sum.Steps = append(sum.Steps, Step{
			Phase: r.Ev,
			Node:  r.Node,
			Peer:  r.Peer,
			At:    r.T,
			Delta: r.T - prev,
		})
		prev = r.T
	}
	return sum
}

// DefaultDepth is a Collector's completed-trace ring capacity when
// NewCollector is given zero.
const DefaultDepth = 256

// defaultMaxOpen bounds in-flight (unreleased) traces; beyond it the
// oldest open trace is dropped — a leak guard against requests that never
// complete (cancelled Locks whose grant never comes, captures of crashed
// peers).
const defaultMaxOpen = 4096

// Collector is the sink that assembles request traces: it keeps the
// records that name a request (non-zero Trace) and ignores the rest.
// Records for an ID collect in an open table until the release arrives,
// then the assembled trace moves to a bounded ring of completed traces.
// One Collector is typically shared by every node of an in-process
// cluster (and by every key of a Manager), so a request's records from
// all the nodes it crossed land in one place. All methods are safe for
// concurrent use and are no-ops on a nil receiver, so a disabled tracer
// costs one pointer test.
type Collector struct {
	mu      sync.Mutex
	open    map[ID]*Trace
	order   []ID // opening order of traces, for eviction; may name completed ones
	done    ring[Trace]
	dropped uint64
}

// NewCollector returns a collector keeping the last depth completed
// traces (0 means DefaultDepth).
func NewCollector(depth int) *Collector {
	if depth <= 0 {
		depth = DefaultDepth
	}
	return &Collector{
		open: make(map[ID]*Trace),
		done: newRing[Trace](depth),
	}
}

// Record implements Sink: it appends rec to its request's trace; a
// release completes the trace and moves it to the ring. Records about no
// request (zero Trace) and nil collectors are ignored.
func (c *Collector) Record(rec Record) {
	if c == nil || rec.Trace == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	tr, ok := c.open[rec.Trace]
	if !ok {
		if len(c.open) >= defaultMaxOpen {
			c.evictOldestLocked()
		}
		c.pushOrderLocked(rec.Trace)
		// Room for the usual life (enqueue, accepted, a token hop or
		// three, grant, release) in one allocation.
		tr = &Trace{ID: rec.Trace, Key: rec.Key, Events: make([]Record, 0, 8)}
		c.open[rec.Trace] = tr
	}
	if tr.Key == "" {
		tr.Key = rec.Key
	}
	tr.Events = append(tr.Events, rec)
	if rec.Ev == EvRelease {
		delete(c.open, rec.Trace)
		c.done.push(*tr)
	}
}

// pushOrderLocked appends a trace about to open to the eviction FIFO (mu
// held). Completed traces leave their id behind in it; once those
// outnumber the open ones the FIFO is compacted in place, so its length
// stays within twice the open table's (plus a constant) at amortized
// constant cost.
func (c *Collector) pushOrderLocked(id ID) {
	if len(c.order) >= 2*len(c.open)+64 {
		kept := c.order[:0]
		for _, old := range c.order {
			if _, ok := c.open[old]; ok {
				kept = append(kept, old)
			}
		}
		c.order = kept
	}
	c.order = append(c.order, id)
}

// evictOldestLocked drops the oldest still-open trace (mu held).
func (c *Collector) evictOldestLocked() {
	for len(c.order) > 0 {
		id := c.order[0]
		c.order = c.order[1:]
		if _, ok := c.open[id]; ok {
			delete(c.open, id)
			c.dropped++
			return
		}
	}
}

// Completed returns the buffered completed traces, oldest first.
func (c *Collector) Completed() []Trace {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done.snapshot()
}

// Totals reports how many traces have ever completed, how many are open
// in flight, and how many open traces were evicted unfinished.
func (c *Collector) Totals() (completed, open, dropped uint64) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done.total, uint64(len(c.open)), c.dropped
}

// Lookup returns the completed trace with the given ID, newest match
// first, or false if the ring no longer holds it.
func (c *Collector) Lookup(id ID) (Trace, bool) {
	traces := c.Completed()
	for i := len(traces) - 1; i >= 0; i-- {
		if traces[i].ID == id {
			return traces[i], true
		}
	}
	return Trace{}, false
}

// Slowest returns the n completed traces with the longest waits, slowest
// first. A negative n means all.
func (c *Collector) Slowest(n int) []Trace {
	return slowest(c.Completed(), n)
}

// SlowestFor is Slowest restricted to one lock key.
func (c *Collector) SlowestFor(key string, n int) []Trace {
	all := c.Completed()
	kept := all[:0:0]
	for _, tr := range all {
		if tr.Key == key {
			kept = append(kept, tr)
		}
	}
	return slowest(kept, n)
}

func slowest(traces []Trace, n int) []Trace {
	sort.SliceStable(traces, func(i, j int) bool {
		return traces[i].Wait() > traces[j].Wait()
	})
	if n >= 0 && len(traces) > n {
		traces = traces[:n]
	}
	return traces
}
