// Package reqtrace answers "where did THIS lock request spend its time":
// end-to-end request traces across the nodes of a DME group, and a flight
// recorder that captures the envelope traffic of a live run for offline,
// deterministic re-execution in the simulation kernel (replay.go).
//
// A request acquires a trace ID when the application asks for the lock
// (live.Node mints it at Lock/LockFence entry; the sim
// adapter mints it on the workload arrival). The ID is derived from the
// requester's node id and its per-node request sequence number — exactly
// the (node, seq) identity the core protocol stamps on QEntry — so spans
// recorded by the requester's runtime and spans recorded by protocol
// observers on OTHER nodes (batch inclusion at the arbiter, token hops)
// agree on the ID without any coordination.
//
// Spans are point events on a shared clock (a Collector's epoch in live
// runs, virtual time in simulations); phase durations fall out of the
// deltas between consecutive spans. The same span phases are produced by
// the live runtime and the simulation harness, so a request's life reads
// identically in both:
//
//	enqueue → batch → token-hop* → grant → release
//
// Baseline algorithms have no observer hook, so their traces carry only
// the runtime-side spans (enqueue, grant, release) — wait and hold times
// still measure correctly; the protocol-phase breakdown is a core-protocol
// feature.
package reqtrace

import (
	"fmt"
	"sort"
	"sync"
	"time"
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

// Phase classifies one span of a request's life.
type Phase string

// The span phases, in causal order. TokenHop may repeat (one per
// PRIVILEGE transfer while the request heads the token's Q-list); the
// others appear at most once per request.
const (
	// PhaseEnqueue: the application asked for the lock (Lock entry /
	// workload arrival); the protocol request is issued.
	PhaseEnqueue Phase = "enqueue"
	// PhaseBatch: the current arbiter accepted the request into the batch
	// it is collecting (§2.1's request-collection phase).
	PhaseBatch Phase = "batch"
	// PhaseTokenHop: a node sent the token (PRIVILEGE) onward while this
	// request headed its Q-list — the token is traveling to serve it.
	PhaseTokenHop Phase = "token-hop"
	// PhaseGrant: the requester entered the critical section.
	PhaseGrant Phase = "grant"
	// PhaseRelease: the requester released the critical section.
	PhaseRelease Phase = "release"
)

// Span is one point event in a request's life. At is seconds on the
// recording Collector's clock (wall-clock since its epoch in live runs,
// virtual time in simulations).
type Span struct {
	Trace ID      `json:"trace"`
	Phase Phase   `json:"phase"`
	At    float64 `json:"at"`
	// Node is where the span was observed (the arbiter for batch spans,
	// the sending node for token hops, the requester for the rest).
	Node int `json:"node"`
	// Peer is the destination of a token hop; -1 otherwise.
	Peer int `json:"peer,omitempty"`
	// Key is the lock key of the DME group, for multi-key services.
	Key string `json:"key,omitempty"`
	// Fence is the grant's fencing token (grant spans only).
	Fence uint64 `json:"fence,omitempty"`
	// Batch is the batch length at acceptance (batch spans only).
	Batch int `json:"batch,omitempty"`
}

// Trace is one request's assembled span list, causally ordered by At.
type Trace struct {
	ID    ID     `json:"id"`
	Key   string `json:"key,omitempty"`
	Spans []Span `json:"spans"`
}

// at returns the time of the first span with the given phase.
func (t Trace) at(p Phase) (float64, bool) {
	for _, s := range t.Spans {
		if s.Phase == p {
			return s.At, true
		}
	}
	return 0, false
}

// Wait returns the enqueue→grant duration (the paper's waiting time for
// this one request), or 0 when either endpoint is missing.
func (t Trace) Wait() float64 {
	enq, ok1 := t.at(PhaseEnqueue)
	grant, ok2 := t.at(PhaseGrant)
	if !ok1 || !ok2 || grant < enq {
		return 0
	}
	return grant - enq
}

// Hold returns the grant→release duration, or 0 when either endpoint is
// missing.
func (t Trace) Hold() float64 {
	grant, ok1 := t.at(PhaseGrant)
	rel, ok2 := t.at(PhaseRelease)
	if !ok1 || !ok2 || rel < grant {
		return 0
	}
	return rel - grant
}

// Hops counts the token transfers made while this request headed the
// Q-list — the per-request share of token movement.
func (t Trace) Hops() int {
	hops := 0
	for _, s := range t.Spans {
		if s.Phase == PhaseTokenHop {
			hops++
		}
	}
	return hops
}

// Fence returns the grant's fencing token, or 0 if the trace has no
// grant span.
func (t Trace) Fence() uint64 {
	for _, s := range t.Spans {
		if s.Phase == PhaseGrant {
			return s.Fence
		}
	}
	return 0
}

// Step is one row of a per-phase breakdown: the span plus the time since
// the previous span — where the request spent that slice of its life.
type Step struct {
	Phase Phase   `json:"phase"`
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
	if len(t.Spans) > 0 {
		sum.Start = t.Spans[0].At
	}
	prev := sum.Start
	for _, s := range t.Spans {
		sum.Steps = append(sum.Steps, Step{
			Phase: s.Phase,
			Node:  s.Node,
			Peer:  s.Peer,
			At:    s.At,
			Delta: s.At - prev,
		})
		prev = s.At
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

// Collector accumulates spans into traces: spans for an ID collect in an
// open table until the release span arrives, then the assembled trace
// moves to a bounded ring of completed traces. One Collector is typically
// shared by every node of an in-process cluster (and by every key of a
// Manager), so a request's spans from all the nodes it crossed land in
// one place. All methods are safe for concurrent use and are no-ops on a
// nil receiver, so a disabled tracer costs one pointer test.
type Collector struct {
	epoch time.Time

	mu      sync.Mutex
	open    map[ID]*Trace
	order   []ID // open-trace FIFO for eviction
	done    []Trace
	next    int // ring write position
	total   uint64
	dropped uint64
}

// NewCollector returns a collector keeping the last depth completed
// traces (0 means DefaultDepth). Its clock starts now.
func NewCollector(depth int) *Collector {
	if depth <= 0 {
		depth = DefaultDepth
	}
	return &Collector{
		epoch: time.Now(),
		open:  make(map[ID]*Trace),
		done:  make([]Trace, 0, depth),
	}
}

// Since returns seconds since the collector's epoch — the At clock for
// live spans. Virtual-time recorders (the sim adapter) ignore it and pass
// their own times.
func (c *Collector) Since() float64 {
	if c == nil {
		return 0
	}
	return time.Since(c.epoch).Seconds()
}

// Record appends one span to its trace; a release span completes the
// trace and moves it to the ring. Untraced spans (zero ID) and nil
// collectors are ignored.
func (c *Collector) Record(s Span) {
	if c == nil || s.Trace == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	tr, ok := c.open[s.Trace]
	if !ok {
		if len(c.open) >= defaultMaxOpen {
			c.evictOldestLocked()
		}
		tr = &Trace{ID: s.Trace, Key: s.Key}
		c.open[s.Trace] = tr
		c.order = append(c.order, s.Trace)
	}
	if tr.Key == "" {
		tr.Key = s.Key
	}
	tr.Spans = append(tr.Spans, s)
	if s.Phase == PhaseRelease {
		delete(c.open, s.Trace)
		c.pushDoneLocked(*tr)
	}
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

// pushDoneLocked appends a completed trace to the ring (mu held).
func (c *Collector) pushDoneLocked(tr Trace) {
	c.total++
	if len(c.done) < cap(c.done) {
		c.done = append(c.done, tr)
		return
	}
	c.done[c.next] = tr
	c.next = (c.next + 1) % cap(c.done)
}

// Completed returns the buffered completed traces, oldest first.
func (c *Collector) Completed() []Trace {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Trace, 0, len(c.done))
	if len(c.done) < cap(c.done) {
		return append(out, c.done...)
	}
	out = append(out, c.done[c.next:]...)
	return append(out, c.done[:c.next]...)
}

// Totals reports how many traces have ever completed, how many are open
// in flight, and how many open traces were evicted unfinished.
func (c *Collector) Totals() (completed, open, dropped uint64) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total, uint64(len(c.open)), c.dropped
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
