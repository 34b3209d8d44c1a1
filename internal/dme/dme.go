// Package dme defines the common harness for distributed mutual exclusion
// (DME) algorithms under simulation: the Node/Algorithm plug-in interface,
// the execution context through which nodes exchange messages and enter
// the critical section, message and delay accounting, and a runtime safety
// checker that asserts at most one node is ever inside the critical
// section.
//
// Every algorithm in this repository — the paper's arbiter algorithm in
// internal/core and the six baselines under internal/baseline — implements
// the same interface, so the experiment harness, metrics and invariant
// checks are identical across algorithms. That is what makes the Figure 6
// comparison apples-to-apples.
package dme

import (
	"fmt"

	"tokenarbiter/internal/sim"
)

// NodeID identifies a node; nodes are numbered 0..N-1.
type NodeID = int

// Message is an algorithm protocol message. Kind identifies the message
// for accounting (messages per CS broken down by type).
type Message interface {
	Kind() string
}

// Sized is optionally implemented by messages whose payload grows with
// system state (a token carrying a queue, a sequence-number table). The
// harness accumulates SizeUnits into Metrics.TotalUnits so experiments
// can compare message *volume*, not just message count — the classic
// hidden cost of compact-count token algorithms. A message without Sized
// counts as 1 unit.
type Sized interface {
	SizeUnits() int
}

// Node is one participant in a DME algorithm. The harness calls these
// methods from the simulation event loop; they must not block.
//
// Contract:
//   - Each OnRequest call represents one application-level request for the
//     critical section. The node must eventually call Context.EnterCS once
//     per OnRequest (the harness tracks the FIFO correspondence per node).
//   - After EnterCS, the harness simulates the critical section for Texec
//     time units and then calls OnCSDone; only then may the node release
//     or pass on its permission/token.
type Node interface {
	// ID returns the node's identifier, fixed at construction.
	ID() NodeID
	// Init is called once at virtual time 0, after all nodes exist.
	Init(ctx Context)
	// OnRequest is called when the local application requests the CS.
	OnRequest(ctx Context)
	// OnMessage is called when a protocol message is delivered.
	OnMessage(ctx Context, from NodeID, msg Message)
	// OnCSDone is called when the critical section the node entered via
	// Context.EnterCS completes (Texec after EnterCS).
	OnCSDone(ctx Context)
}

// Algorithm constructs the N nodes of a protocol instance.
type Algorithm interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// Build returns the nodes. len(result) must equal cfg.N and node i
	// must report ID() == i.
	Build(cfg Config) ([]Node, error)
}

// TimerHost cancels timers it issued. Each Context implementation is its
// own host: the simulation Runner forwards to the kernel's
// generation-validated records, the live runtime to its wall-clock timer
// table. What (id, gen) mean is private to the host.
type TimerHost interface {
	CancelTimer(id int32, gen uint32)
}

// Timer is a cancellable pending callback, returned by Context.After.
// It is a plain value handle — copy it freely; it holds no per-timer heap
// object. The zero Timer is valid and inert, standing for "no timer
// armed". Cancelling an already-fired, already-cancelled, or zero timer
// is a no-op.
type Timer struct {
	host TimerHost
	id   int32
	gen  uint32
}

// MakeTimer builds a Timer handle; intended for Context implementations.
func MakeTimer(host TimerHost, id int32, gen uint32) Timer {
	return Timer{host: host, id: id, gen: gen}
}

// Cancel stops the timer if it is still pending.
func (t Timer) Cancel() {
	if t.host != nil {
		t.host.CancelTimer(t.id, t.gen)
	}
}

// Armed reports whether t is a real handle rather than the zero Timer.
// It does not track firing: a handle still reports Armed after its
// callback has run — protocols that need "is a timer outstanding" reset
// their field to the zero Timer when the callback fires.
func (t Timer) Armed() bool { return t.host != nil }

// TimerTightener is implemented by a TimerHost whose lax timers
// (LaxContext) can be moved onto its precise path.
type TimerTightener interface {
	TightenTimer(id int32, gen uint32)
}

// Tighten asks that a timer armed by AfterLax fire at its deadline after
// all, or at once if that has passed: something now waits behind it. It
// is a no-op when the host keeps a single precision, and on a zero,
// fired, cancelled or already tightened timer.
func (t Timer) Tighten() {
	if h, ok := t.host.(TimerTightener); ok {
		h.TightenTimer(t.id, t.gen)
	}
}

// LaxContext is implemented by a Context whose timers come in two
// precision classes. AfterLax arms a timer for a phase nothing waits
// behind, so the host can spare the work it spends on firing precisely:
// the callback runs no earlier than its deadline, and no later than the
// node's next protocol step after it. A lax callback must therefore
// change only state that the node's own later steps read, and send
// nothing. The simulator has one precision and does not implement it.
type LaxContext interface {
	AfterLax(node NodeID, delay float64, fn func()) Timer
}

// AfterLax arms a lax timer through ctx when it offers one, and a plain
// After otherwise.
func AfterLax(ctx Context, node NodeID, delay float64, fn func()) Timer {
	if l, ok := ctx.(LaxContext); ok {
		return l.AfterLax(node, delay, fn)
	}
	return ctx.After(node, delay, fn)
}

// Context is the interface through which nodes act on the world. It is
// implemented by the simulation Runner (virtual time) and by the live
// runtime in internal/live (wall-clock time over a real transport) — the
// same protocol state machine drives both.
type Context interface {
	// Send transmits msg from one node to another with network delay.
	// Sending to self delivers after zero delay and is not counted as a
	// network message.
	Send(from, to NodeID, msg Message)
	// Broadcast sends msg from the given node to every other node. It is
	// counted as N−1 point-to-point messages, matching the paper's
	// accounting for NEW-ARBITER broadcasts.
	Broadcast(from NodeID, msg Message)
	// After schedules fn on node's behalf after delay time units. The
	// returned timer can be cancelled with Cancel. If the node has
	// crashed or restarted when the timer fires, fn is suppressed.
	After(node NodeID, delay float64, fn func()) Timer
	// Cancel cancels a pending timer; safe on zero or fired timers.
	Cancel(t Timer)
	// EnterCS asserts mutual exclusion and starts the critical section
	// for node. OnCSDone is invoked Texec later.
	EnterCS(node NodeID)
}

// Config parameterizes one simulation run.
type Config struct {
	// N is the number of nodes (≥ 1).
	N int
	// Seed seeds the deterministic random stream.
	Seed uint64
	// Delay is the network delay model; nil means ConstantDelay{0.1}.
	Delay sim.DelayModel
	// FIFO forces per-(sender, receiver) in-order delivery even under
	// stochastic delay models, emulating TCP-like channels: a message's
	// delivery time is clamped to be no earlier than the previous
	// message on the same ordered pair. Lamport's algorithm requires
	// this; token algorithms merely benefit.
	FIFO bool
	// Texec is the critical-section execution time.
	Texec float64
	// Gen builds the per-node arrival process; nil node generators mean
	// the node issues no requests.
	Gen func(node NodeID) GeneratorFunc
	// ClosedLoop switches from open-loop (Poisson-style, arrivals
	// independent of service) to closed-loop workload: each node has at
	// most one outstanding request, and Gen yields the think time
	// between completing one critical section and requesting the next.
	// A zero think time models the paper's heavy-load regime (§3.2),
	// where every node always has a pending request.
	ClosedLoop bool
	// TotalRequests is the number of application requests to generate
	// across all nodes before arrivals stop; the run then drains.
	TotalRequests uint64
	// WarmupRequests is the number of initial CS completions excluded
	// from statistics (transient removal).
	WarmupRequests uint64
	// MaxVirtualTime aborts a run that exceeds this virtual-time horizon
	// (a liveness backstop for tests); 0 means no limit.
	MaxVirtualTime float64
	// Fault, when non-nil, is consulted for every network send and can
	// drop, duplicate or delay messages (failure-injection experiments);
	// a faultnet.Injector's Intercept is one.
	Fault Interceptor
	// Params carries algorithm-specific tuning (e.g. the arbiter
	// algorithm's collection and forwarding durations).
	Params map[string]float64
	// Trace, when non-nil, receives every simulation event (sends,
	// deliveries, CS entries/exits, request arrivals) for protocol
	// tracing and fidelity tests. Tracing is off the hot path when nil.
	Trace func(ev TraceEvent)
}

// TraceKind classifies a TraceEvent.
type TraceKind int

// Trace event kinds.
const (
	// TraceRequest: an application request arrived at From.
	TraceRequest TraceKind = iota + 1
	// TraceSend: From transmitted Msg to To.
	TraceSend
	// TraceDeliver: Msg from From was delivered at To.
	TraceDeliver
	// TraceEnterCS: From entered the critical section.
	TraceEnterCS
	// TraceExitCS: From completed the critical section.
	TraceExitCS
)

// String names the kind for trace dumps.
func (k TraceKind) String() string {
	switch k {
	case TraceRequest:
		return "request"
	case TraceSend:
		return "send"
	case TraceDeliver:
		return "deliver"
	case TraceEnterCS:
		return "enter-cs"
	case TraceExitCS:
		return "exit-cs"
	default:
		return "unknown"
	}
}

// TraceEvent is one observed simulation event.
type TraceEvent struct {
	Time float64
	Kind TraceKind
	From NodeID
	To   NodeID  // valid for Send/Deliver
	Msg  Message // valid for Send/Deliver
	// Fence and Epoch are the grant's fencing token and token epoch on
	// EnterCS, for algorithms whose nodes implement Fenced.
	Fence, Epoch uint64
}

// Fenced is implemented by nodes whose grants carry a fencing token. The
// Runner reads it on each CS entry, only when Config.Trace is set.
type Fenced interface {
	// GrantFence returns the fence and token epoch of the node's latest
	// grant.
	GrantFence() (fence, epoch uint64)
}

// GeneratorFunc yields the next interarrival time. It adapts
// workload.Generator to a plain function so dme does not import workload.
type GeneratorFunc func() float64

// Param returns the named algorithm parameter or def when absent.
func (c Config) Param(name string, def float64) float64 {
	if v, ok := c.Params[name]; ok {
		return v
	}
	return def
}

// Validate checks the configuration for obvious errors.
func (c Config) Validate() error {
	if c.N < 1 {
		return fmt.Errorf("dme: N must be ≥ 1, got %d", c.N)
	}
	if c.Texec < 0 {
		return fmt.Errorf("dme: Texec must be ≥ 0, got %v", c.Texec)
	}
	if c.TotalRequests == 0 {
		return fmt.Errorf("dme: TotalRequests must be ≥ 1")
	}
	if c.WarmupRequests >= c.TotalRequests {
		return fmt.Errorf("dme: warmup (%d) must be below total requests (%d)",
			c.WarmupRequests, c.TotalRequests)
	}
	return nil
}

// FaultAction is a message's fate: how many copies reach the receiver,
// and the extra delay of each on top of the network's. The Runner adds
// Delay to its network delay; faultnet's live endpoint holds the copy
// back that long.
type FaultAction struct {
	// Copies is the number of copies delivered, at most len(Delay): 0
	// drops the message (it still counts as sent), 2 duplicates it.
	Copies int
	// Delay[i] is copy i's extra delay, in the protocol's time unit
	// (seconds on the live path).
	Delay [2]float64
}

// The fates that add no delay.
var (
	// Deliver passes the message through normally.
	Deliver = FaultAction{Copies: 1}
	// Drop silently discards the message.
	Drop = FaultAction{}
	// Duplicate delivers the message twice, with independent delays.
	Duplicate = FaultAction{Copies: 2}
)

// Interceptor inspects an outgoing message and decides its fate.
type Interceptor func(now float64, from, to NodeID, msg Message) FaultAction
