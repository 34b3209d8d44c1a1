package core

import (
	"fmt"

	"tokenarbiter/internal/dme"
)

// Default tuning values, matching the paper's simulation parameters
// (§3.3: message delay, forwarding time and CS execution time 0.1 units;
// collection phase 0.1 or 0.2 units).
const (
	DefaultTreq          = 0.1
	DefaultTfwd          = 0.1
	DefaultTau           = 3
	DefaultMonitorWindow = 16
)

// Options selects the algorithm variant and its tuning parameters. The
// zero value plus Normalize gives the paper's basic algorithm with the
// default parameters.
type Options struct {
	// Treq is the request-collection phase duration (§2.1).
	Treq float64
	// Tfwd is the request-forwarding phase duration (§2.1).
	Tfwd float64
	// Tau is the forwarding/drop threshold τ of §4.1: requests forwarded
	// ≥ τ times are dropped, and a requester resubmits after missing τ
	// consecutive NEW-ARBITER Q-lists.
	Tau int

	// Monitor enables the starvation-free variant of §4.1.
	Monitor bool
	// MonitorNode is the initial monitor's identity (default node 0).
	MonitorNode int
	// MonitorWindow is the moving-window length for the average Q-list
	// size that drives the adaptive token-diversion period.
	MonitorWindow int
	// MonitorFlushTimeout guards liveness when the system goes idle with
	// requests stranded at the monitor: if the token has not visited the
	// monitor within this time of a request being stored, the monitor
	// re-submits its stored requests to the current arbiter as ordinary
	// REQUESTs. The paper's monitor only waits for the token (§4.1),
	// which can strand the final requests of a finite run; this timeout
	// is our documented liveness substitution. 0 disables it.
	MonitorFlushTimeout float64
	// RotatingMonitor rotates the monitor role round-robin (§5.1); the
	// monitor's NEW-ARBITER broadcast names its successor.
	RotatingMonitor bool

	// SeqNumbers enables the PRIVILEGE(Q, L) sequence-number variant of
	// §2.4: the arbiter filters requests already granted per the L table.
	SeqNumbers bool

	// Priorities, when non-nil, enables prioritized access (§5.2): the
	// arbiter stably orders each collected batch so that nodes with a
	// larger priority value are served earlier. Length must be N.
	Priorities []int

	// StrictFairness enables the stricter fairness criterion of §5.1:
	// within each batch the arbiter serves the node with the fewest
	// previously granted critical sections first (Suzuki-Kasami-style
	// least-served priority, using the token's L table as the access
	// count). Mutually exclusive with Priorities.
	StrictFairness bool

	// RetransmitTimeout, when positive, retransmits a request that has
	// been outstanding and unscheduled for this long even if no
	// NEW-ARBITER traffic flows (a liveness fallback for lossy networks,
	// complementing the implicit-ACK mechanism of §6). 0 disables it.
	RetransmitTimeout float64

	// AdaptiveWindow lets an idle arbiter skip the collection window: when
	// it holds the token outside the CS, has already watched one full Treq
	// expire on an empty Q-list, and the batches it recently dispatched or
	// saw announced were singletons (a node that has seen none yet waits),
	// the first request to arrive is stamped and dispatched at once
	// instead of opening a second window. Every other window — at token
	// return, after §6 regeneration, while a window timer is armed — runs
	// as the paper says. Off (the paper's fixed Treq) by default and in
	// every paper-reproducing run; the live runtime turns it on for every
	// node (registry.CoreLiveFactory). E16 in EXPERIMENTS.md prices the
	// trade.
	AdaptiveWindow bool

	// Recovery configures the §6 failure-recovery protocol.
	Recovery RecoveryOptions

	// Rejoin marks this node a restarted incarnation rejoining a running
	// group: node 0 keeps its initial-arbiter role but does not mint the
	// initial token, so a restart of the initial node cannot resurrect a
	// fence-0 token behind the group's back — the §6 recovery protocol
	// regenerates the token (above every observed fence watermark) on
	// demand instead. Liveness of a rejoining initial node therefore
	// needs Recovery.Enabled when the token died with the previous
	// incarnation.
	Rejoin bool

	// Observer, when non-nil, receives notable protocol transitions
	// (arbiter changes, dispatches, recovery actions) for logging and
	// metrics. It is called synchronously from the protocol code and
	// must be fast; internal/live wires it to log/slog.
	Observer func(Event)
}

// EventKind classifies an observability Event.
type EventKind int

// Protocol transitions surfaced through Options.Observer.
const (
	// EventBecameArbiter: this node was designated the current arbiter.
	EventBecameArbiter EventKind = iota + 1
	// EventDispatched: this node stamped and sent a batch (Batch holds
	// its size, Arbiter the announced successor).
	EventDispatched
	// EventMonitorDiverted: the token was routed through the monitor
	// (§4.1 adaptive period).
	EventMonitorDiverted
	// EventAbandoned: a superseded arbiter stopped collecting and
	// forwarded its batch to the real arbiter.
	EventAbandoned
	// EventInvalidationStarted: phase 1 of the §6 token invalidation.
	EventInvalidationStarted
	// EventTokenRegenerated: phase 2 minted a new token (Epoch, Fence).
	EventTokenRegenerated
	// EventTakeover: the previous-arbiter watchdog replaced a silent
	// arbiter (§6).
	EventTakeover
	// EventTokenPassed: this node sent the token (PRIVILEGE) to another
	// node (Arbiter holds the destination, Batch the Q-list length).
	EventTokenPassed
	// EventRequestForwarded: a REQUEST was forwarded one hop toward the
	// current arbiter during the forwarding phase (§2.1).
	EventRequestForwarded
	// EventRequestDropped: a REQUEST was discarded — it exceeded the τ
	// forwarding bound of §4.1 or arrived after the forwarding phase
	// (§2.1). The requester recovers via the implicit-ACK resubmission.
	EventRequestDropped
	// EventRequestRetransmitted: one of this node's own requests was
	// re-sent — the RetransmitTimeout fallback fired or the request
	// missed τ consecutive NEW-ARBITER Q-lists.
	EventRequestRetransmitted
	// EventInvalidationResolved: a §6 invalidation round concluded
	// without regenerating the token — a holder answered the ENQUIRY (and
	// was sent RESUME), or the token arrived while phase 1 was still
	// collecting. The counterpart of EventTokenRegenerated: every
	// EventInvalidationStarted ends in exactly one of the two.
	EventInvalidationResolved
	// EventDuplicateTokenDropped: a PRIVILEGE arrived whose (epoch, gen,
	// fence) sequence was strictly below the newest token state this node
	// has already processed — an at-least-once transport's retransmission
	// or a network duplicate. Processing it would fork the token's fence
	// counter (a stash-and-adopt at CS exit rewinds the fence to its
	// pre-grant value), so it is discarded on receipt.
	EventDuplicateTokenDropped
	// EventStaleTokenDropped: a token this node was HOLDING (or executing
	// under) turned out to belong to a superseded epoch — an INVALIDATE or
	// a higher-epoch NEW-ARBITER proved a regenerated token owns the queue.
	// The held token is discarded so the node rejoins the live queue as an
	// ordinary requester instead of self-granting dead fences forever.
	EventStaleTokenDropped
	// EventRequestAccepted: the collecting arbiter appended a request to
	// its batch (Req/ReqSeq identify the request, Batch the batch length
	// after the append) — the batch-inclusion point of a request's life,
	// which request tracing turns into its "batch" span.
	EventRequestAccepted
	// EventWindowSkipped: an idle arbiter (Options.AdaptiveWindow)
	// dispatched the request it just accepted without waiting a collection
	// window; the dispatch's own events follow. Req/ReqSeq identify the
	// request.
	EventWindowSkipped
)

// String names the kind for logs.
func (k EventKind) String() string {
	switch k {
	case EventBecameArbiter:
		return "became-arbiter"
	case EventDispatched:
		return "dispatched"
	case EventMonitorDiverted:
		return "monitor-diverted"
	case EventAbandoned:
		return "abandoned-collection"
	case EventInvalidationStarted:
		return "invalidation-started"
	case EventTokenRegenerated:
		return "token-regenerated"
	case EventTakeover:
		return "takeover"
	case EventTokenPassed:
		return "token-passed"
	case EventRequestForwarded:
		return "request-forwarded"
	case EventRequestDropped:
		return "request-dropped"
	case EventRequestRetransmitted:
		return "request-retransmitted"
	case EventInvalidationResolved:
		return "invalidation-resolved"
	case EventDuplicateTokenDropped:
		return "duplicate-token-dropped"
	case EventStaleTokenDropped:
		return "stale-token-dropped"
	case EventRequestAccepted:
		return "request-accepted"
	case EventWindowSkipped:
		return "window-skipped"
	default:
		return "unknown"
	}
}

// FanOut composes observers into one that invokes each in order; nil
// entries are skipped. It lets metrics, tracing and logging share the
// single Options.Observer hook instead of displacing each other.
func FanOut(obs ...func(Event)) func(Event) {
	live := obs[:0:0]
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(ev Event) {
		for _, o := range live {
			o(ev)
		}
	}
}

// Event is one observed protocol transition.
type Event struct {
	Kind    EventKind
	Node    int // the node reporting the event
	Arbiter int // the relevant arbiter (announced successor, usurped id…)
	Batch   int // batch size, where applicable
	Epoch   uint64
	Fence   uint64
	// Req and ReqSeq identify the request an event is about — the QEntry
	// (node, seq) of the accepted request on EventRequestAccepted, or of
	// the Q-list head the token is traveling to serve on EventTokenPassed.
	// ReqSeq 0 means no request is attributed (sequence numbers start at
	// 1, so 0 is never a real request).
	Req    int
	ReqSeq uint64
}

// RecoveryOptions parameterizes the lost-token and failed-arbiter
// detection of §6.
type RecoveryOptions struct {
	// Enabled turns the recovery protocol on.
	Enabled bool
	// TokenTimeout is how long a scheduled requester (or the designated
	// arbiter) waits for the token before sending WARNING (or starting
	// invalidation, if it is the arbiter).
	TokenTimeout float64
	// RoundTimeout bounds phase 1 of the invalidation protocol: after
	// this long the arbiter treats silent nodes as failed.
	RoundTimeout float64
	// ArbiterTimeout is the previous arbiter's watchdog on the current
	// arbiter: if no NEW-ARBITER is observed within this time it probes,
	// and on a silent probe takes over.
	ArbiterTimeout float64
	// ProbeTimeout is how long the previous arbiter waits for PROBE-ACK.
	ProbeTimeout float64
}

// Normalize fills unset fields with defaults and validates against n, the
// number of nodes.
func (o Options) Normalize(n int) (Options, error) {
	if o.Treq == 0 {
		o.Treq = DefaultTreq
	}
	if o.Tfwd == 0 {
		o.Tfwd = DefaultTfwd
	}
	if o.Tau == 0 {
		o.Tau = DefaultTau
	}
	if o.MonitorWindow == 0 {
		o.MonitorWindow = DefaultMonitorWindow
	}
	if o.Treq < 0 || o.Tfwd < 0 {
		return o, fmt.Errorf("core: phase durations must be ≥ 0 (treq=%v tfwd=%v)", o.Treq, o.Tfwd)
	}
	if o.Tau < 1 {
		return o, fmt.Errorf("core: tau must be ≥ 1, got %d", o.Tau)
	}
	if o.MonitorNode < 0 || o.MonitorNode >= n {
		return o, fmt.Errorf("core: monitor node %d outside [0,%d)", o.MonitorNode, n)
	}
	if o.Priorities != nil && len(o.Priorities) != n {
		return o, fmt.Errorf("core: got %d priorities for %d nodes", len(o.Priorities), n)
	}
	if o.StrictFairness && o.Priorities != nil {
		return o, fmt.Errorf("core: StrictFairness and Priorities are mutually exclusive")
	}
	if o.Recovery.Enabled {
		r := o.Recovery
		if r.TokenTimeout <= 0 || r.RoundTimeout <= 0 {
			return o, fmt.Errorf("core: recovery requires positive TokenTimeout and RoundTimeout")
		}
		if r.ArbiterTimeout <= 0 {
			o.Recovery.ArbiterTimeout = 4 * r.TokenTimeout
		}
		if r.ProbeTimeout <= 0 {
			o.Recovery.ProbeTimeout = r.RoundTimeout
		}
	}
	return o, nil
}

// Algorithm adapts the arbiter protocol to the dme harness.
type Algorithm struct {
	opts Options
	name string
}

var _ dme.Algorithm = (*Algorithm)(nil)

// New returns the algorithm with the given options.
func New(opts Options) *Algorithm {
	name := "arbiter"
	if opts.Monitor {
		name = "arbiter+monitor"
	}
	if opts.SeqNumbers {
		name += "+seq"
	}
	if opts.Priorities != nil {
		name += "+prio"
	}
	if opts.StrictFairness {
		name += "+fair"
	}
	if opts.AdaptiveWindow {
		name += "+adaptive"
	}
	if opts.Recovery.Enabled {
		name += "+recovery"
	}
	return &Algorithm{opts: opts, name: name}
}

// Name implements dme.Algorithm.
func (a *Algorithm) Name() string { return a.name }

// NewNode builds a single protocol participant, for deployments where
// each process hosts one node (the live runtime in internal/live). The
// simulation path uses Build instead, which constructs all N nodes in one
// address space.
func NewNode(id, n int, opts Options) (dme.Node, error) {
	if id < 0 || id >= n {
		return nil, fmt.Errorf("core: node id %d outside [0,%d)", id, n)
	}
	norm, err := opts.Normalize(n)
	if err != nil {
		return nil, err
	}
	return newNode(id, n, norm), nil
}

// Build implements dme.Algorithm. The dme Config's "treq" and "tfwd"
// params, when present, override the corresponding options so sweep
// harnesses can vary them without rebuilding the Algorithm value.
func (a *Algorithm) Build(cfg dme.Config) ([]dme.Node, error) {
	opts := a.opts
	if v, ok := cfg.Params["treq"]; ok {
		opts.Treq = v
	}
	if v, ok := cfg.Params["tfwd"]; ok {
		opts.Tfwd = v
	}
	opts, err := opts.Normalize(cfg.N)
	if err != nil {
		return nil, err
	}
	nodes := make([]dme.Node, cfg.N)
	for i := 0; i < cfg.N; i++ {
		nodes[i] = newNode(i, cfg.N, opts)
	}
	return nodes, nil
}
