package dme

import (
	"errors"
	"fmt"

	"tokenarbiter/internal/sim"
	"tokenarbiter/internal/stats"
)

// SafetyViolationError reports that two nodes were observed inside the
// critical section at the same virtual time — the one thing a mutual
// exclusion algorithm must never allow.
type SafetyViolationError struct {
	Time             float64
	Holder, Intruder NodeID
}

// Error implements error.
func (e *SafetyViolationError) Error() string {
	return fmt.Sprintf("dme: safety violation at t=%v: node %d entered the CS while node %d holds it",
		e.Time, e.Intruder, e.Holder)
}

// ErrLivenessTimeout is returned when a run exceeds Config.MaxVirtualTime
// before completing all issued requests — the liveness backstop.
var ErrLivenessTimeout = errors.New("dme: run exceeded MaxVirtualTime before all requests completed (liveness failure?)")

// ErrStalled is returned when the event queue drains while requests are
// still outstanding — a deadlock in the algorithm under test.
var ErrStalled = errors.New("dme: event queue drained with requests outstanding (algorithm deadlock?)")

// Simulation event kinds dispatched through the kernel's typed fast path
// (sim.PostCall/ScheduleCall). Every hot-path event — message delivery,
// CS completion, workload arrivals, protocol timers — carries its
// arguments inline in the event slot instead of in a per-event closure,
// which is where most of the old kernel's allocation pressure came from.
const (
	evDeliver     uint8 = iota + 1 // a=from, b=to, p=Message
	evSelfDeliver                  // a=node, b=incarnation, p=Message (zero-delay self-send)
	evCSExit                       // a=node, b=incarnation (arrival/entry times live on the Runner)
	evArrival                      // a=node (next workload arrival)
	evTimer                        // a=node, b=incarnation, fn=callback (Context.After)
)

// Runner executes one algorithm instance under one configuration. Create
// it with NewRunner, optionally inject external events (crashes, probes)
// with ScheduleAt, then call Run.
type Runner struct {
	cfg   Config
	sim   *sim.Simulator
	algo  Algorithm
	nodes []Node

	pending   []pendingQueue // per-node FIFO of request arrival times
	inCS      NodeID         // -1 when the CS is free
	csArrival float64        // arrival time of the request being served
	csEnter   float64        // entry time of the CS in progress

	planned   uint64 // arrivals reserved (scheduled or delivered)
	issued    uint64 // arrivals delivered to nodes
	completed uint64 // critical sections completed

	measuring   bool
	measureFrom float64
	met         Metrics

	// Per-kind message counters as parallel slices instead of a map:
	// protocols use a handful of distinct kinds and Kind() returns shared
	// string constants, so a linear probe is a few pointer-equal compares —
	// far cheaper than a map assign per message on the hot path. Run()
	// materializes these into Metrics.MsgByKind.
	kindNames  []string
	kindCounts []uint64

	crashed []bool
	fatal   error
	gens    []GeneratorFunc

	// incarnation[i] counts node i's Restarts. A node's timers, self-sends
	// and CS exit carry the incarnation that armed them and reach only
	// that incarnation.
	incarnation []int32

	// lastDelivery[from*N+to] is the latest delivery time scheduled on
	// that ordered pair, for Config.FIFO clamping.
	lastDelivery []float64
}

// pendingQueue is a slice-backed FIFO with an advancing head index, so a
// million pushes/pops don't thrash the allocator.
type pendingQueue struct {
	buf  []float64
	head int
}

func (q *pendingQueue) push(t float64) { q.buf = append(q.buf, t) }

func (q *pendingQueue) pop() (float64, bool) {
	if q.head >= len(q.buf) {
		return 0, false
	}
	t := q.buf[q.head]
	q.head++
	if q.head > 1024 && q.head*2 >= len(q.buf) {
		q.buf = append(q.buf[:0], q.buf[q.head:]...)
		q.head = 0
	}
	return t, true
}

func (q *pendingQueue) len() int { return len(q.buf) - q.head }

// NewRunner validates cfg, builds the algorithm's nodes and prepares the
// simulation without running it.
func NewRunner(algo Algorithm, cfg Config) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Delay == nil {
		cfg.Delay = sim.ConstantDelay{D: 0.1}
	}
	r := &Runner{
		cfg:     cfg,
		sim:     sim.New(cfg.Seed),
		algo:    algo,
		inCS:    -1,
		pending: make([]pendingQueue, cfg.N),
		crashed: make([]bool, cfg.N),
	}
	r.incarnation = make([]int32, cfg.N)
	r.met.MsgByKind = make(map[string]uint64)
	r.met.PerNodeCS = make([]uint64, cfg.N)
	r.met.PerNodeWait = make([]stats.Welford, cfg.N)
	if cfg.FIFO {
		r.lastDelivery = make([]float64, cfg.N*cfg.N)
	}
	r.measuring = cfg.WarmupRequests == 0
	r.sim.SetDispatcher(r)

	nodes, err := algo.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("dme: building %s: %w", algo.Name(), err)
	}
	if len(nodes) != cfg.N {
		return nil, fmt.Errorf("dme: %s built %d nodes, config wants %d", algo.Name(), len(nodes), cfg.N)
	}
	for i, n := range nodes {
		if n.ID() != i {
			return nil, fmt.Errorf("dme: %s node at index %d reports ID %d", algo.Name(), i, n.ID())
		}
	}
	r.nodes = nodes
	return r, nil
}

// Node returns the i-th node, for experiment scripts that need to inspect
// algorithm-specific state (type-asserting to the concrete node type).
func (r *Runner) Node(i NodeID) Node { return r.nodes[i] }

// Now returns the current virtual time.
func (r *Runner) Now() float64 { return r.sim.Now() }

// ScheduleAt registers an external event (fault injection, probes) at
// absolute virtual time t. Must be called before Run.
func (r *Runner) ScheduleAt(t float64, fn func()) {
	r.sim.PostAt(t, fn)
}

// Dispatch implements sim.Dispatcher: the typed event fast path. The
// bodies are verbatim ports of the closures they replace, so trajectories
// are bit-identical to the closure-based kernel (pinned by the golden
// determinism test).
func (r *Runner) Dispatch(kind uint8, a, b int32, x float64, p any, fn func()) {
	switch kind {
	case evDeliver:
		to := NodeID(b)
		if !r.crashed[to] {
			from := NodeID(a)
			msg := p.(Message)
			r.trace(TraceEvent{Time: r.sim.Now(), Kind: TraceDeliver, From: from, To: to, Msg: msg})
			r.nodes[to].OnMessage(r, from, msg)
		}
	case evSelfDeliver:
		node := NodeID(a)
		if r.up(node, b) {
			r.nodes[node].OnMessage(r, node, p.(Message))
		}
	case evCSExit:
		r.finishCS(NodeID(a), b)
	case evArrival:
		r.arrive(NodeID(a))
	case evTimer:
		if r.up(NodeID(a), b) {
			fn()
		}
	default:
		panic(fmt.Sprintf("dme: unknown simulation event kind %d", kind))
	}
}

// InjectRequest delivers one application request to node at the current
// virtual time. It is the scripted-workload alternative to Config.Gen:
// wrap calls in ScheduleAt and set Config.TotalRequests to the number of
// injections so the run drains exactly when all are served.
func (r *Runner) InjectRequest(node NodeID) {
	r.planned++
	r.issued++
	r.pending[node].push(r.sim.Now())
	if r.measuring {
		r.met.Issued++
	}
	r.trace(TraceEvent{Time: r.sim.Now(), Kind: TraceRequest, From: node})
	if !r.crashed[node] {
		r.nodes[node].OnRequest(r)
	} else {
		r.pending[node].pop()
		r.completed++
	}
}

func (r *Runner) trace(ev TraceEvent) {
	if r.cfg.Trace != nil {
		r.cfg.Trace(ev)
	}
}

// Crash marks a node as failed: all messages addressed to it are discarded
// on delivery and its pending timers are suppressed when they fire. The
// node's queued application requests are abandoned (completed vacuously)
// — a crashed client cannot be served, and the run must still drain.
func (r *Runner) Crash(node NodeID) {
	r.crashed[node] = true
	for {
		if _, ok := r.pending[node].pop(); !ok {
			break
		}
		r.completed++
	}
}

// Restart brings node back amnesiac, as the live path rebuilds one: the
// node is crashed, fresh takes its place and is Init'ed now. The old
// incarnation's timers, self-sends and CS exit never reach fresh;
// messages in flight to node do.
func (r *Runner) Restart(node NodeID, fresh Node) {
	if fresh.ID() != node {
		panic(fmt.Sprintf("dme: Restart(%d) with a node that reports ID %d", node, fresh.ID()))
	}
	r.Crash(node)
	r.crashed[node] = false
	r.incarnation[node]++
	r.nodes[node] = fresh
	fresh.Init(r)
}

// up reports whether an event armed by node's incarnation inc may reach
// it: the node is running and has not been restarted since.
func (r *Runner) up(node NodeID, inc int32) bool {
	return !r.crashed[node] && r.incarnation[node] == inc
}

// Crashed reports whether the node is currently marked failed.
func (r *Runner) Crashed(node NodeID) bool { return r.crashed[node] }

// Run executes the simulation: Init on every node, workload arrivals until
// Config.TotalRequests have been issued, then draining until every issued
// request has completed its critical section. It returns the collected
// metrics.
//
// A safety violation (two nodes in the CS) is returned as
// *SafetyViolationError. Exceeding MaxVirtualTime returns
// ErrLivenessTimeout; a drained event queue with outstanding requests
// returns ErrStalled.
func (r *Runner) Run() (met *Metrics, err error) {
	defer func() {
		// Safety violations abort the event loop via panic; convert the
		// typed ones back into errors and re-raise everything else.
		if p := recover(); p != nil {
			if sv, ok := p.(*SafetyViolationError); ok {
				met, err = nil, sv
				return
			}
			panic(p)
		}
	}()

	for _, n := range r.nodes {
		n.Init(r)
	}
	if r.cfg.Gen != nil {
		r.gens = make([]GeneratorFunc, r.cfg.N)
		for i := range r.nodes {
			if gen := r.cfg.Gen(i); gen != nil {
				r.gens[i] = gen
				r.scheduleArrival(i, gen)
			}
		}
	}

	stop := func() bool {
		if r.fatal != nil {
			return true
		}
		if r.cfg.MaxVirtualTime > 0 && r.sim.Now() > r.cfg.MaxVirtualTime {
			r.fatal = ErrLivenessTimeout
			return true
		}
		return r.planned >= r.cfg.TotalRequests &&
			r.issued == r.planned &&
			r.completed == r.issued
	}
	finished := r.sim.RunUntil(stop)
	if r.fatal != nil {
		return nil, r.fatal
	}
	if !finished && !stop() {
		return nil, fmt.Errorf("%w: issued=%d completed=%d at t=%v",
			ErrStalled, r.issued, r.completed, r.sim.Now())
	}
	r.met.EndTime = r.sim.Now()
	r.met.MeasuredTime = r.sim.Now() - r.measureFrom
	for i, name := range r.kindNames {
		r.met.MsgByKind[name] += r.kindCounts[i]
	}
	m := r.met
	return &m, nil
}

func (r *Runner) scheduleArrival(node NodeID, gen GeneratorFunc) {
	if r.planned >= r.cfg.TotalRequests {
		return
	}
	r.planned++
	delay := gen()
	r.sim.PostCall(delay, evArrival, int32(node), 0, 0, nil)
}

// arrive delivers one workload arrival (the evArrival event body).
func (r *Runner) arrive(node NodeID) {
	gen := r.gens[node]
	r.issued++
	r.pending[node].push(r.sim.Now())
	if r.measuring {
		r.met.Issued++
	}
	r.trace(TraceEvent{Time: r.sim.Now(), Kind: TraceRequest, From: node})
	if !r.crashed[node] {
		r.nodes[node].OnRequest(r)
	} else {
		// A crashed node cannot serve its application; the request
		// completes vacuously so the run can drain. Recovery
		// experiments restore nodes before draining when they want
		// the request actually served.
		r.pending[node].pop()
		r.completed++
		if r.cfg.ClosedLoop {
			r.scheduleArrival(node, gen)
		}
	}
	if !r.cfg.ClosedLoop {
		r.scheduleArrival(node, gen)
	}
}

// --- Context implementation -------------------------------------------

var _ Context = (*Runner)(nil)

// Send implements Context. Self-sends deliver after zero delay and are not
// counted as network messages.
func (r *Runner) Send(from, to NodeID, msg Message) {
	if to < 0 || to >= r.cfg.N {
		panic(fmt.Sprintf("dme: node %d sent %s to invalid node %d", from, msg.Kind(), to))
	}
	if from == to {
		r.sim.PostCall(0, evSelfDeliver, int32(to), r.incarnation[to], 0, msg)
		return
	}
	r.trace(TraceEvent{Time: r.sim.Now(), Kind: TraceSend, From: from, To: to, Msg: msg})
	r.countMessage(msg)
	if r.cfg.Fault == nil {
		r.deliver(from, to, msg, 0)
		return
	}
	fate := r.cfg.Fault(r.sim.Now(), from, to, msg)
	for _, extra := range fate.Delay[:fate.Copies] {
		r.deliver(from, to, msg, extra)
	}
}

// deliver schedules one copy of msg after the network's delay plus the
// fate's extra delay.
func (r *Runner) deliver(from, to NodeID, msg Message, extra float64) {
	delay := r.cfg.Delay.Delay(r.sim.RNG(), from, to) + extra
	if r.lastDelivery != nil {
		idx := from*r.cfg.N + to
		at := r.sim.Now() + delay
		if at < r.lastDelivery[idx] {
			at = r.lastDelivery[idx]
			delay = at - r.sim.Now()
		}
		r.lastDelivery[idx] = at
	}
	r.sim.PostCall(delay, evDeliver, int32(from), int32(to), 0, msg)
}

// Broadcast implements Context: N−1 point-to-point messages.
func (r *Runner) Broadcast(from NodeID, msg Message) {
	for to := 0; to < r.cfg.N; to++ {
		if to != from {
			r.Send(from, to, msg)
		}
	}
}

// After implements Context. The callback is suppressed if the node has
// crashed or restarted when the timer fires. The timer rides the typed
// event path: no wrapper closure, the cancellable record comes from the
// kernel's free-list pool, and the value Timer handle costs no allocation.
func (r *Runner) After(node NodeID, delay float64, fn func()) Timer {
	ev := r.sim.ScheduleCall(delay, evTimer, int32(node), r.incarnation[node], 0, nil, fn)
	return MakeTimer(r, ev.ID(), ev.Gen())
}

// CancelTimer implements TimerHost.
func (r *Runner) CancelTimer(id int32, gen uint32) { r.sim.CancelID(id, gen) }

// Cancel implements Context; safe on zero timers.
func (r *Runner) Cancel(t Timer) { t.Cancel() }

// EnterCS implements Context: asserts mutual exclusion, starts the
// critical section and schedules OnCSDone after Texec.
func (r *Runner) EnterCS(node NodeID) {
	if r.inCS != -1 {
		panic(&SafetyViolationError{Time: r.sim.Now(), Holder: r.inCS, Intruder: node})
	}
	arrival, ok := r.pending[node].pop()
	if !ok {
		panic(fmt.Sprintf("dme: node %d entered the CS with no pending request at t=%v", node, r.sim.Now()))
	}
	r.inCS = node
	r.csArrival = arrival
	r.csEnter = r.sim.Now()
	if r.cfg.Trace != nil {
		ev := TraceEvent{Time: r.csEnter, Kind: TraceEnterCS, From: node}
		if f, ok := r.nodes[node].(Fenced); ok {
			ev.Fence, ev.Epoch = f.GrantFence()
		}
		r.cfg.Trace(ev)
	}
	r.sim.PostCall(r.cfg.Texec, evCSExit, int32(node), r.incarnation[node], 0, nil)
}

// finishCS completes the critical section in progress (the evCSExit event
// body). The entry and arrival times live on the Runner rather than in
// the event: mutual exclusion guarantees at most one CS is in flight.
// OnCSDone reaches only the incarnation inc that entered.
func (r *Runner) finishCS(node NodeID, inc int32) {
	arrival, enterTime := r.csArrival, r.csEnter
	r.inCS = -1
	r.completed++
	r.trace(TraceEvent{Time: r.sim.Now(), Kind: TraceExitCS, From: node})
	if r.measuring {
		r.met.CSCompleted++
		r.met.PerNodeCS[node]++
		r.met.Waiting.Add(enterTime - arrival)
		r.met.PerNodeWait[node].Add(enterTime - arrival)
		r.met.Service.Add(r.sim.Now() - arrival)
	} else if r.completed >= r.cfg.WarmupRequests {
		r.measuring = true
		r.measureFrom = r.sim.Now()
	}
	if r.up(node, inc) {
		r.nodes[node].OnCSDone(r)
	}
	if r.cfg.ClosedLoop && r.gens != nil && r.gens[node] != nil {
		r.scheduleArrival(node, r.gens[node])
	}
}

func (r *Runner) countMessage(msg Message) {
	if !r.measuring {
		return
	}
	r.met.TotalMessages++
	kind := msg.Kind()
	counted := false
	for i, name := range r.kindNames {
		if name == kind {
			r.kindCounts[i]++
			counted = true
			break
		}
	}
	if !counted {
		r.kindNames = append(r.kindNames, kind)
		r.kindCounts = append(r.kindCounts, 1)
	}
	units := 1
	if s, ok := msg.(Sized); ok {
		units = s.SizeUnits()
		if units < 1 {
			units = 1
		}
	}
	r.met.TotalUnits += uint64(units)
}

// Run is the one-shot convenience wrapper: build a Runner and execute it.
func Run(algo Algorithm, cfg Config) (*Metrics, error) {
	r, err := NewRunner(algo, cfg)
	if err != nil {
		return nil, err
	}
	return r.Run()
}
