// Package live is the deployable runtime of the paper's arbiter
// algorithm: one Manager per process (or per goroutine cluster member)
// serving any number of named locks over one transport.Transport, with
// real wall-clock timers. Each lock key runs its own core protocol state
// machine inside a Node, the per-key engine. The state machine is built
// through a Factory (registry.CoreLiveFactory) and is the very same code
// the simulation validates; this package adapts it to real time and
// exposes a context-aware Lock/Unlock API whose grants carry fencing
// tokens.
//
// Typical use:
//
//	factory := registry.CoreLiveFactory(core.Options{Treq: 0.002, Tfwd: 0.002})
//	net := transport.NewMemNetwork(5, transport.MemOptions{})
//	mgrs := make([]*live.Manager, 5)
//	for i := range mgrs {
//	    mgrs[i], _ = live.NewManager(live.ManagerConfig{
//	        ID: i, N: 5, Transport: net.Endpoint(i), Factory: factory,
//	    })
//	}
//	...
//	if err := mgrs[2].Lock(ctx, "orders"); err != nil { ... }
//	defer mgrs[2].Unlock("orders")
//
// Node 0 mints every key's token and is its initial arbiter, matching
// the paper's initialization.
package live

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/reqtrace"
	"tokenarbiter/internal/telemetry"
	"tokenarbiter/internal/transport"
	"tokenarbiter/internal/wire"
)

// ErrClosed is returned by Lock when the node has been shut down.
var ErrClosed = errors.New("live: node is closed")

// Factory builds one node's core protocol state machine; newNode refuses
// a node of any other algorithm. The obs callback is the live runtime's
// observer fan-out (metrics, tracing, and the configured Logger), which
// the factory installs as core.Options.Observer —
// registry.CoreLiveFactory does. The type is an alias so
// internal/registry can produce factories without importing this
// package.
type Factory = func(id, n int, obs func(core.Event)) (dme.Node, error)

// config parameterizes one Node, the engine of a single lock. The
// Manager fills one in per key from its ManagerConfig, whose fields of
// the same names document them; only the package's engine-level tests
// construct a Node directly.
type config struct {
	ID, N int
	// Transport is the Manager's shared endpoint. The node sends on it,
	// each message tagged with Key; it neither receives from it (the
	// Manager's handler calls deliver) nor closes it.
	Transport transport.Transport
	Factory   Factory
	Logger    *slog.Logger
	// Metrics is the key's registry: protocol metrics and the key's
	// share of the traffic (transport.Tally's families). Nil creates a
	// private one.
	Metrics    *telemetry.Registry
	TraceDepth int
	// Key names the node's lock: it tags every frame the node sends and
	// labels its event records. Empty for a bare engine.
	Key       string
	Tracer    *reqtrace.Collector
	FlightRec *reqtrace.Recorder
	// Rejoin marks a restarted incarnation joining a group that is
	// already running (core.Options.Rejoin): it starts without minting
	// initial protocol state — in particular a restarted node 0 does not
	// resurrect the initial token, leaving invalidation and regeneration
	// to §6 recovery. The Manager sets it for incarnations after the
	// first.
	Rejoin bool
}

// DefaultTraceDepth is the event-trace ring capacity when
// ManagerConfig.TraceDepth is zero.
const DefaultTraceDepth = 256

// Executor states: the run-to-completion scheduler that replaces the old
// dedicated event-loop goroutine. Any goroutine that posts work and finds
// the executor idle CASes idle→running and executes the protocol step on
// its own stack — for inbound messages that is the transport's receive
// goroutine, so a token hop runs wire → decode → protocol → grant with no
// park/unpark in between. A poster that loses the CAS marks the state
// dirty instead; the owner re-drains before releasing, so no posted
// function is ever stranded. Closed is terminal: Close takes it and the
// state machine never runs again.
const (
	execIdle int32 = iota
	execRunning
	execDirty
	execClosed
)

// Node is one lock's live protocol participant: the per-key engine a
// Manager runs, handed out by Manager.Node for Inspect and Status. It is
// not a service — lifecycle, restart and the admin surface belong to the
// Manager. All protocol state (the inner
// dme.Node, waiters, holder, metrics' tenure clock) is guarded by
// the executor's mutual exclusion: exactly one goroutine owns the
// idle/running/dirty state machine at a time and only the owner touches
// protocol state. Which goroutine that is changes from step to step — a
// transport receive goroutine, a Lock caller, a timer — but the atomic
// state transitions order their accesses. The public API is safe for
// concurrent use from any goroutine.
type Node struct {
	cfg    config
	inner  dme.Node   // a core node: newNode checks
	fenced dme.Fenced // inner's grant fence and epoch
	tr     transport.Transport
	tally  *transport.Tally // this lock's share of the shared transport's traffic
	start  time.Time

	execState atomic.Int32

	mu           sync.Mutex
	queue        []step
	spare        []step    // drain's double buffer; owner-confined
	spareWaiters []*waiter // released waiters ready for reuse; guarded by mu

	// Executor-confined (owner-only) state.
	waiters   []*waiter
	holder    *waiter
	msgRecvAt time.Time // receive timestamp of the message being processed

	csDone func()                 // the executor step releasing a grant nobody took; bound once
	held   atomic.Pointer[waiter] // public-API view: the grant between its handoff and Unlock
	closed atomic.Bool
	quit   chan struct{}

	granted  atomic.Uint64
	released atomic.Uint64

	reg     *telemetry.Registry
	metrics *liveMetrics

	// The one event stream: each lifecycle point and protocol transition
	// is one reqtrace.Record handed to sinks — the ring, cfg.Tracer and
	// cfg.FlightRec, whichever are on; empty when none is.
	sinks    reqtrace.Sinks
	trace    *reqtrace.Ring // the ring among sinks; nil when TraceDepth < 0
	stamp    bool           // Tracer or FlightRec is on: mint trace IDs and stamp them on the wire
	traceSeq uint64         // executor-confined: request count, mirrors core's sequence numbering

	timersMu   sync.Mutex
	timers     []liveTimer  // the timer slab, indexed by handle id
	freeTimers []int32      // slab slots ready for reuse
	laxArmed   atomic.Int32 // armed lax slots; written under timersMu
}

// step is one executor queue entry: a function to run, or, when fn is
// nil, the delivery of msg from a peer (or from this node itself) to the
// protocol state machine. Deliveries are plain values so that an inbound
// message or a self-send costs no closure.
type step struct {
	fn     func()
	from   dme.NodeID
	msg    dme.Message
	recvAt time.Time // transport receive time; zero for a self-send
}

// GrantFunc receives one lock request's outcome (see Manager.LockFunc):
// the grant's fencing token, or the error that ended the request. For a
// grant it reports whether it takes it; a grant it does not take is
// released at once, on the executor, and the request is over. Its
// answer to an error is ignored.
//
// A grant is handed over on the executor of the key's node, under the
// executor's exclusion, wherever the grant happened: a transport receive
// goroutine, a timer, an Unlock caller. So there it must not block, and
// must not Unlock, Lock or Close anything of the key: the step it runs
// in cannot finish until it returns. Issuing the next request with
// LockFunc is fine; it queues and returns. An error is handed over on an
// unspecified goroutine (the one that found the key could not be made,
// or that closed the node), with no lock of the key held.
type GrantFunc func(fence uint64, err error) bool

// waiter tracks one lock request from issuance to grant, and on to the
// Unlock that releases it. EnterCS hands a LockFunc request's grant to
// its callback, cb, and a LockFence call's to sig, where the caller
// parks at once: a grant its own post produced inline is already in the
// buffered channel, so the receive returns without parking, and any
// other grant is at least a token hop or a collection window away.
//
// Waiters are recycled on the grant path: the Unlock that releases one
// returns it to the node once its release step has run (EnterCS returns
// a LockFunc grant its callback declined, unless an Unlock took it
// first), and the next request reuses it with its channel and bound
// steps. A waiter whose Lock call gave up is never recycled; its grant
// may still be coming.
type waiter struct {
	// sig carries one token per phase, in order: the grant (EnterCS,
	// LockFence only), then the completion of the Unlock releasing it
	// (release).
	sig       chan struct{}
	cb        GrantFunc   // LockFunc's callback; nil for a LockFence call
	enqueue   func()      // executor step queueing this waiter; bound once
	release   func()      // Unlock's executor step; bound once
	granted   bool        // executor-confined
	canceled  bool        // executor-confined
	fence     uint64      // fencing token of the grant, set before the grant's token is sent
	epoch     uint64      // the grant's token epoch, for its records
	trace     reqtrace.ID // end-to-end trace ID, zero when tracing is off
	issuedAt  time.Time   // Lock call time, for the lock-wait histogram
	grantedAt time.Time   // grant time, for the CS-hold histogram
}

// newNode builds and starts a live node: the protocol state machine is
// built by the configured factory and initialized (node 0 mints the
// token) under the executor's exclusion. Inbound frames reach it only
// once its owner calls deliver, so a node is complete before any can.
// NewManager has checked the transport and the factory.
func newNode(cfg config) (*Node, error) {
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	metrics := newLiveMetrics(reg)
	if cfg.ID == 0 {
		// Node 0 is the initial arbiter (Init designates it without a
		// became-arbiter event); its first tenure starts now.
		metrics.tenureStart = time.Now()
	}
	// Nil checks on the typed pointers: a disabled sink must not enter the
	// list as a non-nil interface.
	var out reqtrace.Sinks
	var ring *reqtrace.Ring
	if cfg.TraceDepth >= 0 {
		depth := cfg.TraceDepth
		if depth == 0 {
			depth = DefaultTraceDepth
		}
		ring = reqtrace.NewRing(depth)
		out = append(out, ring)
	}
	if cfg.Tracer != nil {
		out = append(out, cfg.Tracer)
	}
	if cfg.FlightRec != nil {
		out = append(out, cfg.FlightRec)
	}

	// Metrics, tracing, and the configured logger all share the one
	// observer fan-out handed to the factory, so none displaces another.
	var userObs func(core.Event)
	if cfg.Logger != nil {
		logger := cfg.Logger.With("node", cfg.ID)
		userObs = func(ev core.Event) {
			level := slog.LevelInfo
			switch ev.Kind {
			case core.EventTokenPassed, core.EventRequestForwarded,
				core.EventRequestDropped, core.EventRequestRetransmitted:
				level = slog.LevelDebug
			}
			logger.Log(context.Background(), level, "protocol "+ev.Kind.String(),
				"arbiter", ev.Arbiter,
				"batch", ev.Batch,
				"epoch", ev.Epoch,
				"fence", ev.Fence,
			)
		}
	}
	// Protocol transitions become records once, for every sink, on the
	// lifecycle records' clock; with no sink on, no observer joins for them.
	var recObs func(core.Event)
	if len(out) > 0 {
		recObs = reqtrace.CoreObserver(out, cfg.Key, reqtrace.Now)
	}
	obs := core.FanOut(metrics.observer(), recObs, userObs)

	inner, err := cfg.Factory(cfg.ID, cfg.N, obs)
	if err != nil {
		return nil, err
	}
	if inner == nil {
		return nil, errors.New("live: factory returned a nil node")
	}
	if inner.ID() != cfg.ID {
		return nil, fmt.Errorf("live: factory built node %d, want %d", inner.ID(), cfg.ID)
	}
	// Core is the one algorithm the runtime runs: its grants carry the
	// fences Lock returns, and its state is what Inspect reports.
	if _, ok := core.Inspect(inner); !ok {
		return nil, fmt.Errorf("live: factory built a %T, not a core node", inner)
	}
	if cfg.Rejoin {
		// Must happen before Init is posted below: rejoin changes what
		// Init sets up (no initial token for a restarted incarnation).
		if r, ok := inner.(interface{ MarkRejoin() }); ok {
			r.MarkRejoin()
		}
	}
	n := &Node{
		cfg:     cfg,
		inner:   inner,
		fenced:  inner.(dme.Fenced),
		tr:      cfg.Transport,
		tally:   transport.NewTally(reg),
		start:   time.Now(),
		quit:    make(chan struct{}),
		reg:     reg,
		metrics: metrics,
		sinks:   out,
		trace:   ring,
		stamp:   cfg.Tracer != nil || cfg.FlightRec != nil,
	}
	n.csDone = func() { n.inner.OnCSDone(n) }
	n.post(func() { n.inner.Init(n) })
	return n, nil
}

// deliver hands the node one inbound frame of its lock, the key tag
// already split off by the Manager's handler.
func (n *Node) deliver(from dme.NodeID, msg dme.Message) {
	if from != n.cfg.ID {
		n.tally.CountReceived(msg)
	}
	// Trace context rides a wire wrapper; the protocol state machine
	// sees only the bare message, traced or not.
	msg, _ = wire.SplitTrace(msg)
	// When the executor is free this runs the protocol step inline on
	// the transport's receive goroutine (see post); recvAt feeds the
	// handoff_latency_seconds histogram if the step grants the CS.
	n.postStep(step{from: from, msg: msg, recvAt: time.Now()})
}

// ID returns the node's identity.
func (n *Node) ID() int { return n.cfg.ID }

// post schedules fn under the executor's exclusion. If the executor is
// idle the calling goroutine takes ownership and runs fn (and anything
// queued behind it) to completion on its own stack; if another goroutine
// owns the executor, fn is left on the queue and the owner is marked
// dirty so it re-drains before releasing. Posting from inside an
// inline-executed step is always the second case — the owner is the
// poster itself — so the fn runs after the current step returns, exactly
// the deferred semantics protocol code (self-sends, OnCSDone handoffs)
// relies on. post never deadlocks and never parks.
func (n *Node) post(fn func()) { n.postStep(step{fn: fn}) }

// postStep is post for any queue entry, a message delivery included.
func (n *Node) postStep(s step) {
	if n.closed.Load() {
		return
	}
	n.mu.Lock()
	n.queue = append(n.queue, s)
	n.mu.Unlock()
	n.schedule()
}

// schedule resolves who executes the queued work: idle → this goroutine
// (CAS to running and drain), running → flag dirty so the owner drains
// again, dirty/closed → nothing to do.
func (n *Node) schedule() {
	for {
		switch n.execState.Load() {
		case execIdle:
			if n.execState.CompareAndSwap(execIdle, execRunning) {
				n.runExecutor()
				return
			}
		case execRunning:
			if n.execState.CompareAndSwap(execRunning, execDirty) {
				return
			}
		case execDirty, execClosed:
			return
		}
	}
}

// runExecutor drains the queue, then releases ownership — unless a
// poster flagged dirty mid-drain, in which case the release CAS fails
// and the owner reclaims running and drains again. The failed CAS is
// the lost-wakeup guard: a poster either enqueues before our final
// empty-queue check (we run it) or flags dirty after (we loop).
func (n *Node) runExecutor() {
	for {
		n.drain()
		if n.execState.CompareAndSwap(execRunning, execIdle) {
			return
		}
		n.execState.Store(execRunning)
	}
}

// drain runs queued steps in FIFO order until the queue is empty,
// swapping the queue against a retained spare buffer so steady-state
// batches allocate and copy nothing. Caller must own the executor.
func (n *Node) drain() {
	for {
		n.mu.Lock()
		if len(n.queue) == 0 {
			n.mu.Unlock()
			return
		}
		batch := n.queue
		n.queue = n.spare[:0]
		n.mu.Unlock()
		for i := range batch {
			s := batch[i]
			batch[i] = step{} // the spare buffer must not keep the closure or message alive
			n.run(s)
		}
		n.spare = batch[:0]
	}
}

// run executes one step, after any lax timer whose deadline has passed.
// A delivery brackets OnMessage with its receive time, which EnterCS
// reads for the handoff latency.
func (n *Node) run(s step) {
	if n.laxArmed.Load() > 0 {
		n.runDueLax()
	}
	if s.fn != nil {
		s.fn()
		return
	}
	n.msgRecvAt = s.recvAt
	n.inner.OnMessage(n, s.from, s.msg)
	n.msgRecvAt = time.Time{}
}

// Lock acquires the distributed mutex, blocking until the token grants
// this node the critical section or ctx is cancelled. On cancellation the
// request stays in the system (the protocol has no un-request message);
// if it is granted later the grant is released immediately.
func (n *Node) Lock(ctx context.Context) error {
	_, err := n.LockFence(ctx)
	return err
}

// LockFence is Lock returning the grant's fencing token: a counter that
// increases with every critical-section grant across the cluster,
// including across §6 token regenerations. A resource that stores the
// highest fence it has accepted can reject operations from a holder that
// stalled while the system recovered past it — the standard defense
// against the paused-lock-holder hazard of distributed locks.
func (n *Node) LockFence(ctx context.Context) (uint64, error) {
	if n.closed.Load() {
		return 0, ErrClosed
	}
	w := n.newWaiter()
	w.issuedAt = time.Now()
	n.metrics.lockWaiters.Add(1)
	n.post(w.enqueue)
	select {
	case <-w.sig:
	case <-ctx.Done():
		// select picks at random among ready cases. A grant already in
		// sig, above all one this call's own post made inline, is
		// returned, not thrown back; only a grant still to come loses.
		select {
		case <-w.sig:
		default:
			n.metrics.lockWaiters.Add(-1)
			n.metrics.lockCancels.Inc()
			n.post(func() {
				if w.granted {
					// The grant raced the cancellation: give the CS back.
					n.finishCS(w)
				} else {
					w.canceled = true
				}
			})
			return 0, ctx.Err()
		}
	case <-n.quit:
		n.metrics.lockWaiters.Add(-1)
		return 0, ErrClosed
	}
	n.metrics.lockWaiters.Add(-1)
	n.metrics.lockWait.ObserveEx(time.Since(w.issuedAt).Seconds(), uint64(w.trace))
	fence := w.fence
	n.held.Store(w)
	return fence, nil
}

// lockFunc queues one request whose grant EnterCS hands to grant (see
// Manager.LockFunc). It reports false, queueing nothing, once the node
// is closed: the closed check and the append share mu, so a request
// either lands before Close's last drain, and Close finds it, or not at
// all.
func (n *Node) lockFunc(grant GrantFunc) bool {
	w := n.newWaiter()
	w.cb = grant
	w.issuedAt = time.Now()
	n.metrics.lockWaiters.Add(1)
	n.mu.Lock()
	closed := n.closed.Load()
	if !closed {
		n.queue = append(n.queue, step{fn: w.enqueue})
	}
	n.mu.Unlock()
	if closed {
		n.metrics.lockWaiters.Add(-1)
		n.recycle(w)
		return false
	}
	n.schedule()
	return true
}

// newWaiter returns a recycled waiter, or builds one with its channel
// and its two executor steps bound once.
func (n *Node) newWaiter() *waiter {
	n.mu.Lock()
	if k := len(n.spareWaiters); k > 0 {
		w := n.spareWaiters[k-1]
		n.spareWaiters[k-1] = nil
		n.spareWaiters = n.spareWaiters[:k-1]
		n.mu.Unlock()
		return w
	}
	n.mu.Unlock()
	w := &waiter{sig: make(chan struct{}, 1)}
	w.enqueue = func() { n.enqueue(w) }
	w.release = func() { n.release(w) }
	return w
}

// recycle resets a released waiter and keeps it for the next request.
// Unlock calls it after receiving the release step's token, and EnterCS
// for a grant its callback declined and no Unlock took: the executor has
// let go of w by then (EnterCS popped it, finishCS or EnterCS cleared
// the holder) and its channel is empty.
func (n *Node) recycle(w *waiter) {
	w.cb = nil
	w.granted, w.canceled = false, false
	w.fence, w.epoch, w.trace = 0, 0, 0
	w.issuedAt, w.grantedAt = time.Time{}, time.Time{}
	n.mu.Lock()
	n.spareWaiters = append(n.spareWaiters, w)
	n.mu.Unlock()
}

// enqueue is LockFence's executor step: w joins the local waiters and
// the protocol hears one request.
func (n *Node) enqueue(w *waiter) {
	// Mint the trace ID under the executor, where the request count is exact:
	// one OnRequest per waiter in posting order is precisely how the
	// core protocol assigns sequence numbers, so remote observers can
	// re-derive the same ID from the QEntry they see (core.RequestID).
	if n.stamp {
		n.traceSeq++
		w.trace = reqtrace.MakeID(n.cfg.ID, n.traceSeq)
	}
	n.emit(reqtrace.EvRequest, w)
	n.waiters = append(n.waiters, w)
	n.inner.OnRequest(n)
}

// Unlock releases the critical section acquired by Lock; when it returns,
// the node has handed the token onward. Unlocking a node that is not
// holding panics, mirroring sync.Mutex semantics. Do not call Unlock from
// inside protocol callbacks (there is no reason to).
func (n *Node) Unlock() {
	w := n.held.Swap(nil)
	if w == nil {
		panic("live: Unlock of a node that is not holding the critical section")
	}
	n.post(w.release)
	select {
	case <-w.sig:
		n.recycle(w)
	case <-n.quit:
	}
}

// release is Unlock's executor step for the grant w was handed: finish
// the critical section, then signal the Unlock waiting on w.
func (n *Node) release(w *waiter) {
	if n.holder != nil {
		n.finishCS(n.holder)
	}
	w.sig <- struct{}{}
}

// finishCS completes the critical section held by w (executor-owned
// context only).
func (n *Node) finishCS(w *waiter) {
	if n.holder == w {
		n.holder = nil
	}
	w.granted = false
	n.released.Add(1)
	n.metrics.releases.Inc()
	if !w.grantedAt.IsZero() {
		n.metrics.csHold.ObserveEx(time.Since(w.grantedAt).Seconds(), uint64(w.trace))
	}
	n.emit(reqtrace.EvRelease, w)
	n.inner.OnCSDone(n)
}

// emit hands one lock-lifecycle record for w to the sinks, on the clock
// the protocol-transition records share (executor-owned context only).
// With every sink off it is one length test.
func (n *Node) emit(ev string, w *waiter) {
	if len(n.sinks) == 0 {
		return
	}
	n.sinks.Record(reqtrace.Record{
		T: reqtrace.Now(), Ev: ev, Node: n.cfg.ID, Peer: -1,
		Key: n.cfg.Key, Trace: w.trace, Fence: w.fence, Epoch: w.epoch,
	})
}

// Stats reports how many critical sections this node has been granted
// and has released.
func (n *Node) Stats() (granted, released uint64) {
	return n.granted.Load(), n.released.Load()
}

// Metrics returns the node's telemetry registry: its key's registry on a
// Manager (Manager.Registry). Protocol metrics (token passes, tenures,
// lock-wait and CS-hold histograms, recovery activity) and the key's
// traffic tallies accumulate here.
func (n *Node) Metrics() *telemetry.Registry { return n.reg }

// Trace returns the ring buffer of recent event records, or nil when
// ManagerConfig.TraceDepth is negative.
func (n *Node) Trace() *reqtrace.Ring { return n.trace }

// Requests returns the request-trace collector from ManagerConfig.Tracer, or
// nil when request tracing is disabled. Safe to pass to the admin
// surfaces either way — the collector's methods are nil-safe.
func (n *Node) Requests() *reqtrace.Collector { return n.cfg.Tracer }

// Inspect returns a read-only snapshot of the protocol state, taken
// under the executor's exclusion.
func (n *Node) Inspect(ctx context.Context) (core.Introspection, error) {
	ch := make(chan core.Introspection, 1)
	n.post(func() {
		ins, _ := core.Inspect(n.inner) // newNode checked inner is core's
		ch <- ins
	})
	select {
	case ins := <-ch:
		return ins, nil
	case <-ctx.Done():
		return core.Introspection{}, ctx.Err()
	case <-n.quit:
		return core.Introspection{}, ErrClosed
	}
}

// Close shuts the node down: the executor is retired, pending Lock calls
// fail with ErrClosed, and the callbacks of pending LockFunc requests
// then hear ErrClosed. The shared transport is the Manager's and stays
// up. A crashed node is simulated by Close — the
// rest of the cluster recovers via the §6 protocol when recovery options
// are enabled. Close is idempotent and
// safe to race with the public API (Lock returns ErrClosed, Unlock of a
// closed node returns once the holder bookkeeping is dropped), which is
// what lets Manager.RestartKey and Manager.Close kill a node out from
// under its users. With any sink on, Close ends the node's record
// stream with a close record: its grant and its waits are over.
// Do not call Close from protocol callbacks or from inside an
// inline-executed step: it waits for the executor to go idle, and the
// owner waiting on itself would spin forever (the old event loop had
// the same restriction — Close joined the loop goroutine).
func (n *Node) Close() error {
	for _, grant := range n.shutdown() {
		grant(0, ErrClosed)
	}
	return nil
}

// shutdown is Close without the callbacks: it retires the node and
// returns the callbacks of the LockFunc requests left waiting for a
// grant, for the caller to end or to reissue (Manager.RestartKey).
func (n *Node) shutdown() []GrantFunc {
	if !n.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(n.quit)
	// Take the executor terminally: once the CAS lands no goroutine runs
	// protocol code again.
	// A foreign owner mid-step finishes its drain first; closed is
	// already set, so the queue it races against is bounded.
	for i := 0; !n.execState.CompareAndSwap(execIdle, execClosed); i++ {
		if i < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(10 * time.Microsecond)
		}
	}
	// Run what was enqueued before closed flipped — the old loop drained
	// its queue before exiting on quit, and posted completions (Unlock's
	// done) should not silently vanish when they lost that race.
	n.drain()
	var pending []GrantFunc
	for _, w := range n.waiters {
		if w.cb != nil {
			n.metrics.lockWaiters.Add(-1)
			pending = append(pending, w.cb)
		}
	}
	n.waiters = nil
	if len(n.sinks) > 0 {
		n.sinks.Record(reqtrace.Record{T: reqtrace.Now(), Ev: reqtrace.EvClose, Node: n.cfg.ID, Peer: -1, Key: n.cfg.Key})
	}
	return pending
}

// --- dme.Context implementation (executor-owned context only) -----------

var (
	_ dme.Context        = (*Node)(nil)
	_ dme.LaxContext     = (*Node)(nil)
	_ dme.TimerTightener = (*Node)(nil)
)

// Send implements dme.Context.
func (n *Node) Send(from, to dme.NodeID, msg dme.Message) {
	if to == n.cfg.ID {
		n.postStep(step{from: from, msg: msg})
		return
	}
	// Stamp outbound protocol messages with the trace ID of the request
	// they serve, derived from the QEntry the message carries — the same
	// ID the requester minted at Lock entry. Only when tracing or flight
	// recording is on. Messages that serve the group rather than one
	// request go out unstamped.
	var trace uint64
	if n.stamp {
		if node, seq, ok := core.RequestID(msg); ok {
			trace = uint64(reqtrace.MakeID(node, seq))
		}
	}
	n.tally.CountSent(msg)
	// Best-effort: transport errors are equivalent to message loss,
	// which the protocol already tolerates.
	_ = n.tr.Send(to, wire.Wrap(msg, wire.WithKey(n.cfg.Key), wire.WithTrace(trace)))
}

// Broadcast implements dme.Context.
func (n *Node) Broadcast(from dme.NodeID, msg dme.Message) {
	for to := 0; to < n.cfg.N; to++ {
		if to != from {
			n.Send(from, to, msg)
		}
	}
}

// liveTimer is one slot of the node's timer slab. A dme.Timer handle
// names a slot by id and an arming by gen, the way the simulator
// kernel's event records do: every After bumps gen, so a handle kept
// past its timer's firing, or past its cancellation, misses the slot's
// next arming. Delays at or above shortTimerCutoff ride the slot's own
// runtime timer, built on its first such arming and re-armed with Reset;
// shorter ones — the sub-millisecond Treq/Tfwd protocol phases, whose
// firing precision bounds the dispatch cycle — go to the short-timer
// service, unless they are armed lax (AfterLax): a lax short timer has
// no firing of its own and runs before the node's first step after its
// deadline, or goes to the short-timer service when TightenTimer asks.
// Either way the slot's fire and step functions are bound once, so
// arming a timer allocates nothing once the slab has grown to the node's
// timer concurrency.
//
// An armed slot belongs to its pending firing until it is freed: by its
// step (fired), by its fire (cancelled before it fired), or by Cancel
// when no firing is left — a lax slot's, or a runtime timer's that Stop
// caught. Cancel only sets the flag otherwise, and the step, which runs
// under the executor, reads it; that closes the race between a timer
// firing and the protocol cancelling it. All fields are guarded by
// Node.timersMu.
type liveTimer struct {
	fn       func() // the protocol callback; nil while the slot is free
	gen      uint32
	canceled bool
	due      time.Time   // deadline of a short delay; zero for longer ones
	lax      bool        // a short delay waiting for a step or a Tighten
	t        *time.Timer // the slot's runtime timer, once it needed one
	fire     func()      // runs when the delay elapses, off the executor
	step     func()      // fire's posted executor step
}

// After implements dme.Context: delay is in seconds, matching the
// simulation's time unit.
func (n *Node) After(_ dme.NodeID, delay float64, fn func()) dme.Timer {
	return n.arm(delay, fn, false)
}

// AfterLax implements dme.LaxContext. A short lax delay costs no timer:
// the callback runs before the first executor step that starts after the
// deadline, the first moment protocol code could see what it changed. A
// longer one is armed as After arms it.
func (n *Node) AfterLax(_ dme.NodeID, delay float64, fn func()) dme.Timer {
	return n.arm(delay, fn, true)
}

func (n *Node) arm(delay float64, fn func(), lax bool) dme.Timer {
	d := time.Duration(delay * float64(time.Second))
	n.timersMu.Lock()
	id := n.allocTimerLocked()
	lt := &n.timers[id]
	lt.gen++
	lt.fn = fn
	lt.canceled = false
	lt.due = time.Time{}
	lt.lax = false
	gen, fire := lt.gen, lt.fire
	if d >= shortTimerCutoff {
		if lt.t == nil {
			lt.t = time.AfterFunc(d, fire)
		} else {
			lt.t.Reset(d)
		}
		n.timersMu.Unlock()
		return dme.MakeTimer(n, id, gen)
	}
	due := time.Now().Add(d)
	lt.due = due
	if lax {
		lt.lax = true
		n.laxArmed.Add(1)
		n.timersMu.Unlock()
		return dme.MakeTimer(n, id, gen)
	}
	n.timersMu.Unlock()
	shortTimers.at(due, fire)
	return dme.MakeTimer(n, id, gen)
}

// runDueLax runs the lax timers whose deadline has passed, in slot
// order, each on a slot already freed as runTimer frees one. Caller owns
// the executor.
func (n *Node) runDueLax() {
	now := time.Now()
	n.timersMu.Lock()
	for id := range n.timers {
		lt := &n.timers[id]
		if !lt.lax || lt.due.After(now) {
			continue
		}
		fn := lt.fn
		n.clearLaxLocked(lt)
		n.freeTimerLocked(int32(id))
		n.timersMu.Unlock()
		fn()
		n.timersMu.Lock()
	}
	n.timersMu.Unlock()
}

// clearLaxLocked ends a slot's lax wait. Caller holds timersMu.
func (n *Node) clearLaxLocked(lt *liveTimer) {
	lt.lax = false
	n.laxArmed.Add(-1)
}

// allocTimerLocked takes a free slab slot, growing the slab when every
// slot is armed. Caller holds timersMu.
func (n *Node) allocTimerLocked() int32 {
	if k := len(n.freeTimers); k > 0 {
		id := n.freeTimers[k-1]
		n.freeTimers = n.freeTimers[:k-1]
		return id
	}
	id := int32(len(n.timers))
	n.timers = append(n.timers, liveTimer{
		fire: func() { n.fireTimer(id) },
		step: func() { n.runTimer(id) },
	})
	return id
}

// freeTimerLocked returns a slot to the free list. Caller holds
// timersMu.
func (n *Node) freeTimerLocked(id int32) {
	n.timers[id].fn = nil
	n.freeTimers = append(n.freeTimers, id)
}

// fireTimer runs when slot id's delay elapses: it posts the slot's step,
// or frees the slot if the timer was cancelled first.
func (n *Node) fireTimer(id int32) {
	n.timersMu.Lock()
	lt := &n.timers[id]
	if lt.canceled {
		n.freeTimerLocked(id)
		n.timersMu.Unlock()
		return
	}
	due, step := lt.due, lt.step
	n.timersMu.Unlock()
	if !due.IsZero() {
		n.metrics.timerLateness.Observe(time.Since(due).Seconds())
	}
	n.post(step)
}

// runTimer is a fired timer's executor step: free the slot, then run the
// callback unless a Cancel landed after the fire. The slot is free
// before the callback runs, so a callback that re-arms may get the same
// slot back under a new generation.
func (n *Node) runTimer(id int32) {
	n.timersMu.Lock()
	lt := &n.timers[id]
	fn, canceled := lt.fn, lt.canceled
	n.freeTimerLocked(id)
	n.timersMu.Unlock()
	if !canceled {
		fn()
	}
}

// CancelTimer implements dme.TimerHost. Stale handles (the slot fired,
// was cancelled, or was re-armed since) are no-ops.
func (n *Node) CancelTimer(id int32, gen uint32) {
	n.timersMu.Lock()
	defer n.timersMu.Unlock()
	if id < 0 || int(id) >= len(n.timers) {
		return
	}
	lt := &n.timers[id]
	if lt.fn == nil || lt.gen != gen || lt.canceled {
		return
	}
	lt.canceled = true
	switch {
	case lt.lax:
		n.clearLaxLocked(lt)
		n.freeTimerLocked(id)
	case lt.due.IsZero() && lt.t.Stop():
		// The runtime timer will not fire: nothing else holds the slot.
		n.freeTimerLocked(id)
	}
}

// TightenTimer implements dme.TimerTightener. A lax short timer goes to
// the short-timer service at its original deadline; if the deadline has
// passed already, its step is posted at once, so from inside an executor
// step it runs right after that step. Stale, cancelled, fired, precise
// and long-delay handles are no-ops.
func (n *Node) TightenTimer(id int32, gen uint32) {
	n.timersMu.Lock()
	if id < 0 || int(id) >= len(n.timers) {
		n.timersMu.Unlock()
		return
	}
	lt := &n.timers[id]
	if lt.fn == nil || lt.gen != gen || !lt.lax {
		n.timersMu.Unlock()
		return
	}
	n.clearLaxLocked(lt)
	due, fire, step := lt.due, lt.fire, lt.step
	n.timersMu.Unlock()
	if time.Until(due) > 0 {
		shortTimers.at(due, fire)
	} else {
		n.post(step)
	}
}

// Cancel implements dme.Context.
func (n *Node) Cancel(t dme.Timer) { t.Cancel() }

// EnterCS implements dme.Context: the protocol granted us the critical
// section; hand it to the oldest live request. A LockFunc grant is
// published as held before its callback runs, since a callback that
// takes it may see it released from another goroutine before it
// returns. A grant nobody takes — its Lock call gave up, or its LockFunc
// callback declined — is released here, on the executor: an Unlock
// would wait on the very step this is.
func (n *Node) EnterCS(_ dme.NodeID) {
	if len(n.waiters) == 0 {
		// No waiter (should not happen: one OnRequest per waiter); release.
		n.post(n.csDone)
		return
	}
	// Pop by shifting: the queue holds a few waiters, and keeping its
	// backing array spares the next append a reallocation.
	w := n.waiters[0]
	last := len(n.waiters) - 1
	copy(n.waiters, n.waiters[1:])
	n.waiters[last] = nil
	n.waiters = n.waiters[:last]
	// Read before the handoff: a grant given back consumed a real fence
	// too, and its records must say which.
	w.fence, w.epoch = n.fenced.GrantFence()
	n.granted.Add(1)
	n.metrics.grants.Inc()
	n.emit(reqtrace.EvGrant, w)
	if !w.canceled {
		w.granted = true
		w.grantedAt = time.Now()
		n.holder = w
		if !n.msgRecvAt.IsZero() {
			// This grant was produced by processing an inbound message
			// (a token arrival): receive-to-grant is the handoff latency
			// the inline executor exists to shrink.
			n.metrics.handoff.Observe(w.grantedAt.Sub(n.msgRecvAt).Seconds())
		}
		if w.cb == nil {
			// Publish the grant: everything the LockFence caller reads
			// (fence, grantedAt) is written above, and the send orders
			// it. The channel is buffered and this is its only token
			// until Unlock, so the send never blocks.
			w.sig <- struct{}{}
			return
		}
		n.metrics.lockWaiters.Add(-1)
		n.metrics.lockWait.ObserveEx(time.Since(w.issuedAt).Seconds(), uint64(w.trace))
		n.held.Store(w)
		if w.cb(w.fence, nil) {
			return
		}
		if !n.held.CompareAndSwap(w, nil) {
			// An Unlock took the grant while the callback ran (a stale
			// one: nobody took it here). Its release step, queued behind
			// this one, finishes the CS and hands w back for recycling.
			return
		}
		n.holder = nil
		w.granted = false
	}
	// Give the CS back. Posted rather than called inline so the
	// protocol's EnterCS call finishes before OnCSDone runs.
	n.released.Add(1)
	n.metrics.releases.Inc()
	// Close the trace: the grant existed, however briefly.
	n.emit(reqtrace.EvRelease, w)
	n.post(n.csDone)
	if !w.canceled {
		n.recycle(w) // declined: nothing else holds a LockFunc waiter
	}
}
