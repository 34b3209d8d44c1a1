package core

import (
	"hash/fnv"
	"testing"

	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/sim"
	"tokenarbiter/internal/workload"
)

// adaptiveOptions is the tuning the adaptive-window handler tests share:
// a retransmit timeout so the from-idle grant's timer hygiene is visible,
// and distinct phase lengths so a captured timer identifies itself by its
// delay.
func adaptiveOptions() Options {
	return Options{Treq: 0.1, Tfwd: 0.2, RetransmitTimeout: 5, AdaptiveWindow: true}
}

// liveTimers returns the delays of the timers still pending on ctx.
func (c *fakeCtx) liveTimers() []float64 {
	var out []float64
	for _, ft := range c.timer {
		if !ft.canceled {
			out = append(out, ft.delay)
		}
	}
	return out
}

// TestIdleArbiterDispatchesAtOnce: the rule itself. An idle arbiter whose
// history is singletons grants its own request inside OnRequest — no
// window, and no retransmit timer left behind on the request state that
// has already gone back to the pool (hazard (a) of the change:
// issueRequest used to arm it after acceptRequest returned). A node with
// no history at all has no evidence of light load and waits the paper's
// window once.
func TestIdleArbiterDispatchesAtOnce(t *testing.T) {
	var events []Event
	opts := adaptiveOptions()
	opts.Observer = func(ev Event) { events = append(events, ev) }
	ctx := newFakeCtx(t, 3)
	nd := testNode(t, 0, 3, opts)
	nd.Init(ctx)

	// Cold: the first batch this node ever sees is collected as the
	// paper says.
	nd.OnRequest(ctx)
	if len(ctx.inCS) != 0 || !nd.windowTimer.Armed() {
		t.Fatalf("cold arbiter: inCS=%v windowArmed=%v, want the request waiting in a window", ctx.inCS, nd.windowTimer.Armed())
	}
	ctx.firePending()
	if len(ctx.inCS) != 1 {
		t.Fatalf("first window did not grant (inCS=%v)", ctx.inCS)
	}
	// Token return opens the paper's window (not edited by the rule); once
	// it expires empty the arbiter is idle, with one singleton behind it.
	nd.OnCSDone(ctx)
	if live := ctx.liveTimers(); len(live) != 1 || live[0] != opts.Treq {
		t.Fatalf("timers after token return: %v, want one Treq window", live)
	}
	ctx.firePending()

	nd.OnRequest(ctx)
	if len(ctx.inCS) != 2 || !nd.inCS {
		t.Fatalf("idle arbiter did not grant in the same step (inCS=%v)", ctx.inCS)
	}
	if live := ctx.liveTimers(); len(live) != 0 {
		t.Fatalf("timers pending after a from-idle grant: %v, want none", live)
	}
	if len(nd.stPool) != 1 || nd.stPool[0].retxTimer.Armed() {
		t.Fatalf("pooled request state carries an armed retransmit timer (pool=%d)", len(nd.stPool))
	}
	if len(ctx.sends) != 0 {
		t.Fatalf("self-only batches sent %d messages", len(ctx.sends))
	}
	if n := countEvents(events, EventWindowSkipped); n != 1 {
		t.Fatalf("window-skipped observed %d times, want 1", n)
	}

	// A remote request reaching the idle arbiter is dispatched on arrival
	// too.
	nd.OnCSDone(ctx)
	ctx.firePending()
	nd.OnMessage(ctx, 2, Request{Entry: QEntry{Node: 2, Seq: 1}})
	if got := ctx.sent(KindPrivilege); len(got) != 1 || got[0].to != 2 {
		t.Fatalf("PRIVILEGE sends %v, want one to node 2 on arrival", got)
	}
	if got := len(ctx.sent(KindNewArbiter)); got != 2 {
		t.Fatalf("%d NEW-ARBITER sends, want the broadcast to both peers", got)
	}
	if live := ctx.liveTimers(); len(live) != 1 || live[0] != opts.Tfwd {
		t.Fatalf("timers after handing the role on: %v, want only the forwarding phase", live)
	}
	if n := countEvents(events, EventWindowSkipped); n != 2 {
		t.Fatalf("window-skipped observed %d times, want 2", n)
	}
}

// TestIdleArbiterAfterBurstWaitsFullWindow: recent batches at or above
// the threshold mean load was there a moment ago; the idle arbiter opens
// the paper's full window.
func TestIdleArbiterAfterBurstWaitsFullWindow(t *testing.T) {
	ctx := newFakeCtx(t, 4)
	nd := testNode(t, 1, 4, adaptiveOptions())
	// Two announced batches of three, then the token ends its journey here.
	burst := QList{{Node: 0, Seq: 1}, {Node: 2, Seq: 1}, {Node: 3, Seq: 1}}
	nd.OnMessage(ctx, 0, NewArbiter{Arbiter: 3, Gen: 1, Q: burst})
	nd.OnMessage(ctx, 3, NewArbiter{Arbiter: 1, Gen: 2, Q: burst})
	nd.OnMessage(ctx, 3, Privilege{Q: QList{}, Granted: make([]uint64, 4), Gen: 2})
	ctx.firePending() // the token-return window and the §6-less timers
	if !nd.windowDone || nd.batches.Mean() < adaptiveThreshold {
		t.Fatalf("setup: windowDone=%v mean=%v, want idle with a heavy history", nd.windowDone, nd.batches.Mean())
	}
	ctx.sends = nil

	nd.OnMessage(ctx, 2, Request{Entry: QEntry{Node: 2, Seq: 2}})
	if got := len(ctx.sent(KindPrivilege)); got != 0 {
		t.Fatalf("dispatched at once after a burst (%d PRIVILEGE sends)", got)
	}
	if live := ctx.liveTimers(); len(live) != 1 || live[0] != nd.opts.Treq {
		t.Fatalf("timers %v, want one full Treq window", live)
	}
	ctx.firePending()
	if got := ctx.sent(KindPrivilege); len(got) != 1 || got[0].to != 2 {
		t.Fatalf("PRIVILEGE sends at window expiry %v, want one to node 2", got)
	}
}

// TestRequestInsideTokenReturnWindowWaits is the closed-loop case: a
// request arriving while the window opened at token return is still armed
// joins that window's batch. This is what keeps a two-client loop at
// batches of two however light its history reads.
func TestRequestInsideTokenReturnWindowWaits(t *testing.T) {
	ctx := newFakeCtx(t, 3)
	nd := testNode(t, 1, 3, adaptiveOptions())
	nd.OnMessage(ctx, 0, Privilege{Q: QList{}, Granted: make([]uint64, 3), Gen: 1})
	if nd.windowDone || !nd.windowTimer.Armed() {
		t.Fatal("setup: token return did not open a window")
	}
	ctx.sends = nil

	nd.OnMessage(ctx, 2, Request{Entry: QEntry{Node: 2, Seq: 1}})
	nd.OnRequest(ctx)
	if len(ctx.sends) != 0 || len(ctx.inCS) != 0 {
		t.Fatalf("dispatched inside an armed window (sends=%d inCS=%v)", len(ctx.sends), ctx.inCS)
	}
	ctx.firePending()
	got := ctx.sent(KindPrivilege)
	if len(got) != 1 || got[0].to != 2 || len(got[0].msg.(Privilege).Q) != 2 {
		t.Fatalf("window expiry sent %v, want one PRIVILEGE carrying the batch of two", got)
	}
}

// TestNoIdleDispatchFromInsideOnCSDone pins the trigger's width. OnCSDone
// of the sequence-number variant issues the backlogged request BEFORE
// handleToken(tok): a dispatch there would replace nd.token under its
// caller, which then pops the head of an already-empty Q-list. The token
// holder is outside the CS at that point, so "haveToken && !inCS" is not
// the idle test; windowDone is — false for a node that got here by being
// served, and cleared by enterCS for one that was idle before.
func TestNoIdleDispatchFromInsideOnCSDone(t *testing.T) {
	opts := adaptiveOptions()
	opts.SeqNumbers = true
	ctx := newFakeCtx(t, 3)
	nd := testNode(t, 1, 3, opts)
	nd.Init(ctx)

	nd.OnRequest(ctx) // REQUEST(1,1) to arbiter 0
	nd.OnRequest(ctx) // serialized behind it
	if nd.backlog != 1 {
		t.Fatalf("setup: backlog=%d, want 1", nd.backlog)
	}
	// Served as the tail of its batch: designated, then granted. The
	// grant finds windowDone set, as it can when a §6 race delivers a
	// token to an idle arbiter that already holds one.
	batch := QList{{Node: 1, Seq: 1}}
	nd.OnMessage(ctx, 0, NewArbiter{Arbiter: 1, Gen: 1, Q: batch})
	nd.windowDone = true
	nd.OnMessage(ctx, 0, Privilege{Q: batch, Granted: make([]uint64, 3), Gen: 1})
	if len(ctx.inCS) != 1 || !nd.collecting {
		t.Fatalf("setup: inCS=%v collecting=%v", ctx.inCS, nd.collecting)
	}
	if nd.windowDone {
		t.Fatal("enterCS left windowDone set: a node is not idle after a grant")
	}

	nd.OnCSDone(ctx)
	if len(ctx.inCS) != 1 {
		t.Fatalf("backlogged request granted from inside OnCSDone (inCS=%v)", ctx.inCS)
	}
	if !nd.windowTimer.Armed() || len(nd.q) != 1 {
		t.Fatalf("windowArmed=%v q=%v, want the backlogged request waiting in the token-return window",
			nd.windowTimer.Armed(), nd.q)
	}
	nd.windowFn()
	if len(ctx.inCS) != 2 {
		t.Fatalf("backlogged request not granted at window expiry (inCS=%v)", ctx.inCS)
	}
}

// TestNoIdleDispatchFromSuspendedHold: a holder that answered an ENQUIRY
// keeps the token after its CS until RESUME (§6). It too is "holding the
// token outside the CS"; a request arriving in the hold must wait.
func TestNoIdleDispatchFromSuspendedHold(t *testing.T) {
	var events []Event
	opts := raceOptions(&events)
	opts.AdaptiveWindow = true
	ctx := newFakeCtx(t, 3)
	nd := testNode(t, 0, 3, opts)
	nd.Init(ctx)

	nd.OnRequest(ctx)
	nd.windowFn() // cold: the first batch waits its window
	nd.OnMessage(ctx, 1, Enquiry{Round: 1})
	nd.OnCSDone(ctx)
	if !nd.rec.suspended || !nd.haveToken || nd.inCS {
		t.Fatalf("setup: suspended=%v haveToken=%v inCS=%v, want the suspended hold",
			nd.rec.suspended, nd.haveToken, nd.inCS)
	}
	ctx.sends = nil

	nd.OnMessage(ctx, 2, Request{Entry: QEntry{Node: 2, Seq: 1}})
	if got := len(ctx.sent(KindPrivilege)); got != 0 {
		t.Fatalf("token dispatched out of the suspended hold (%d PRIVILEGE sends)", got)
	}
	nd.OnMessage(ctx, 1, Resume{Round: 1})
	if !nd.windowTimer.Armed() {
		t.Fatal("RESUME did not reopen the collection window")
	}
	nd.windowFn()
	if got := ctx.sent(KindPrivilege); len(got) != 1 || got[0].to != 2 {
		t.Fatalf("PRIVILEGE sends after RESUME and one window: %v, want one to node 2", got)
	}
}

// TestRetransmitNotArmedOnPooledState is hazard (a) on the simulation
// clock. After a warm-up request gives it a history, node 0 is granted
// from idle at t=1 — were the retransmit timer armed after that grant, it
// would sit on the pooled request state and fire at t=6. The state is
// reused at t=3 for a request whose REQUEST is lost; its retransmission
// must go out at its own 3+5, not at 1+5.
func TestRetransmitNotArmedOnPooledState(t *testing.T) {
	rec := &dme.TraceRecorder{}
	skips := 0
	opts := adaptiveOptions()
	opts.Observer = func(ev Event) {
		if ev.Kind == EventWindowSkipped {
			skips++
		}
	}
	cfg := dme.Config{
		N:              2,
		Seed:           1,
		Delay:          sim.ConstantDelay{D: 0.1},
		Texec:          0.1,
		TotalRequests:  4,
		MaxVirtualTime: 100,
		Trace:          rec.Record,
		Fault: func(now float64, from, to dme.NodeID, msg dme.Message) dme.FaultAction {
			if r, ok := msg.(Request); ok && from == 0 && !r.Retransmit {
				return dme.Drop
			}
			return dme.Deliver
		},
	}
	r, err := dme.NewRunner(New(opts), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.ScheduleAt(0.2, func() { r.InjectRequest(0) }) // warm-up: waits the first window
	r.ScheduleAt(1, func() {
		r.InjectRequest(0) // from-idle grant; state pooled
		if skips != 1 {
			t.Errorf("t=1 request: %d windows skipped, want the from-idle grant", skips)
		}
	})
	r.ScheduleAt(2, func() { r.InjectRequest(1) }) // moves token and role to node 1
	r.ScheduleAt(3, func() { r.InjectRequest(0) }) // reuses the state; REQUEST dropped
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	retx := rec.Filter(dme.ByKind(dme.TraceSend), dme.ByMsgKind(KindRequestRetx))
	if len(retx) != 1 || retx[0].Time != 8 {
		t.Fatalf("retransmissions %v, want exactly one at t=8 (issue time 3 + RetransmitTimeout 5)", retx)
	}
}

// traceHash runs algo under cfg and reduces the full message/CS trace to
// one number.
func traceHash(t *testing.T, algo dme.Algorithm, cfg dme.Config) (events int, hash uint64) {
	t.Helper()
	rec := &dme.TraceRecorder{}
	cfg.Trace = rec.Record
	if _, err := dme.Run(algo, cfg); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write([]byte(rec.String()))
	return len(rec.Events), h.Sum64()
}

// TestFixedWindowTraceUnchanged: with the option off the protocol is the
// parent's, event for event. The constants are the event count and trace
// hash of this run at the commit before the adaptive window existed.
func TestFixedWindowTraceUnchanged(t *testing.T) {
	cfg := dme.Config{
		N: 5, Seed: 7, Delay: sim.ConstantDelay{D: 0.1}, Texec: 0.1,
		TotalRequests: 500, MaxVirtualTime: 1e6,
		Gen: func(node int) dme.GeneratorFunc {
			return workload.Stream(workload.Poisson{Lambda: 0.05}, 7, node)
		},
	}
	events, hash := traceHash(t, New(Options{Treq: 0.1, Tfwd: 0.1, RetransmitTimeout: 25}), cfg)
	if events != 6104 || hash != 0x1dfe9e410582cf08 {
		t.Fatalf("fixed-window trace changed: %d events, hash %#x; want 6104, 0x1dfe9e410582cf08", events, hash)
	}
	// The same light load is where the option bites.
	opts := Options{Treq: 0.1, Tfwd: 0.1, RetransmitTimeout: 25, AdaptiveWindow: true}
	if _, adaptive := traceHash(t, New(opts), cfg); adaptive == hash {
		t.Fatal("adaptive window left a light-load trace untouched; the option is not wired")
	}
}

// TestSaturatedScheduleNeverSkips: when every node re-requests the moment
// it releases, each arbiter finds requests in the window opened at token
// return, never reaches the idle state, and so never consults the
// estimator (the one idle moment such a run has is its cold start, where
// there is no history to read): option on and option off produce the same
// trace. This is the no-bistability argument as a test — a history of
// singletons cannot switch the window off under load, because under load
// nobody asks it.
func TestSaturatedScheduleNeverSkips(t *testing.T) {
	cfg := dme.Config{
		N: 4, Seed: 3, Delay: sim.ConstantDelay{D: 0.1}, Texec: 0.1,
		TotalRequests: 400, MaxVirtualTime: 1e6, ClosedLoop: true,
		Gen: func(int) dme.GeneratorFunc { return func() float64 { return 0 } },
	}
	skips := 0
	on := Options{Treq: 0.1, Tfwd: 0.1, RetransmitTimeout: 25, AdaptiveWindow: true,
		Observer: func(ev Event) {
			if ev.Kind == EventWindowSkipped {
				skips++
			}
		}}
	off := on
	off.AdaptiveWindow, off.Observer = false, nil
	nOn, hOn := traceHash(t, New(on), cfg)
	nOff, hOff := traceHash(t, New(off), cfg)
	if skips != 0 {
		t.Fatalf("saturated run skipped %d windows, want 0", skips)
	}
	if nOn != nOff || hOn != hOff {
		t.Fatalf("saturated traces differ: adaptive %d events %#x, fixed %d events %#x", nOn, hOn, nOff, hOff)
	}
}
