package core

import (
	"testing"
)

// raceOptions is the recovery tuning used by the invalidation race tests;
// timer values are irrelevant (fakeCtx fires them manually) but must be
// positive to pass Normalize.
func raceOptions(events *[]Event) Options {
	return Options{
		Observer: func(ev Event) { *events = append(*events, ev) },
		Recovery: RecoveryOptions{
			Enabled:        true,
			TokenTimeout:   1,
			RoundTimeout:   1,
			ArbiterTimeout: 10,
			ProbeTimeout:   1,
		},
	}
}

func countEvents(events []Event, kind EventKind) int {
	n := 0
	for _, ev := range events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// startInvalidatingArbiter scripts node 2 into an in-flight invalidation:
// designated arbiter for a batch containing node 3, token never arrives,
// token-wait timer fires, ENQUIRY fan-out is on the wire.
func startInvalidatingArbiter(t *testing.T, ctx *fakeCtx, nd *node) {
	t.Helper()
	nd.OnMessage(ctx, 0, NewArbiter{Arbiter: 2, Gen: 2, Q: QList{{Node: 3, Seq: 1}}})
	if !nd.collecting {
		t.Fatal("designation did not start collection")
	}
	ctx.firePending() // token-wait timeout → phase 1
	if !nd.rec.invalidating {
		t.Fatal("token timeout did not start the invalidation")
	}
	if len(ctx.sent(KindEnquiry)) == 0 {
		t.Fatal("phase 1 sent no ENQUIRY")
	}
}

// TestInvalidationAbortedByConcurrentHandoff races phase 1 against a
// NEW-ARBITER handoff to another node: the strictly newer broadcast
// proves a dispatching token-holder existed after the loss was suspected,
// so the superseded arbiter must abort its round instead of regenerating
// a second token when its round timer would have expired.
func TestInvalidationAbortedByConcurrentHandoff(t *testing.T) {
	var events []Event
	ctx := newFakeCtx(t, 4)
	nd := testNode(t, 2, 4, raceOptions(&events))
	startInvalidatingArbiter(t, ctx, nd)

	// The handoff: a newer batch dispatched elsewhere designates node 3.
	nd.OnMessage(ctx, 1, NewArbiter{Arbiter: 3, Gen: 3})
	if nd.rec.invalidating {
		t.Fatal("invalidation still in flight after a superseding NEW-ARBITER")
	}
	if nd.collecting {
		t.Fatal("superseded arbiter still collecting")
	}

	// The round timer must be dead: firing everything pending regenerates
	// nothing.
	ctx.firePending()
	// A straggling phase-1 answer from the old round is ignored.
	nd.OnMessage(ctx, 3, EnquiryAck{Round: 1, Status: StatusExecuted})

	if n := countEvents(events, EventTokenRegenerated); n != 0 {
		t.Fatalf("superseded arbiter regenerated %d tokens next to the live one", n)
	}
	if n := countEvents(events, EventInvalidationResolved); n != 1 {
		t.Fatalf("invalidation resolved %d times, want 1", n)
	}
	if nd.haveToken || nd.epoch != 0 {
		t.Fatalf("node minted token state: haveToken=%v epoch=%d", nd.haveToken, nd.epoch)
	}
	if sent := ctx.sent(KindInvalidate); len(sent) != 0 {
		t.Fatalf("aborted round still sent INVALIDATE: %v", sent)
	}
}

// TestInvalidationResolvedByLateToken races phase 1 against the "lost"
// token itself arriving: the round must conclude without regeneration —
// minting a second token here would clobber the live one.
func TestInvalidationResolvedByLateToken(t *testing.T) {
	var events []Event
	ctx := newFakeCtx(t, 4)
	nd := testNode(t, 2, 4, raceOptions(&events))
	startInvalidatingArbiter(t, ctx, nd)

	// The token was merely slow: it arrives (empty Q → we are the final
	// receiver / designated arbiter) while ENQUIRY answers are pending.
	nd.OnMessage(ctx, 0, Privilege{Q: QList{}, Granted: make([]uint64, 4), Gen: 2})
	if !nd.haveToken {
		t.Fatal("late token not adopted")
	}

	// The round timer then expires with no holder having answered.
	ctx.firePending()

	if n := countEvents(events, EventTokenRegenerated); n != 0 {
		t.Fatalf("regenerated %d tokens while holding the live one", n)
	}
	if n := countEvents(events, EventInvalidationResolved); n != 1 {
		t.Fatalf("invalidation resolved %d times, want 1", n)
	}
	if nd.epoch != 0 {
		t.Fatalf("epoch bumped to %d with the token alive", nd.epoch)
	}
	if sent := ctx.sent(KindInvalidate); len(sent) != 0 {
		t.Fatalf("resolved round still sent INVALIDATE: %v", sent)
	}
}

// TestInvalidationRestartsAfterRedesignation races phase 1 against a
// newer NEW-ARBITER that names the SAME node again: the old round is
// moot (it interrogated the previous batch), but the node goes back to
// waiting for the new batch's token and can open a fresh round against
// the new batch if that token is lost too.
func TestInvalidationRestartsAfterRedesignation(t *testing.T) {
	var events []Event
	ctx := newFakeCtx(t, 4)
	nd := testNode(t, 2, 4, raceOptions(&events))
	startInvalidatingArbiter(t, ctx, nd)

	nd.OnMessage(ctx, 1, NewArbiter{Arbiter: 2, Gen: 3, Q: QList{{Node: 1, Seq: 4}}})
	if nd.rec.invalidating {
		t.Fatal("old round survived the re-designation")
	}

	// The new batch's token never arrives either: the re-armed token wait
	// fires and a fresh round interrogates the NEW batch (node 1), not
	// the old one.
	ctx.sends = nil
	ctx.firePending()
	if !nd.rec.invalidating {
		t.Fatal("re-designated arbiter never re-opened the invalidation")
	}
	enqs := ctx.sent(KindEnquiry)
	foundNewTarget := false
	for _, s := range enqs {
		if s.to == 3 {
			t.Fatalf("fresh round interrogated the OLD batch's node 3: %v", enqs)
		}
		if s.to == 1 {
			foundNewTarget = true
		}
	}
	if !foundNewTarget {
		t.Fatalf("fresh round did not interrogate the new batch's node 1: %v", enqs)
	}
	if n := countEvents(events, EventInvalidationStarted); n != 2 {
		t.Fatalf("invalidation started %d times, want 2 (one per lost batch)", n)
	}
}

// TestLostResumeRearmsTokenWait pins hardening item 12: a §6 round that
// resolves because a holder answered ends with RESUME — and that RESUME,
// or the token it releases, can itself be lost. The arbiter is then
// collecting, tokenless, with no round in flight and no timer armed:
// requesters retransmit forever and nothing ever restarts recovery. Two
// re-arms close it: the resolution keeps the token wait armed while any
// work is pending here, and a tokenless collecting arbiter with no §6
// activity arms it on every REQUEST it accepts, so a retransmission is a
// recovery trigger instead of a no-op.
func TestLostResumeRearmsTokenWait(t *testing.T) {
	var events []Event
	ctx := newFakeCtx(t, 4)
	nd := testNode(t, 2, 4, raceOptions(&events))

	// Designated with an empty batch, token never arrives, round 1 asks
	// the previous arbiter, which holds the token: RESUME, resolved, and
	// with nothing pending here no reason to keep waiting.
	nd.OnMessage(ctx, 0, NewArbiter{Arbiter: 2, Gen: 2})
	ctx.firePending()
	if !nd.rec.invalidating {
		t.Fatal("setup: token timeout did not start the invalidation")
	}
	nd.OnMessage(ctx, 0, EnquiryAck{Round: nd.rec.round, Status: StatusHolding})
	if nd.rec.invalidating || len(ctx.sent(KindResume)) != 1 {
		t.Fatalf("holder's answer did not resolve the round with one RESUME (invalidating=%v)", nd.rec.invalidating)
	}
	if nd.rec.tokTimer.Armed() {
		t.Fatal("setup: token wait armed with nothing pending")
	}

	// The RESUME is lost. A requester's retransmission reaches the
	// tokenless arbiter: it must re-arm the token wait...
	nd.OnMessage(ctx, 1, Request{Entry: QEntry{Node: 1, Seq: 1}, Retransmit: true})
	if !nd.rec.tokTimer.Armed() {
		t.Fatal("accepted REQUEST left a tokenless collecting arbiter with no token wait: the wedge")
	}
	// ...whose expiry opens round 2; the holder answers again, and this
	// time the resolution itself keeps the wait armed (a batch is pending).
	ctx.firePending()
	if n := countEvents(events, EventInvalidationStarted); n != 2 {
		t.Fatalf("invalidation started %d times, want 2", n)
	}
	nd.OnMessage(ctx, 0, EnquiryAck{Round: nd.rec.round, Status: StatusHolding})
	if nd.rec.invalidating || !nd.rec.tokTimer.Armed() {
		t.Fatalf("second resolution: invalidating=%v tokenWaitArmed=%v, want resolved and still waiting",
			nd.rec.invalidating, nd.rec.tokTimer.Armed())
	}
}
