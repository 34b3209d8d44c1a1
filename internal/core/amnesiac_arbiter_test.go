package core

import (
	"testing"
)

// The amnesiac arbiter nobody watches (DESIGN.md hardening item 15;
// decoded from TestSessionChaosSoak/seed=2 captures). Node 2 became
// arbiter and regenerated the token at epoch 1. Node 0's watchdog took
// over, then stood down to node 2's newer announcement, which ended its
// watch. Node 2 granted a leaky session, whose lapsed lease
// crash-restarted node 2: the amnesiac incarnation believes node 0 is
// arbiter, node 0 believes node 2 is, nobody collects, and every REQUEST
// is dropped for good.

// amnesiacRescueOptions is raceOptions with retransmission on.
func amnesiacRescueOptions(events *[]Event) Options {
	o := raceOptions(events)
	o.RetransmitTimeout = 1
	return o
}

// amnesiac builds node id as a restarted incarnation: epoch 0, gen 0,
// believing node 0 is the arbiter.
func amnesiac(t *testing.T, id int, events *[]Event, ctx *fakeCtx) *node {
	nd := testNode(t, id, 3, amnesiacRescueOptions(events))
	nd.MarkRejoin()
	nd.Init(ctx)
	return nd
}

// deliver hands toNode every message of kind that the from context sent
// to it, as sent by node sender, and reports how many there were.
func deliver(from, to *fakeCtx, toNode *node, sender int, kind string) int {
	n := 0
	for _, s := range from.sent(kind) {
		if s.to == toNode.id {
			toNode.OnMessage(to, sender, s.msg)
			n++
		}
	}
	return n
}

func TestStarvingRequesterReplacesAmnesiacArbiter(t *testing.T) {
	var rev, aev, bev []Event
	rctx, actx, bctx := newFakeCtx(t, 3), newFakeCtx(t, 3), newFakeCtx(t, 3)

	// Node 0 at epoch 1 believes node 2 is the arbiter.
	r := testNode(t, 0, 3, amnesiacRescueOptions(&rev))
	r.epoch, r.gen, r.naGen, r.maxFence = 1, 5, 5, 22
	r.arbiter = 2
	// Nodes 1 and 2 are restarted incarnations.
	b := amnesiac(t, 1, &bev, bctx)
	a := amnesiac(t, 2, &aev, actx)

	// Both starve. Each retransmission reaches the others; node 2 answers
	// node 0's with DISOWN, node 0 (not amnesiac) answers node 1's with
	// nothing. Node 0 acts on the first DISOWN after its rescueAfter-th
	// retransmission, and on none before.
	r.OnRequest(rctx)
	b.OnRequest(bctx)
	for i := 1; i <= rescueAfter; i++ {
		rctx.sends, actx.sends, bctx.sends = nil, nil, nil
		rctx.firePending()
		bctx.firePending()
		deliver(rctx, actx, a, 0, KindRequestRetx)
		deliver(rctx, bctx, b, 0, KindRequestRetx)
		deliver(bctx, rctx, r, 1, KindRequestRetx)
		if got := len(rctx.sent(KindDisown)); got != 0 {
			t.Fatalf("retransmission %d: node 0 sent %d DISOWNs, want none", i, got)
		}
		if deliver(actx, rctx, r, 2, KindDisown) != 1 {
			t.Fatalf("retransmission %d: node 2 did not disown node 0's request", i)
		}
		// Node 1, amnesiac too, disowns node 0's broadcast copies; node 0
		// suspects node 2, not node 1, so that answer starts nothing.
		deliver(bctx, rctx, r, 1, KindDisown)
		if i < rescueAfter && r.collecting {
			t.Fatalf("node 0 took over after %d retransmissions, want none before %d", i, rescueAfter)
		}
	}
	if !r.collecting || r.arbiter != 0 || !r.rec.invalidating || countEvents(rev, EventTakeover) != 1 {
		t.Fatalf("after %d retransmissions: collecting=%v arbiter=%d invalidating=%v, want node 0 taking over",
			rescueAfter, r.collecting, r.arbiter, r.rec.invalidating)
	}
	if b.collecting || countEvents(bev, EventTakeover) != 0 {
		t.Fatal("amnesiac node 1 took over")
	}

	// Node 0 enquires every member: it knows of no batch the token could
	// be serving. Nobody holds the token: node 0 regenerates it above the
	// fence watermark and serves its own request.
	enq := rctx.sent(KindEnquiry)
	if len(enq) != 2 || enq[0].to != 1 || enq[1].to != 2 {
		t.Fatalf("phase 1 sent %v, want ENQUIRY to nodes 1 and 2", enq)
	}
	rctx.sends = nil
	for _, e := range enq {
		peer, pctx := b, bctx
		if e.to == 2 {
			peer, pctx = a, actx
		}
		pctx.sends = nil
		peer.OnMessage(pctx, 0, e.msg)
		for _, s := range pctx.sent(KindEnquiryAck) {
			r.OnMessage(rctx, e.to, s.msg)
		}
	}
	if !r.haveToken || r.epoch != 2 || countEvents(rev, EventTokenRegenerated) != 1 {
		t.Fatalf("after phase 1: haveToken=%v epoch=%d, want a token regenerated at epoch 2", r.haveToken, r.epoch)
	}
	rctx.firePending()
	if len(rctx.inCS) != 1 || r.csFence <= 22 {
		t.Fatalf("node 0 granted %v at fence %d, want one grant above fence 22", rctx.inCS, r.csFence)
	}
}

// TestScheduledRequesterReplacesAmnesiacArbiter: the same wedge reached
// by a request the arbiter had already scheduled. Such a request sends
// no more retransmissions, only WARNINGs, so the suspicion rides every
// rescueAfter-th WARNING (TestSessionChaosSoak/seed=2, key gamma: node 0
// scheduled at epoch 1 on node 2's batch, nodes 1 and 2 restarted).
func TestScheduledRequesterReplacesAmnesiacArbiter(t *testing.T) {
	var rev, aev []Event
	rctx, actx := newFakeCtx(t, 3), newFakeCtx(t, 3)

	// Node 0 at epoch 1: its request is scheduled on node 2's batch.
	r := testNode(t, 0, 3, amnesiacRescueOptions(&rev))
	r.epoch, r.gen, r.naGen, r.maxFence = 1, 4, 4, 22
	r.arbiter = 1
	r.OnRequest(rctx)
	r.OnMessage(rctx, 1, NewArbiter{Arbiter: 2, Epoch: 1, Gen: 5, Q: QList{{Node: 0, Seq: 1}}})
	if st := r.findOutstanding(1); st == nil || !st.scheduled || r.arbiter != 2 {
		t.Fatal("setup: request not scheduled on node 2's batch")
	}
	a := amnesiac(t, 2, &aev, actx)

	for round := 1; round <= rescueAfter; round++ {
		rctx.sends, actx.sends = nil, nil
		rctx.firePending()
		if deliver(rctx, actx, a, 0, KindWarning) != 1 {
			t.Fatalf("warning round %d: no WARNING reached node 2", round)
		}
		if deliver(actx, rctx, r, 2, KindDisown) != 1 {
			t.Fatalf("warning round %d: node 2 did not disown the WARNING", round)
		}
		if round < rescueAfter && r.collecting {
			t.Fatalf("node 0 took over after %d warnings, want none before %d", round, rescueAfter)
		}
	}
	if !r.collecting || r.arbiter != 0 || !r.rec.invalidating || countEvents(rev, EventTakeover) != 1 {
		t.Fatalf("after %d warnings: collecting=%v arbiter=%d invalidating=%v, want node 0 taking over",
			rescueAfter, r.collecting, r.arbiter, r.rec.invalidating)
	}
}

// TestOnlyAnAmnesiacDisowns: a live node that missed its designation
// drops a retransmitted REQUEST and a WARNING without a word, as before
// the rescue existed, so a group without restarts sends no DISOWN and
// its message stream is unchanged. An incarnation that has learned an
// epoch or a generation disowns nothing either.
func TestOnlyAnAmnesiacDisowns(t *testing.T) {
	var events []Event
	retx := Request{Entry: QEntry{Node: 0, Seq: 1}, Retransmit: true}
	warn := Warning{Entry: QEntry{Node: 0, Seq: 1}}

	ctx := newFakeCtx(t, 3)
	live := testNode(t, 2, 3, amnesiacRescueOptions(&events))
	live.Init(ctx)
	live.OnMessage(ctx, 0, retx)
	live.OnMessage(ctx, 0, warn)
	if len(ctx.sends) != 0 {
		t.Fatalf("a live non-arbiter answered %v, want silence", ctx.sends)
	}

	ctx = newFakeCtx(t, 3)
	learned := amnesiac(t, 2, &events, ctx)
	learned.gen = 3
	learned.OnMessage(ctx, 0, retx)
	learned.OnMessage(ctx, 0, warn)
	if len(ctx.sends) != 0 {
		t.Fatalf("a restarted node that knows generation 3 answered %v, want silence", ctx.sends)
	}
}
