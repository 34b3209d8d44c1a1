package core

import (
	"testing"
)

// The stood-down enquirer (DESIGN.md hardening item 14; decoded from a
// TestChaosSoak/seed=3 capture). A holder that answers ENQUIRY with
// "holding" suspends itself until RESUME. The enquirer used to drop any
// ack for a round it had already closed, so a round that ended between the
// ENQUIRY and its answer left the holder parked on the token forever.

// staleTakeover scripts the enquirer half of the schedule on node 0 of 3:
// at epoch 9 its probe of node 1 went unanswered, so it proclaims itself
// arbiter and runs phase 1 over the batch it last dispatched, which names
// node 1. It returns the takeover's NEW-ARBITER and ENQUIRY, both bound
// for node 1.
func staleTakeover(t *testing.T, ctx *fakeCtx, e *node) (NewArbiter, Enquiry) {
	t.Helper()
	e.epoch = 9
	e.rec.watchTarget = 1
	e.rec.lastBatch = QList{{Node: 1, Seq: 1}}
	e.rec.takeover(ctx, e)
	if !e.rec.invalidating {
		t.Fatal("takeover did not start the invalidation round")
	}
	var na NewArbiter
	for _, s := range ctx.sent(KindNewArbiter) {
		if s.to == 1 {
			na = s.msg.(NewArbiter)
		}
	}
	enq := ctx.sent(KindEnquiry)
	if len(enq) != 1 || enq[0].to != 1 {
		t.Fatalf("phase 1 sent %v, want one ENQUIRY to node 1", enq)
	}
	ctx.sends = nil
	return na, enq[0].msg.(Enquiry)
}

// tokenHoldingArbiter puts nd in the state of a collecting arbiter that
// holds the token of the given epoch between two batches.
func tokenHoldingArbiter(nd *node, epoch uint64) {
	nd.epoch = epoch
	nd.gen, nd.naGen = 5, 5
	nd.arbiter = nd.id
	nd.collecting = true
	nd.haveToken = true
	nd.token = Privilege{Granted: make([]uint64, nd.n), Epoch: epoch, Gen: 5, Fence: 40}
}

func TestHoldingAckAfterRoundClosedIsAnswered(t *testing.T) {
	t.Run("stood down by the holder's correction", func(t *testing.T) {
		var eev, hev []Event
		ectx, hctx := newFakeCtx(t, 3), newFakeCtx(t, 3)
		e := testNode(t, 0, 3, raceOptions(&eev))
		h := testNode(t, 1, 3, raceOptions(&hev))
		tokenHoldingArbiter(h, 10)

		// 1. The enquirer, one epoch behind, takes over and enquires.
		na, enq := staleTakeover(t, ectx, e)

		// 2. The holder corrects the stale announcer with its own
		// NEW-ARBITER, then answers the ENQUIRY "holding" and suspends.
		h.OnMessage(hctx, 0, na)
		h.OnMessage(hctx, 0, enq)
		corr, acks := hctx.sent(KindNewArbiter), hctx.sent(KindEnquiryAck)
		if len(corr) != 1 || corr[0].to != 0 || corr[0].msg.(NewArbiter).Epoch != 10 {
			t.Fatalf("holder's correction: %v, want one NEW-ARBITER{Epoch:10} to node 0", corr)
		}
		if len(acks) != 1 || acks[0].msg.(EnquiryAck).Status != StatusHolding || !h.rec.suspended {
			t.Fatalf("holder's answer: %v suspended=%v, want holding and suspended", acks, h.rec.suspended)
		}

		// 3. The correction is delivered first and stands the enquirer down.
		e.OnMessage(ectx, 1, corr[0].msg)
		if e.rec.invalidating || e.epoch != 10 {
			t.Fatalf("after the correction: invalidating=%v epoch=%d, want the round closed at epoch 10",
				e.rec.invalidating, e.epoch)
		}

		// 4. The ack arrives for the closed round — and is still answered.
		e.OnMessage(ectx, 1, acks[0].msg)
		res := ectx.sent(KindResume)
		if len(res) != 1 || res[0].to != 1 {
			t.Fatalf("late holding ack drew %v, want one RESUME to node 1 (all sends: %v)", res, ectx.sends)
		}
		if n := countEvents(eev, EventTokenRegenerated); n != 0 {
			t.Errorf("stood-down enquirer regenerated %d tokens", n)
		}

		h.OnMessage(hctx, 0, res[0].msg)
		if h.rec.suspended {
			t.Fatal("holder still suspended after the RESUME")
		}
	})

	t.Run("round timed out and regenerated", func(t *testing.T) {
		var eev []Event
		ectx := newFakeCtx(t, 3)
		e := testNode(t, 0, 3, raceOptions(&eev))
		_, enq := staleTakeover(t, ectx, e)

		// The holder's answer is slow; the round timer presumes it failed
		// and regenerates the token at epoch 10.
		ectx.firePending()
		if e.rec.invalidating || e.epoch != 10 || !e.haveToken {
			t.Fatalf("after the round timeout: invalidating=%v epoch=%d haveToken=%v, want a regenerated epoch-10 token",
				e.rec.invalidating, e.epoch, e.haveToken)
		}
		ectx.sends = nil

		// The epoch-9 holder's ack surfaces now: its token is dead, and it
		// must hear so rather than wait for a RESUME that cannot come.
		e.OnMessage(ectx, 1, EnquiryAck{Round: enq.Round, Status: StatusHolding, Epoch: 9})
		inv := ectx.sent(KindInvalidate)
		if len(inv) != 1 || inv[0].to != 1 || inv[0].msg.(Invalidate).Epoch != 10 {
			t.Fatalf("late older-epoch holding ack drew %v, want one INVALIDATE{Epoch:10} to node 1", ectx.sends)
		}
		if len(ectx.sent(KindResume)) != 0 {
			t.Error("superseded holder was told to RESUME next to the regenerated token")
		}
	})
}

// TestSuspensionDiesWithItsToken: the §6 hold is about the token the
// holder answered for. When that token is dropped as stale — on the spot,
// or at CS exit — the flag goes with it, or the node's next token would
// park at its first OnCSDone with no RESUME owed by anyone.
func TestSuspensionDiesWithItsToken(t *testing.T) {
	// grantNext hands nd a live epoch-11 token whose Q-list its request
	// seq heads, runs its CS, and requires the token to move on to node 2
	// afterwards.
	grantNext := func(t *testing.T, ctx *fakeCtx, nd *node, seq uint64) {
		t.Helper()
		if nd.rec.suspended {
			t.Fatal("suspension outlived the token it was about")
		}
		ctx.sends = nil
		nd.OnMessage(ctx, 0, Privilege{
			Q:       QList{{Node: nd.id, Seq: seq}, {Node: 2, Seq: 1}},
			Granted: make([]uint64, nd.n), Epoch: 11, Gen: 9, Fence: 90,
		})
		if !nd.inCS {
			t.Fatal("live token did not grant the CS")
		}
		nd.OnCSDone(ctx)
		if got := ctx.sent(KindPrivilege); len(got) != 1 || got[0].to != 2 {
			t.Fatalf("after the CS on the new token: PRIVILEGE sends %v, want one to node 2", got)
		}
	}

	t.Run("dropped on INVALIDATE", func(t *testing.T) {
		var events []Event
		ctx := newFakeCtx(t, 3)
		nd := testNode(t, 1, 3, raceOptions(&events))
		tokenHoldingArbiter(nd, 10)
		nd.OnRequest(ctx) // seq 1, so the next token can serve it
		nd.OnMessage(ctx, 0, Enquiry{Round: 1})
		if !nd.rec.suspended {
			t.Fatal("setup: holder did not suspend")
		}
		nd.OnMessage(ctx, 0, Invalidate{Epoch: 11})
		if nd.haveToken || countEvents(events, EventStaleTokenDropped) != 1 {
			t.Fatal("setup: INVALIDATE did not drop the held token")
		}
		grantNext(t, ctx, nd, 1)
	})

	t.Run("dropped at CS exit", func(t *testing.T) {
		var events []Event
		ctx := newFakeCtx(t, 3)
		nd := testNode(t, 1, 3, raceOptions(&events))
		nd.epoch = 10
		nd.OnRequest(ctx) // seq 1
		nd.OnMessage(ctx, 0, Privilege{
			Q:       QList{{Node: 1, Seq: 1}},
			Granted: make([]uint64, 3), Epoch: 10, Gen: 5, Fence: 40,
		})
		if !nd.inCS {
			t.Fatal("setup: token did not grant the CS")
		}
		nd.OnMessage(ctx, 0, Enquiry{Round: 1})
		nd.OnMessage(ctx, 0, Invalidate{Epoch: 11}) // mid-CS: the token is kept to finish under its fence
		if !nd.rec.suspended || !nd.haveToken {
			t.Fatalf("setup: suspended=%v haveToken=%v, want a suspended holder mid-CS", nd.rec.suspended, nd.haveToken)
		}
		nd.OnCSDone(ctx)
		if nd.haveToken || countEvents(events, EventStaleTokenDropped) != 1 {
			t.Fatal("setup: CS exit did not drop the invalidated token")
		}
		nd.OnRequest(ctx) // seq 2
		grantNext(t, ctx, nd, 2)
	})
}
