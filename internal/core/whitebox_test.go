package core

import (
	"testing"

	"tokenarbiter/internal/dme"
)

// fakeCtx is a scripted dme.Context for white-box handler tests: sends
// are recorded, timers are captured and fired manually, the CS callback
// chain is driven by the test.
type fakeCtx struct {
	t        *testing.T
	n        int
	sends    []fakeSend
	timer    []*fakeTimer
	armed    []*fakeTimer // every timer ever issued, for CancelTimer lookup
	timerSeq int32
	inCS     []int
}

type fakeSend struct {
	from, to int
	msg      dme.Message
}

type fakeTimer struct {
	id       int32
	delay    float64
	fn       func()
	canceled bool
}

func newFakeCtx(t *testing.T, n int) *fakeCtx { return &fakeCtx{t: t, n: n} }

func (c *fakeCtx) Send(from, to dme.NodeID, msg dme.Message) {
	c.sends = append(c.sends, fakeSend{from, to, msg})
}

func (c *fakeCtx) Broadcast(from dme.NodeID, msg dme.Message) {
	for to := 0; to < c.n; to++ {
		if to != from {
			c.Send(from, to, msg)
		}
	}
}

func (c *fakeCtx) After(_ dme.NodeID, delay float64, fn func()) dme.Timer {
	c.timerSeq++
	ft := &fakeTimer{id: c.timerSeq, delay: delay, fn: fn}
	c.timer = append(c.timer, ft)
	c.armed = append(c.armed, ft)
	return dme.MakeTimer(c, ft.id, 0)
}

// CancelTimer implements dme.TimerHost: mark the matching armed timer.
func (c *fakeCtx) CancelTimer(id int32, _ uint32) {
	for _, ft := range c.armed {
		if ft.id == id {
			ft.canceled = true
		}
	}
}

func (c *fakeCtx) Cancel(t dme.Timer) { t.Cancel() }

func (c *fakeCtx) EnterCS(node dme.NodeID) { c.inCS = append(c.inCS, node) }

// firePending runs every live timer once (clearing the list first so
// re-armed timers are visible separately).
func (c *fakeCtx) firePending() {
	timers := c.timer
	c.timer = nil
	for _, ft := range timers {
		if !ft.canceled {
			ft.fn()
		}
	}
}

// sent filters recorded sends by kind.
func (c *fakeCtx) sent(kind string) []fakeSend {
	var out []fakeSend
	for _, s := range c.sends {
		if s.msg.Kind() == kind {
			out = append(out, s)
		}
	}
	return out
}

func testNode(t *testing.T, id, n int, opts Options) *node {
	t.Helper()
	norm, err := opts.Normalize(n)
	if err != nil {
		t.Fatal(err)
	}
	return newNode(id, n, norm)
}

func TestStaleNewArbiterIgnored(t *testing.T) {
	ctx := newFakeCtx(t, 5)
	nd := testNode(t, 2, 5, Options{})

	fresh := NewArbiter{Arbiter: 3, Q: QList{{Node: 3, Seq: 1}}, Gen: 5}
	nd.OnMessage(ctx, 1, fresh)
	if nd.arbiter != 3 || nd.naGen != 5 {
		t.Fatalf("fresh announcement not applied: arbiter=%d naGen=%d", nd.arbiter, nd.naGen)
	}

	stale := NewArbiter{Arbiter: 1, Q: QList{{Node: 1, Seq: 9}}, Gen: 4}
	nd.OnMessage(ctx, 0, stale)
	if nd.arbiter != 3 {
		t.Errorf("stale announcement re-designated arbiter to %d", nd.arbiter)
	}

	dup := NewArbiter{Arbiter: 4, Gen: 5}
	nd.OnMessage(ctx, 0, dup)
	if nd.arbiter != 3 {
		t.Errorf("duplicate-generation announcement applied: arbiter=%d", nd.arbiter)
	}
}

func TestAbandonCollectionForwardsBatch(t *testing.T) {
	ctx := newFakeCtx(t, 5)
	nd := testNode(t, 2, 5, Options{})

	// Designate node 2 (gen 1), then have it collect a foreign entry and
	// one of its own.
	nd.OnMessage(ctx, 0, NewArbiter{Arbiter: 2, Gen: 1})
	if !nd.collecting {
		t.Fatal("designation did not start collection")
	}
	nd.OnMessage(ctx, 1, Request{Entry: QEntry{Node: 1, Seq: 7}})
	nd.OnRequest(ctx) // own request, seq 1
	if len(nd.q) != 2 {
		t.Fatalf("batch = %v, want 2 entries", nd.q)
	}

	// A strictly newer announcement names someone else: node 2 must stop
	// collecting and route both entries to the real arbiter.
	ctx.sends = nil
	nd.OnMessage(ctx, 0, NewArbiter{Arbiter: 4, Gen: 2})
	if nd.collecting {
		t.Error("superseded arbiter still collecting")
	}
	reqs := append(ctx.sent(KindRequest), ctx.sent(KindRequestFwd)...)
	if len(reqs) != 2 {
		t.Fatalf("abandoned batch sent %d requests, want 2: %v", len(reqs), ctx.sends)
	}
	for _, s := range reqs {
		if s.to != 4 {
			t.Errorf("abandoned entry sent to %d, want the real arbiter 4", s.to)
		}
	}
}

func TestTokenShipsToNewerArbiter(t *testing.T) {
	ctx := newFakeCtx(t, 5)
	nd := testNode(t, 2, 5, Options{})

	// Node 2 learns about a strictly newer designation of node 4, then a
	// token from an older batch empties at node 2.
	nd.OnMessage(ctx, 0, NewArbiter{Arbiter: 4, Gen: 3})
	ctx.sends = nil
	nd.OnMessage(ctx, 1, Privilege{Q: QList{}, Gen: 2, Granted: make([]uint64, 5)})
	ships := ctx.sent(KindPrivilege)
	if len(ships) != 1 || ships[0].to != 4 {
		t.Fatalf("token not shipped to the newer arbiter: %v", ctx.sends)
	}
	if nd.haveToken {
		t.Error("node kept the token it shipped away")
	}
}

func TestTokenKeptWhenAnnouncementIsSameBatch(t *testing.T) {
	ctx := newFakeCtx(t, 5)
	nd := testNode(t, 2, 5, Options{})

	// The same-generation broadcast and token arrive token-first: ending
	// the Q-list here IS the designation (§3.1); the token must stay.
	nd.OnMessage(ctx, 1, Privilege{Q: QList{}, Gen: 3, Granted: make([]uint64, 5)})
	if !nd.haveToken || !nd.collecting {
		t.Fatalf("token-first designation rejected: haveToken=%v collecting=%v",
			nd.haveToken, nd.collecting)
	}
	// The broadcast for the same batch then arrives and must not eject us.
	nd.OnMessage(ctx, 1, NewArbiter{Arbiter: 2, Gen: 3})
	if !nd.haveToken || nd.arbiter != 2 {
		t.Errorf("same-batch broadcast disturbed the arbiter: haveToken=%v arbiter=%d",
			nd.haveToken, nd.arbiter)
	}
}

func TestMonitorEpochGuardsRotation(t *testing.T) {
	ctx := newFakeCtx(t, 5)
	nd := testNode(t, 2, 5, Options{Monitor: true})

	nd.OnMessage(ctx, 0, NewArbiter{Arbiter: 3, Gen: 1, Monitor: 4, MonEpoch: 2})
	if nd.monitor != 4 || nd.monEpoch != 2 {
		t.Fatalf("rotation not applied: monitor=%d monEpoch=%d", nd.monitor, nd.monEpoch)
	}
	// A newer-generation broadcast relaying a STALE monitor belief must
	// not regress the monitor identity.
	nd.OnMessage(ctx, 1, NewArbiter{Arbiter: 1, Gen: 2, Monitor: 0, MonEpoch: 1})
	if nd.monitor != 4 {
		t.Errorf("stale monitor relay applied: monitor=%d", nd.monitor)
	}
}

func TestHandleTokenSkipsStaleDuplicates(t *testing.T) {
	ctx := newFakeCtx(t, 5)
	nd := testNode(t, 2, 5, Options{})

	// Head entries (2, 9) are not outstanding at node 2: they must be
	// skipped and the token forwarded to the next live head.
	tok := Privilege{
		Q:       QList{{Node: 2, Seq: 9}, {Node: 3, Seq: 1}},
		Granted: make([]uint64, 5),
		Gen:     1,
	}
	nd.OnMessage(ctx, 1, tok)
	if len(ctx.inCS) != 0 {
		t.Fatal("node entered the CS for a request it never made")
	}
	fwd := ctx.sent(KindPrivilege)
	if len(fwd) != 1 || fwd[0].to != 3 {
		t.Fatalf("token not forwarded past the stale head: %v", ctx.sends)
	}
	got := fwd[0].msg.(Privilege)
	if len(got.Q) != 1 || got.Q.Head().Node != 3 {
		t.Errorf("forwarded token Q = %v, want the stale head popped", got.Q)
	}
}

func TestPendingTokenStashedDuringCS(t *testing.T) {
	ctx := newFakeCtx(t, 3)
	nd := testNode(t, 1, 3, Options{})

	// Node 1 requests, then a token arrives granting it.
	nd.arbiter = 0
	nd.OnRequest(ctx)
	tok := Privilege{Q: QList{{Node: 1, Seq: 1}}, Granted: make([]uint64, 3), Gen: 1}
	nd.OnMessage(ctx, 0, tok)
	if len(ctx.inCS) != 1 || !nd.inCS {
		t.Fatal("grant did not enter the CS")
	}

	// A regenerated token (higher epoch) arrives mid-CS: must be stashed.
	regen := Privilege{Q: QList{}, Granted: make([]uint64, 3), Epoch: 1, Gen: 2}
	nd.OnMessage(ctx, 2, regen)
	if nd.pendingTok == nil {
		t.Fatal("mid-CS token not stashed")
	}
	if !nd.inCS {
		t.Fatal("mid-CS token processing interrupted the critical section")
	}

	// At CS exit the stashed incarnation takes over; with its empty Q the
	// node becomes the token-holding arbiter under epoch 1.
	nd.OnCSDone(ctx)
	if !nd.haveToken || nd.token.Epoch != 1 {
		t.Errorf("stashed token not adopted: haveToken=%v epoch=%d", nd.haveToken, nd.token.Epoch)
	}
	if nd.pendingTok != nil {
		t.Error("pending token not cleared")
	}
}

func TestSeqNumbersSerializeRequests(t *testing.T) {
	ctx := newFakeCtx(t, 3)
	nd := testNode(t, 1, 3, Options{SeqNumbers: true})
	nd.arbiter = 0

	nd.OnRequest(ctx)
	nd.OnRequest(ctx)
	nd.OnRequest(ctx)
	if len(nd.outstanding) != 1 || nd.backlog != 2 {
		t.Fatalf("outstanding=%d backlog=%d, want 1/2", len(nd.outstanding), nd.backlog)
	}
	if got := len(ctx.sent(KindRequest)); got != 1 {
		t.Fatalf("sent %d REQUESTs, want 1 (serialized)", got)
	}

	// Serve the first; the second must be issued automatically.
	tok := Privilege{Q: QList{{Node: 1, Seq: 1}}, Granted: make([]uint64, 3), Gen: 1}
	nd.OnMessage(ctx, 0, tok)
	nd.OnCSDone(ctx)
	if nd.backlog != 1 || len(nd.outstanding) != 1 {
		t.Errorf("after CS: outstanding=%d backlog=%d, want 1/1", len(nd.outstanding), nd.backlog)
	}
	if nd.outstanding[0].seq != 2 {
		t.Errorf("next request seq = %d, want 2", nd.outstanding[0].seq)
	}
}

func TestDispatchFiltersGrantedWithSeqNumbers(t *testing.T) {
	ctx := newFakeCtx(t, 4)
	nd := testNode(t, 0, 4, Options{SeqNumbers: true})
	nd.Init(ctx) // node 0 holds the initial token

	// Collect: a fresh entry from node 1, a stale (already granted) one
	// from node 2, and a seq lower than the table's highwater from 3.
	nd.token.Granted = []uint64{0, 0, 5, 2}
	nd.OnMessage(ctx, 1, Request{Entry: QEntry{Node: 1, Seq: 1}})
	nd.OnMessage(ctx, 2, Request{Entry: QEntry{Node: 2, Seq: 5}})
	nd.OnMessage(ctx, 3, Request{Entry: QEntry{Node: 3, Seq: 2}})
	ctx.firePending() // collection window expires → dispatch

	privs := ctx.sent(KindPrivilege)
	if len(privs) != 1 {
		t.Fatalf("dispatch sent %d tokens, want 1: %v", len(privs), ctx.sends)
	}
	q := privs[0].msg.(Privilege).Q
	if len(q) != 1 || q[0] != (QEntry{Node: 1, Seq: 1}) {
		t.Errorf("dispatched Q = %v, want only node 1's fresh entry", q)
	}
}

func TestCounterResetByMonitorBroadcast(t *testing.T) {
	ctx := newFakeCtx(t, 4)
	nd := testNode(t, 0, 4, Options{Monitor: true, MonitorNode: 0})
	nd.Init(ctx)

	// The monitor (node 0) receives a diverted token with a batch.
	tok := Privilege{
		Q:         QList{{Node: 2, Seq: 1}},
		Granted:   make([]uint64, 4),
		Counter:   7,
		Gen:       3,
		ToMonitor: true,
	}
	nd.collecting = false // not currently arbiter
	nd.OnMessage(ctx, 1, tok)

	nas := ctx.sent(KindNewArbiter)
	if len(nas) != 3 {
		t.Fatalf("monitor broadcast %d NEW-ARBITERs, want N-1=3", len(nas))
	}
	if got := nas[0].msg.(NewArbiter).Counter; got != 0 {
		t.Errorf("monitor broadcast counter = %d, want reset to 0 (§4.1)", got)
	}
}

func TestEnquiryAnswersByState(t *testing.T) {
	ctx := newFakeCtx(t, 4)

	// Waiting requester.
	w := testNode(t, 1, 4, Options{})
	w.arbiter = 0
	w.OnRequest(ctx)
	w.outstanding[0].scheduled = true
	w.OnMessage(ctx, 3, Enquiry{Round: 1})
	acks := ctx.sent(KindEnquiryAck)
	if len(acks) != 1 || acks[0].msg.(EnquiryAck).Status != StatusWaiting {
		t.Errorf("waiting node answered %v", acks)
	}

	// Idle bystander.
	ctx.sends = nil
	b := testNode(t, 2, 4, Options{})
	b.OnMessage(ctx, 3, Enquiry{Round: 1})
	acks = ctx.sent(KindEnquiryAck)
	if len(acks) != 1 || acks[0].msg.(EnquiryAck).Status != StatusExecuted {
		t.Errorf("bystander answered %v", acks)
	}

	// Token holder: answers Holding and suspends.
	ctx.sends = nil
	h := testNode(t, 0, 4, Options{})
	h.Init(ctx)
	h.OnMessage(ctx, 3, Enquiry{Round: 1})
	acks = ctx.sent(KindEnquiryAck)
	if len(acks) != 1 || acks[0].msg.(EnquiryAck).Status != StatusHolding {
		t.Errorf("holder answered %v", acks)
	}
	if !h.rec.suspended {
		t.Error("holder did not suspend after answering Holding")
	}
}

func TestProbeAnsweredImmediately(t *testing.T) {
	ctx := newFakeCtx(t, 3)
	nd := testNode(t, 1, 3, Options{})
	nd.OnMessage(ctx, 2, Probe{})
	acks := ctx.sent(KindProbeAck)
	if len(acks) != 1 || acks[0].to != 2 {
		t.Fatalf("probe not acknowledged: %v", ctx.sends)
	}
}

func TestStaleTokenDiscardedByEpoch(t *testing.T) {
	ctx := newFakeCtx(t, 3)
	nd := testNode(t, 1, 3, Options{})
	nd.epoch = 2

	nd.OnMessage(ctx, 0, Privilege{Q: QList{{Node: 1, Seq: 1}}, Epoch: 1, Gen: 9})
	if nd.haveToken || len(ctx.inCS) != 0 || len(ctx.sends) != 0 {
		t.Error("stale-epoch token acted upon")
	}
}

func TestNoBroadcastWhenArbiterUnchanged(t *testing.T) {
	ctx := newFakeCtx(t, 4)
	nd := testNode(t, 0, 4, Options{})
	nd.Init(ctx)

	// Only the arbiter's own request: head == tail == self; dispatch must
	// execute locally with zero messages (Eq. 1's 1/N case).
	nd.OnRequest(ctx)
	ctx.firePending()
	if len(ctx.sends) != 0 {
		t.Fatalf("self-service dispatch sent %d messages, want 0: %v", len(ctx.sends), ctx.sends)
	}
	if len(ctx.inCS) != 1 {
		t.Fatal("self request not served")
	}
}
