package core

import (
	"fmt"
	"math"

	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/stats"
)

// reqState tracks one of the node's own outstanding CS requests from
// issuance until the critical section completes.
type reqState struct {
	seq       uint64
	scheduled bool      // seen in a NEW-ARBITER Q-list (implicit ACK, §6)
	misses    int       // consecutive NEW-ARBITER messages without it
	retries   int       // consecutive RetransmitTimeout firings unanswered
	warnings  int       // WARNINGs sent while scheduled (recovery, §6)
	retxTimer dme.Timer // RetransmitTimeout fallback
	tokTimer  dme.Timer // recovery: token-arrival timeout once scheduled
	// retxFn is the retransmit callback, built once per reqState object
	// and kept across pooled reuse: it reads the live fields above, so it
	// is always current for whatever request currently owns the state.
	retxFn func()
}

// retxEscalation is the number of unanswered unicast retransmissions
// after which a request is broadcast to every node instead. The unicast
// path depends on the requester's believed arbiter being current, but a
// lossy network can strand that belief: dropped NEW-ARBITER broadcasts
// leave it stale, and an arbiter granting only its own requests (a
// self-tail batch) never broadcasts at all, so nothing ever corrects it
// — the request bounces between wrong arbiters until the τ bound drops
// it, forever. The broadcast reaches the real arbiter regardless of
// beliefs, and the NEW-ARBITER its batch triggers re-synchronizes every
// stale believer as a side effect. Duplicate copies accepted by a
// superseded collector are harmless: batch dedup and the executed-entry
// skip already absorb them.
const retxEscalation = 3

// rescueAfter is the number of unanswered retransmissions (or WARNINGs,
// once the request is scheduled) after which a request's node suspects
// its believed arbiter (recovery.suspectArbiter), and again every
// rescueAfter after that.
const rescueAfter = 2 * retxEscalation

// node is the event-driven realization of one protocol participant.
// It is driven entirely from the simulation loop, so no locking is needed.
type node struct {
	id   int
	n    int
	opts Options

	// Beliefs maintained from NEW-ARBITER broadcasts.
	arbiter  int // believed current arbiter
	monitor  int // believed current monitor (§4.1/§5.1)
	epoch    uint64
	gen      uint64 // newest batch generation seen via any message
	naGen    uint64 // newest NEW-ARBITER generation processed
	monEpoch uint64 // version of the monitor identity (rotation count)
	maxFence uint64 // highest fence observed (token sightings + FenceBase)

	// Token dedup by sequence: the newest token state this node has
	// processed, as the lexicographic tuple (epoch, gen, fence). Within
	// one incarnation there is a single token, its gen rises at every
	// dispatch and its fence at every grant, and the Q-list visits each
	// node at most once per batch — so every legitimate sighting at a
	// given node carries a tuple at least as new as the previous one. A
	// same-epoch PRIVILEGE strictly below the mark is therefore a
	// duplicate copy (retransmission or network dup) and is dropped; a
	// copy with an EQUAL tuple is indistinguishable from the original
	// and processing it is idempotent. The tuple also advances on local
	// grants and dispatches, so a pre-grant duplicate of the very token
	// we are executing under is recognized too.
	tokSeenEpoch uint64
	tokSeenGen   uint64
	tokSeenFence uint64

	// Requester state.
	nextSeq     uint64
	outstanding []*reqState
	stPool      []*reqState // recycled request states (see enterCS)
	// backlog counts application requests deferred while one protocol
	// request is in flight — used only by the sequence-number variant,
	// whose PRIVILEGE(Q, L) highwater table assumes each node's requests
	// are granted in sequence order. That holds exactly when a node has
	// at most one outstanding request (REQUEST(j, n) literally means "j
	// requests its (n+1)th critical section", §2.4); without the
	// serialization, an out-of-order grant raises L[j] past a still-live
	// older request and the table filters it forever.
	backlog int

	// Arbiter role.
	collecting  bool      // from designation until dispatch
	q           QList     // batch being collected
	haveToken   bool      // physically holding the token
	token       Privilege // the held token (meaningful iff haveToken)
	windowTimer dme.Timer // pending collection-window expiry
	windowLax   bool      // windowTimer was armed lax, on an empty Q-list
	windowDone  bool      // window elapsed with the token held and q empty
	inCS        bool
	csEntry     QEntry // entry being executed while inCS
	csFence     uint64 // fence of the grant being executed
	// pendingTok holds a token that arrived while we were inside the
	// critical section — possible only during §6 recovery races (a
	// regenerated token reaching us before we finish, or a network
	// duplicate). Processing it mid-CS would clobber the token our CS
	// came from; it is handled at CS exit instead.
	pendingTok *Privilege

	// Forwarding phase (§2.1).
	forwarding bool
	fwdTimer   dme.Timer

	// Monitor role (§4.1).
	stored     QList // requests parked at the monitor
	qsizes     *stats.MovingWindow
	counter    int       // NEW-ARBITER counter since last monitor visit
	flushTimer dme.Timer // liveness flush (see Options.MonitorFlushTimeout)

	// batches is the adaptive window's load estimate (nil unless
	// Options.AdaptiveWindow): the sizes of the last adaptiveHistory
	// batches this node dispatched or saw announced. It is kept apart from
	// qsizes, which drives the §4.1 diversion period and E7's numbers.
	batches *stats.MovingWindow

	// Recovery state (§6).
	rec recovery

	// Cached timer callbacks. The window-expiry and forwarding-end
	// bodies capture only the node and the Context — which is the same
	// object for the node's whole life — so one closure per node serves
	// every (re)arm instead of allocating one per batch.
	windowFn func()
	fwdFn    func()
}

func newNode(id, n int, opts Options) *node {
	nd := &node{
		id:      id,
		n:       n,
		opts:    opts,
		arbiter: 0,
		monitor: opts.MonitorNode,
		// Sequence numbers start at 1: the token's Granted table is
		// zero-initialized and means "no request granted yet", so a
		// seq-0 request would be born already-filtered in the
		// sequence-number variant.
		nextSeq: 1,
		qsizes:  stats.NewMovingWindow(opts.MonitorWindow),
	}
	if opts.AdaptiveWindow {
		nd.batches = stats.NewMovingWindow(adaptiveHistory)
	}
	nd.rec.init()
	return nd
}

// observe reports a protocol transition to the configured observer.
func (nd *node) observe(ev Event) {
	if nd.opts.Observer != nil {
		ev.Node = nd.id
		nd.opts.Observer(ev)
	}
}

// ID implements dme.Node.
func (nd *node) ID() int { return nd.id }

// Init implements dme.Node: node 0 is the initial arbiter and holds the
// initial token with an empty Q-list.
//
// In rejoin mode (Options.Rejoin, or MarkRejoin before Init) node 0
// still assumes the initial-arbiter role but does NOT mint the token: a
// restarted incarnation resurrecting a fresh token at fence 0 would
// bypass the §6 fence watermark and hand out fences the group already
// granted. A rejoining arbiter instead collects requests tokenless; if
// the token truly died with the previous incarnation, the §6 token
// timeout fires and regeneration continues the fence sequence above
// every observed watermark.
func (nd *node) Init(ctx dme.Context) {
	if nd.id == 0 {
		nd.collecting = true
		nd.windowDone = true // idle: first request starts a fresh window
		if nd.opts.Rejoin {
			// A rejoining incarnation is a tokenless arbiter: start the
			// §6 token-arrival wait so a lost token is detected and
			// regenerated even though no NEW-ARBITER designated us.
			// No-op when recovery is disabled (documented on Options).
			nd.rec.armTokenWait(ctx, nd)
			return
		}
		nd.haveToken = true
		nd.token = Privilege{Granted: make([]uint64, nd.n)}
	}
	if nd.id == 1 && !nd.opts.Rejoin && enabled(nd) {
		// §6 makes the previous arbiter the watchdog of the current one,
		// and the initial arbiter has no previous arbiter. While its
		// batches end in its own request it broadcasts no NEW-ARBITER, so
		// nobody ever becomes one: if it crashes in that stretch the token
		// goes to a dead node and the group stalls for good. Node 1 stands
		// in as the predecessor, exactly as if it had designated node 0.
		nd.rec.armWatchdog(ctx, nd, 0)
	}
}

// MarkRejoin puts the node in rejoin mode (see Options.Rejoin) after
// construction but before Init — the hook internal/live uses when a
// factory-built node turns out to be a restarted incarnation.
func (nd *node) MarkRejoin() { nd.opts.Rejoin = true }

// OnRequest implements dme.Node: the local application wants the CS.
func (nd *node) OnRequest(ctx dme.Context) {
	if nd.opts.SeqNumbers && len(nd.outstanding) > 0 {
		// The sequence-number variant serializes a node's requests (see
		// the backlog field); this one is issued when the current one
		// completes.
		nd.backlog++
		return
	}
	nd.issueRequest(ctx)
}

// issueRequest creates and routes one protocol request.
func (nd *node) issueRequest(ctx dme.Context) {
	seq := nd.nextSeq
	nd.nextSeq++
	var st *reqState
	if n := len(nd.stPool); n > 0 {
		st = nd.stPool[n-1]
		nd.stPool = nd.stPool[:n-1]
		*st = reqState{seq: seq, retxFn: st.retxFn}
	} else {
		st = &reqState{seq: seq}
	}
	nd.outstanding = append(nd.outstanding, st)
	entry := QEntry{Node: nd.id, Seq: seq}

	if nd.collecting {
		// We are the current (or designated) arbiter: register locally,
		// costing zero messages (§3.1, the 1/N case of Eq. 1).
		nd.acceptRequest(ctx, entry)
	} else {
		ctx.Send(nd.id, nd.arbiter, Request{Entry: entry})
	}
	if nd.opts.RetransmitTimeout > 0 {
		nd.armRetransmit(ctx, st)
	}
}

// armRetransmit schedules the absolute-timeout fallback for one request.
// Both callers run it after handing the entry to acceptRequest, which on
// an idle arbiter (Options.AdaptiveWindow) dispatches and grants before
// it returns: st has then left outstanding and sits in stPool, and a
// timer armed on it would fire early for whichever request reuses it.
func (nd *node) armRetransmit(ctx dme.Context, st *reqState) {
	if !nd.hasOutstanding(st.seq) {
		return
	}
	ctx.Cancel(st.retxTimer)
	if st.retxFn == nil {
		st.retxFn = func() {
			if st.scheduled || !nd.hasOutstanding(st.seq) {
				return
			}
			entry := QEntry{Node: nd.id, Seq: st.seq}
			st.retries++
			if st.retries%rescueAfter == 0 {
				nd.rec.suspectArbiter(nd)
			}
			nd.observe(Event{Kind: EventRequestRetransmitted, Arbiter: nd.arbiter})
			switch {
			case nd.collecting:
				nd.acceptRequest(ctx, entry)
			case st.retries >= retxEscalation:
				ctx.Broadcast(nd.id, Request{Entry: entry, Retransmit: true})
			default:
				ctx.Send(nd.id, nd.arbiter, Request{Entry: entry, Retransmit: true})
			}
			nd.armRetransmit(ctx, st)
		}
	}
	st.retxTimer = ctx.After(nd.id, nd.opts.RetransmitTimeout, st.retxFn)
}

func (nd *node) hasOutstanding(seq uint64) bool {
	for _, st := range nd.outstanding {
		if st.seq == seq {
			return true
		}
	}
	return false
}

func (nd *node) findOutstanding(seq uint64) *reqState {
	for _, st := range nd.outstanding {
		if st.seq == seq {
			return st
		}
	}
	return nil
}

func (nd *node) removeOutstanding(seq uint64) {
	for i, st := range nd.outstanding {
		if st.seq == seq {
			nd.outstanding = append(nd.outstanding[:i], nd.outstanding[i+1:]...)
			return
		}
	}
}

// OnMessage implements dme.Node.
func (nd *node) OnMessage(ctx dme.Context, from int, msg dme.Message) {
	nd.rec.markHeard(from)
	switch m := msg.(type) {
	case Request:
		nd.onRequestMsg(ctx, m)
	case MonitorRequest:
		nd.onMonitorRequest(ctx, m)
	case Privilege:
		nd.onPrivilege(ctx, from, m)
	case NewArbiter:
		nd.onNewArbiter(ctx, from, m)
	case Warning:
		nd.onWarning(ctx, from, m)
	case Enquiry:
		nd.onEnquiry(ctx, from, m)
	case EnquiryAck:
		nd.onEnquiryAck(ctx, from, m)
	case Resume:
		nd.onResume(ctx, m)
	case Invalidate:
		nd.onInvalidate(ctx, from, m)
	case Probe:
		ctx.Send(nd.id, from, ProbeAck{NotArbiter: nd.arbiter != nd.id})
	case ProbeAck:
		nd.onProbeAck(ctx, from, m)
	case Disown:
		nd.rec.onDisown(ctx, nd, from)
	default:
		panic(fmt.Sprintf("core: node %d received unknown message %T", nd.id, msg))
	}
}

// onRequestMsg handles a REQUEST arriving over the network: collected if
// we are the arbiter, forwarded if we are in our forwarding phase, stored
// if we are the monitor, dropped otherwise (§2.1, §4.1).
func (nd *node) onRequestMsg(ctx dme.Context, m Request) {
	switch {
	case nd.collecting:
		nd.acceptRequest(ctx, m.Entry)
	case nd.forwarding:
		if m.Hops+1 >= nd.opts.Tau {
			// Forwarded too many times; drop (§4.1). The requester will
			// notice via the implicit-ACK mechanism and resubmit.
			nd.observe(Event{Kind: EventRequestDropped, Arbiter: m.Entry.Node})
			return
		}
		fwd := m
		fwd.Hops++
		ctx.Send(nd.id, nd.arbiter, fwd)
		nd.observe(Event{Kind: EventRequestForwarded, Arbiter: nd.arbiter})
	case nd.opts.Monitor && nd.monitor == nd.id:
		// The monitor stores, never forwards (§4.1).
		nd.storeAtMonitor(ctx, m.Entry)
	default:
		// Arrived after the forwarding phase: dropped (§2.1).
		nd.observe(Event{Kind: EventRequestDropped, Arbiter: m.Entry.Node})
		if m.Retransmit {
			nd.rec.disown(ctx, nd, m.Entry.Node)
		}
	}
}

// acceptRequest appends an entry to the batch being collected, ignoring
// duplicates, and wakes an idle arbiter's collection window.
func (nd *node) acceptRequest(ctx dme.Context, e QEntry) {
	if nd.q.Contains(e) {
		return
	}
	nd.q = append(nd.q, e)
	nd.observe(Event{Kind: EventRequestAccepted, Arbiter: nd.id, Batch: len(nd.q), Req: e.Node, ReqSeq: e.Seq})
	if nd.windowLax && nd.windowTimer.Armed() {
		// The first request into a window armed empty: from here on a
		// client waits for its expiry, so it must end on time.
		nd.windowLax = false
		nd.windowTimer.Tighten()
	}
	if nd.haveToken && nd.windowDone && !nd.windowTimer.Armed() && !nd.inCS {
		// The idle arbiter: token in hand, outside the CS, and one whole
		// Treq already watched expire on an empty Q-list.
		if nd.lightlyLoaded() {
			nd.observe(Event{Kind: EventWindowSkipped, Arbiter: nd.id, Batch: len(nd.q), Req: e.Node, ReqSeq: e.Seq})
			nd.dispatch(ctx)
		} else {
			nd.startWindow(ctx)
		}
	}
	// Liveness net: a collecting arbiter holding requests but no token and
	// no pending §6 activity is wedged unless something re-triggers
	// recovery — a resolved invalidation whose promised RESUME token was
	// lost on the wire leaves exactly this state. Requesters retransmit
	// forever, so arming the token wait here makes every retransmission a
	// recovery trigger instead of a no-op.
	if enabled(nd) && !nd.haveToken && nd.collecting && nd.arbiter == nd.id &&
		!nd.rec.invalidating && !nd.rec.tokTimer.Armed() {
		nd.rec.armTokenWait(ctx, nd)
	}
}

// Constants of the adaptive window, read off E16's curve (EXPERIMENTS.md):
// sixteen batches of history, and "light" meaning their mean size is
// below 1.5 — most recent windows collected a single request.
const (
	adaptiveHistory   = 16
	adaptiveThreshold = 1.5
)

// lightlyLoaded is the adaptive window's second condition (the first is
// the idle test at its only call site): recent batches were singletons,
// so a second window would most likely collect nothing but latency. A
// node with no history has no evidence either way and keeps the paper's
// window for its first batch. The estimate cannot latch the window off
// under load: a saturated arbiter finds requests in every window and
// never reaches windowDone, so this is consulted only once the load has
// already dropped. A closed loop of two clients on two nodes is the case
// that matters — with a zero window there every batch would be a
// singleton (≈8 messages per CS instead of ≈4) and the history would say
// "light" forever; because each re-requests inside the window opened at
// token return, that arbiter is never idle and the history is never read.
func (nd *node) lightlyLoaded() bool {
	return nd.batches != nil && nd.batches.Count() > 0 && nd.batches.Mean() < adaptiveThreshold
}

// noteBatch feeds the adaptive window's load estimate.
func (nd *node) noteBatch(size int) {
	if nd.batches != nil && size > 0 {
		nd.batches.Add(float64(size))
	}
}

// startWindow begins a request-collection window of Treq; at expiry the
// batch is dispatched (or the arbiter goes idle if the batch is empty).
// A window opened on an empty Q-list — the one at token return under
// light load — holds up no request, so it is armed lax: expiring empty
// only marks the arbiter idle for its next step. acceptRequest tightens
// it when a request joins. A window holding requests is precise from
// the start.
func (nd *node) startWindow(ctx dme.Context) {
	nd.windowDone = false
	ctx.Cancel(nd.windowTimer)
	if nd.windowFn == nil {
		nd.windowFn = func() {
			nd.windowTimer = dme.Timer{}
			if !nd.haveToken || nd.inCS {
				return
			}
			if nd.q.Empty() {
				nd.windowDone = true
				return
			}
			nd.dispatch(ctx)
		}
	}
	nd.windowLax = nd.q.Empty()
	if nd.windowLax {
		nd.windowTimer = dme.AfterLax(ctx, nd.id, nd.opts.Treq, nd.windowFn)
	} else {
		nd.windowTimer = ctx.After(nd.id, nd.opts.Treq, nd.windowFn)
	}
}

// staleTokenCopy reports whether an incoming PRIVILEGE carries a token
// sequence strictly older than the newest state this node has processed
// — the signature of a duplicate copy of the live token (see the
// tokSeen* fields). A strictly newer epoch always passes: regeneration
// restarts the fence above maxFence but epochs order incarnations.
func (nd *node) staleTokenCopy(m Privilege) bool {
	if m.Epoch != nd.tokSeenEpoch {
		return m.Epoch < nd.tokSeenEpoch
	}
	if m.Gen != nd.tokSeenGen {
		return m.Gen < nd.tokSeenGen
	}
	return m.Fence < nd.tokSeenFence
}

// noteTokenSeen advances the dedup watermark to the given token sequence
// if it is at least as new as the current mark.
func (nd *node) noteTokenSeen(epoch, gen, fence uint64) {
	if epoch < nd.tokSeenEpoch {
		return
	}
	if epoch == nd.tokSeenEpoch {
		if gen < nd.tokSeenGen {
			return
		}
		if gen == nd.tokSeenGen && fence < nd.tokSeenFence {
			return
		}
	}
	nd.tokSeenEpoch, nd.tokSeenGen, nd.tokSeenFence = epoch, gen, fence
}

// onPrivilege handles token arrival.
func (nd *node) onPrivilege(ctx dme.Context, from int, m Privilege) {
	if m.Epoch < nd.epoch {
		// Stale token from before an INVALIDATE round: discard (§6).
		return
	}
	if nd.staleTokenCopy(m) {
		// A duplicate copy of a token state already processed here. It
		// must not be handled again: stashing it mid-CS would rewind the
		// fence counter at CS exit, and adopting it while idle would fork
		// a second token incarnation next to the live one.
		nd.observe(Event{Kind: EventDuplicateTokenDropped, Arbiter: nd.arbiter, Epoch: m.Epoch, Fence: m.Fence})
		return
	}
	nd.noteTokenSeen(m.Epoch, m.Gen, m.Fence)
	nd.epoch = m.Epoch
	if m.Gen > nd.gen {
		nd.gen = m.Gen
	}
	nd.counter = m.Counter
	if m.Fence > nd.maxFence {
		nd.maxFence = m.Fence
	}
	nd.rec.onTokenSeen(ctx, nd)

	if nd.inCS {
		// Recovery race: stash the newest incarnation and handle it when
		// the critical section completes.
		tok := m.clone()
		if nd.pendingTok == nil || tok.Epoch >= nd.pendingTok.Epoch {
			nd.pendingTok = &tok
		}
		return
	}

	tok := m.clone()
	if tok.ToMonitor && nd.opts.Monitor {
		// Normally we are the monitor this token was diverted to; if the
		// diverting arbiter's belief was stale (rotation in flight), we
		// still perform the monitor hand-off duties — the NEW-ARBITER
		// broadcast must happen for this batch regardless, and our own
		// stored set is simply empty.
		nd.monitorHandleToken(ctx, tok)
		return
	}
	tok.ToMonitor = false
	nd.handleToken(ctx, tok)
}

// handleToken advances the token at this node: enter the CS if we are the
// head with a live request, skip stale duplicate heads, pass the token on,
// or — when the Q-list is exhausted here — assume the arbiter role.
func (nd *node) handleToken(ctx dme.Context, tok Privilege) {
	for {
		if tok.Q.Empty() {
			nd.becomeTokenHoldingArbiter(ctx, tok)
			return
		}
		head := tok.Q.Head()
		if head.Node != nd.id {
			nd.haveToken = false
			ctx.Send(nd.id, head.Node, tok)
			nd.observe(Event{Kind: EventTokenPassed, Arbiter: head.Node, Batch: len(tok.Q), Req: head.Node, ReqSeq: head.Seq})
			return
		}
		if st := nd.findOutstanding(head.Seq); st != nil {
			nd.enterCS(ctx, tok, head, st)
			return
		}
		// A duplicate of a request we already executed (retransmission
		// raced the original): skip it and keep the token moving.
		tok.Q = tok.Q.PopHead()
	}
}

// enterCS starts the critical section for entry, holding the token. The
// token's fence counter ticks up on every grant.
func (nd *node) enterCS(ctx dme.Context, tok Privilege, entry QEntry, st *reqState) {
	tok.Fence++
	nd.haveToken = true
	nd.inCS = true
	// Not idle any more, however the grant got here (a §6 race can hand a
	// token to an arbiter idling on another): the next window is the one
	// opened at token return.
	nd.windowDone = false
	nd.token = tok
	nd.csEntry = entry
	nd.csFence = tok.Fence
	if tok.Fence > nd.maxFence {
		nd.maxFence = tok.Fence
	}
	nd.noteTokenSeen(tok.Epoch, tok.Gen, tok.Fence)
	ctx.Cancel(st.retxTimer)
	ctx.Cancel(st.tokTimer)
	nd.removeOutstanding(entry.Seq)
	// Both timers are now cancelled and the state left every tracking
	// structure, so no pending callback can observe it: recycle it for
	// the node's next request.
	nd.stPool = append(nd.stPool, st)
	ctx.EnterCS(nd.id)
}

// OnCSDone implements dme.Node: pop ourselves off the Q-list head and keep
// the token moving (§2.1), unless the recovery protocol suspended us.
func (nd *node) OnCSDone(ctx dme.Context) {
	nd.inCS = false
	if p := nd.pendingTok; p != nil {
		// A newer token incarnation arrived mid-CS (§6 recovery race):
		// the token we executed under is superseded; continue with the
		// new one. Our just-served entry is gone from outstanding, so a
		// stale copy of it at the new head is skipped, not re-served.
		nd.pendingTok = nil
		nd.rec.suspended = false
		tok := *p
		if tok.Granted != nil && nd.csEntry.Seq > tok.Granted[nd.id] {
			tok.Granted[nd.id] = nd.csEntry.Seq
		}
		nd.token = tok
		if nd.opts.SeqNumbers && nd.backlog > 0 && len(nd.outstanding) == 0 {
			nd.backlog--
			nd.issueRequest(ctx)
		}
		if tok.ToMonitor && nd.opts.Monitor {
			nd.monitorHandleToken(ctx, tok)
			return
		}
		tok.ToMonitor = false
		nd.handleToken(ctx, tok)
		return
	}
	if nd.token.Epoch < nd.epoch {
		// The incarnation we executed under was invalidated mid-CS (the
		// fence protected the resource throughout); the regenerated
		// token owns the queue now — ours dies here rather than
		// re-arbitrating a dead epoch, and a §6 hold on it dies with it.
		nd.haveToken = false
		nd.rec.suspended = false
		nd.observe(Event{Kind: EventStaleTokenDropped, Arbiter: nd.arbiter, Epoch: nd.token.Epoch, Fence: nd.token.Fence})
		if nd.opts.SeqNumbers && nd.backlog > 0 && len(nd.outstanding) == 0 {
			nd.backlog--
			nd.issueRequest(ctx)
		}
		return
	}
	tok := nd.token
	tok.Q = tok.Q.PopHead()
	if tok.Granted != nil && nd.csEntry.Seq > tok.Granted[nd.id] {
		tok.Granted[nd.id] = nd.csEntry.Seq
	}
	nd.token = tok
	if nd.opts.SeqNumbers && nd.backlog > 0 && len(nd.outstanding) == 0 {
		// The serialized variant may issue its next request now.
		nd.backlog--
		nd.issueRequest(ctx)
	}
	if nd.rec.suspended {
		// An ENQUIRY is in flight; hold the token until RESUME (§6).
		return
	}
	nd.handleToken(ctx, tok)
}

// becomeTokenHoldingArbiter runs when the Q-list empties at this node: the
// token has completed its journey and we are the current arbiter holding
// it. A collection window starts (the tail end of the pseudocode's
// request-collection loop).
func (nd *node) becomeTokenHoldingArbiter(ctx dme.Context, tok Privilege) {
	if nd.arbiter != nd.id && !nd.collecting && nd.naGen > tok.Gen {
		// An announcement strictly newer than this token's batch
		// designated someone else while the token was travelling (e.g. a
		// §6 takeover raced a token that was alive after all). The
		// arbiter role and the token must reunite: ship the token to the
		// believed arbiter instead of quietly keeping it, or the system
		// would wedge with an idle token here and a tokenless arbiter
		// there. (When no newer announcement exists, ending the Q-list
		// here is itself the proof of designation — §3.1.)
		nd.haveToken = false
		tok.ToMonitor = false
		ctx.Send(nd.id, nd.arbiter, tok)
		nd.observe(Event{Kind: EventTokenPassed, Arbiter: nd.arbiter, Batch: len(tok.Q)})
		return
	}
	nd.haveToken = true
	nd.token = tok
	if !nd.collecting {
		// The NEW-ARBITER designating us may still be in flight; the
		// token with our request as tail is proof enough (§3.1).
		nd.becomeArbiter(ctx, nd.id)
	}
	if nd.opts.Monitor && nd.monitor == nd.id {
		// The token is visiting the monitor's own node: absorb any
		// parked requests into the next batch for free.
		nd.absorbStored(ctx)
	}
	nd.startWindow(ctx)
}

// abandonCollection stops a stale or superseded arbiter role: collected
// entries are forwarded to the real arbiter (own entries as fresh
// REQUESTs, others' as one-hop forwards) so nothing is stranded.
func (nd *node) abandonCollection(ctx dme.Context, realArbiter int) {
	nd.observe(Event{Kind: EventAbandoned, Arbiter: realArbiter, Batch: len(nd.q)})
	nd.collecting = false
	nd.windowDone = false
	ctx.Cancel(nd.windowTimer)
	nd.windowTimer = dme.Timer{}
	// We no longer await the token as arbiter; a stale token-wait firing
	// after abandonment would start an invalidation round next to the
	// real arbiter's live token.
	ctx.Cancel(nd.rec.tokTimer)
	nd.rec.tokTimer = dme.Timer{}
	q := nd.q
	nd.q = nil
	for _, e := range q {
		if e.Node == nd.id {
			ctx.Send(nd.id, realArbiter, Request{Entry: e})
		} else {
			ctx.Send(nd.id, realArbiter, Request{Entry: e, Hops: 1})
		}
	}
}

// dropInvalidatedToken discards a held token whose incarnation has been
// superseded — we learned (via INVALIDATE or a NEW-ARBITER carrying a
// higher epoch) that a regenerated token owns the queue now. §6's rule
// discards a stale token on *receipt*; this applies the same rule to a
// token already in hand when the supersession is learned. Without it a
// partitioned arbiter can sit on a dead token forever, self-granting
// fences below the cluster's high-water mark: every grant is rejected
// by the fenced resource, yet the node never rejoins the live token's
// queue — a permanent liveness wedge. A CS in progress is left to
// finish (the fence already protects the resource); OnCSDone performs
// the same check on exit.
func (nd *node) dropInvalidatedToken(ctx dme.Context) {
	if !nd.haveToken || nd.inCS || nd.token.Epoch >= nd.epoch {
		return
	}
	nd.haveToken = false
	nd.rec.suspended = false // the §6 hold was on this token, not the next one
	nd.windowDone = false
	ctx.Cancel(nd.windowTimer)
	nd.windowTimer = dme.Timer{}
	nd.observe(Event{Kind: EventStaleTokenDropped, Arbiter: nd.arbiter, Epoch: nd.token.Epoch, Fence: nd.token.Fence})
}

// becomeArbiter records designation as the current arbiter and begins
// collecting (request-collection phase, §2.1).
func (nd *node) becomeArbiter(ctx dme.Context, prev int) {
	if nd.collecting {
		return
	}
	nd.collecting = true
	nd.forwarding = false
	ctx.Cancel(nd.fwdTimer)
	nd.arbiter = nd.id
	nd.observe(Event{Kind: EventBecameArbiter, Arbiter: nd.id, Epoch: nd.epoch})
	nd.rec.onDesignated(ctx, nd, prev)
}

// dispatch ends the collection phase: stamp the batch into the token, send
// PRIVILEGE to the head, broadcast NEW-ARBITER naming the tail, and enter
// the forwarding phase (§2.1). Called only while holding the token with a
// non-empty batch and outside the CS.
func (nd *node) dispatch(ctx dme.Context) {
	batch := nd.q.Dedup()
	// Dedup always copies, so the collection buffer's backing array is
	// not aliased by the batch and can be recycled for the next window.
	nd.q = nd.q[:0]
	if nd.opts.SeqNumbers && nd.token.Granted != nil {
		batch = batch.FilterGranted(nd.token.Granted)
	}
	if nd.opts.Priorities != nil {
		batch = batch.SortByPriority(nd.opts.Priorities)
	}
	if nd.opts.StrictFairness && nd.token.Granted != nil {
		batch = batch.SortByGrantCount(nd.token.Granted)
	}
	if batch.Empty() {
		// Everything in the batch was a stale duplicate; stay idle.
		nd.windowDone = true
		return
	}

	// Adaptive monitor diversion (§4.1): once the NEW-ARBITER counter has
	// reached the moving average of the Q-list size, route the token
	// through the monitor instead of dispatching directly.
	if nd.opts.Monitor && nd.monitor != nd.id && nd.shouldVisitMonitor() {
		tok := nd.token
		tok.Q = batch
		tok.Counter = nd.counter
		tok.Gen = nd.gen
		tok.ToMonitor = true
		nd.haveToken = false
		nd.collecting = false
		nd.windowDone = false
		nd.observe(Event{Kind: EventMonitorDiverted, Arbiter: nd.monitor, Batch: len(batch)})
		ctx.Send(nd.id, nd.monitor, tok)
		head := batch.Head()
		nd.observe(Event{Kind: EventTokenPassed, Arbiter: nd.monitor, Batch: len(batch), Req: head.Node, ReqSeq: head.Seq})
		// Requests arriving now are forwarded to the monitor, which
		// stores them (§4.1) until it forwards the token.
		nd.arbiter = nd.monitor
		nd.beginForwarding(ctx)
		nd.rec.onDispatch(ctx, nd, batch)
		return
	}

	nd.sendBatch(ctx, batch, false)
}

// sendBatch performs the PRIVILEGE send + NEW-ARBITER broadcast for a
// finalized batch. fromMonitor marks the monitor's re-dispatch, which
// resets the adaptive-period counter (§4.1).
func (nd *node) sendBatch(ctx dme.Context, batch QList, fromMonitor bool) {
	tail := batch.Tail()
	newMonitor := nd.monitor
	if fromMonitor && nd.opts.RotatingMonitor {
		// §5.1: the monitor's broadcast names its successor round-robin.
		newMonitor = (nd.id + 1) % nd.n
		nd.monEpoch++
	}

	// §4.1: the monitor resets the counter to zero when it broadcasts;
	// an ordinary arbiter increments it per NEW-ARBITER sent.
	if fromMonitor {
		nd.counter = 0
	}
	nd.gen++ // every dispatch starts a new batch generation
	nd.noteTokenSeen(nd.epoch, nd.gen, nd.token.Fence)
	broadcast := tail.Node != nd.id || fromMonitor
	if broadcast {
		if !fromMonitor {
			nd.counter++
		}
		ctx.Broadcast(nd.id, NewArbiter{
			Arbiter: tail.Node,
			// The broadcast shares the batch slice: every NEW-ARBITER
			// consumer treats m.Q as read-only (recovery clones before
			// storing it), and the token path only narrows its copy.
			Q:         batch,
			Counter:   nd.counter,
			Monitor:   newMonitor,
			MonEpoch:  nd.monEpoch,
			Epoch:     nd.epoch,
			Gen:       nd.gen,
			FenceBase: nd.token.Fence,
		})
	}
	nd.monitor = newMonitor

	tok := nd.token
	tok.Q = batch
	tok.Counter = nd.counter
	tok.Epoch = nd.epoch
	tok.Gen = nd.gen
	tok.ToMonitor = false

	nd.noteBatch(len(batch))
	nd.observe(Event{Kind: EventDispatched, Arbiter: tail.Node, Batch: len(batch), Epoch: nd.epoch, Fence: tok.Fence})
	nd.rec.onDispatch(ctx, nd, batch)

	if tail.Node == nd.id {
		// We stay arbiter: no forwarding phase, keep collecting.
		nd.collecting = true
		nd.windowDone = false
	} else {
		nd.collecting = false
		nd.windowDone = false
		nd.arbiter = tail.Node
		nd.beginForwarding(ctx)
	}

	head := batch.Head()
	if head.Node == nd.id {
		// We are also first in line (e.g. the sole requester at light
		// load): the token never leaves this node before our CS.
		nd.handleToken(ctx, tok)
		return
	}
	nd.haveToken = false
	ctx.Send(nd.id, head.Node, tok)
	nd.observe(Event{Kind: EventTokenPassed, Arbiter: head.Node, Batch: len(batch), Req: head.Node, ReqSeq: head.Seq})
	if nd.collecting {
		// We stayed arbiter (tail is us) but the token left to serve the
		// batch: wait for it like a freshly designated arbiter would, so
		// a token lost mid-batch is still detected (§6).
		nd.rec.armTokenWait(ctx, nd)
	}
}

// beginForwarding starts the request-forwarding phase of Tfwd (§2.1).
// Its end is lax: no request waits for it, and it only decides what this
// node's later steps do with a REQUEST. A host that ended it late would
// forward a late REQUEST instead of dropping it, which loses nothing.
func (nd *node) beginForwarding(ctx dme.Context) {
	nd.forwarding = true
	ctx.Cancel(nd.fwdTimer)
	if nd.fwdFn == nil {
		nd.fwdFn = func() {
			nd.forwarding = false
		}
	}
	nd.fwdTimer = dme.AfterLax(ctx, nd.id, nd.opts.Tfwd, nd.fwdFn)
}

// onNewArbiter processes the NEW-ARBITER broadcast: update beliefs, track
// the Q-list size for the adaptive monitor period, perform the
// implicit-ACK check for our own outstanding requests (§6, lost request),
// and assume the arbiter role if the message names us.
func (nd *node) onNewArbiter(ctx dme.Context, from int, m NewArbiter) {
	if enabled(nd) && m.Epoch < nd.epoch {
		// The announcer is operating a token incarnation that some §6
		// invalidation round has already declared dead. It cannot know —
		// it was partitioned away, or the INVALIDATE to it was lost —
		// and if it is quietly serving its own requesters it never finds
		// out on its own (a purely local batch broadcasts nothing).
		// Refuse the stale designation and correct the announcer: with
		// the current-epoch arbiter role here, our own announcement does
		// it; otherwise the INVALIDATE it missed.
		if nd.collecting && nd.arbiter == nd.id {
			ctx.Send(nd.id, from, nd.announcement())
		} else {
			ctx.Send(nd.id, from, Invalidate{Epoch: nd.epoch})
		}
		return
	}
	if m.Epoch > nd.epoch {
		// Epoch and generation are orthogonal orders: the epoch counts
		// §6 invalidation rounds, the generation counts batches. Even a
		// generation-stale announcement proves every token incarnation
		// below its epoch dead, so this part is processed before the
		// gen gate — after a partition the two sides' generations have
		// diverged arbitrarily and waiting for one to overtake the other
		// would leave a stale-epoch holder zombie-arbitrating for ages.
		nd.epoch = m.Epoch
		nd.dropInvalidatedToken(ctx)
	}
	if m.Gen <= nd.naGen {
		// A stale or duplicate announcement that was overtaken by newer
		// ones: acting on it would re-designate a long-gone arbiter and
		// livelock (see NewArbiter.Gen). Note the comparison is against
		// the newest *announcement*, not the newest generation seen via
		// the token — the token and the broadcast of the same batch are
		// complementary and may arrive in either order.
		return
	}
	nd.naGen = m.Gen
	if m.Gen > nd.gen {
		nd.gen = m.Gen
	}
	if nd.collecting && !nd.haveToken && m.Arbiter != nd.id {
		// Someone else dispatched a newer batch while we believed we
		// were the (or a) designated arbiter — either our designation
		// was stale or another node took over (§6). Abandon collection
		// and route everything we accumulated to the real arbiter.
		nd.abandonCollection(ctx, m.Arbiter)
	}
	nd.arbiter = m.Arbiter
	if nd.opts.Monitor && m.MonEpoch >= nd.monEpoch {
		nd.monitor = m.Monitor
		nd.monEpoch = m.MonEpoch
	}
	nd.counter = m.Counter
	if m.FenceBase > nd.maxFence {
		nd.maxFence = m.FenceBase
	}
	nd.qsizes.Add(float64(len(m.Q)))
	nd.noteBatch(len(m.Q))
	nd.rec.onNewArbiterSeen(ctx, nd, from, m)

	// Implicit acknowledgement: every outstanding request should appear
	// in some NEW-ARBITER Q-list within τ broadcasts, else it was lost or
	// dropped and must be resubmitted (§4.1, §6).
	// By index, length re-read each pass: a resubmission into an idle
	// arbiter's own batch (Options.AdaptiveWindow) is granted on the spot
	// and leaves outstanding under the loop.
	for i := 0; i < len(nd.outstanding); i++ {
		st := nd.outstanding[i]
		if st.scheduled {
			continue
		}
		if m.Q.Contains(QEntry{Node: nd.id, Seq: st.seq}) {
			st.scheduled = true
			st.misses = 0
			ctx.Cancel(st.retxTimer)
			nd.rec.onScheduled(ctx, nd, st)
			continue
		}
		st.misses++
		if st.misses >= nd.opts.Tau {
			st.misses = 0
			nd.resubmit(ctx, st)
		}
	}

	if m.Arbiter == nd.id {
		nd.becomeArbiter(ctx, from)
	}
}

// resubmit re-sends a dropped request: to the monitor in the
// starvation-free variant (§4.1), to the announced arbiter otherwise.
func (nd *node) resubmit(ctx dme.Context, st *reqState) {
	entry := QEntry{Node: nd.id, Seq: st.seq}
	nd.observe(Event{Kind: EventRequestRetransmitted, Arbiter: nd.arbiter})
	if nd.opts.Monitor {
		if nd.monitor == nd.id {
			nd.storeAtMonitor(ctx, entry)
		} else {
			ctx.Send(nd.id, nd.monitor, MonitorRequest{Entry: entry})
		}
		return
	}
	if nd.collecting {
		nd.acceptRequest(ctx, entry)
		return
	}
	ctx.Send(nd.id, nd.arbiter, Request{Entry: entry, Retransmit: true})
}

// shouldVisitMonitor implements the adaptive period of §4.1: divert when
// the NEW-ARBITER counter has reached the ceiling of the moving-window
// average Q-list size.
func (nd *node) shouldVisitMonitor() bool {
	if nd.qsizes.Count() == 0 {
		return false
	}
	target := int(math.Ceil(nd.qsizes.Mean()))
	if target < 1 {
		target = 1
	}
	return nd.counter >= target
}
