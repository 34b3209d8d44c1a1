package core

import (
	"tokenarbiter/internal/dme"
)

// recovery holds the per-node state of the §6 failure-recovery protocol:
// the requester-side token timeout (WARNING), the arbiter-side two-phase
// token invalidation (ENQUIRY → RESUME/INVALIDATE), and the
// previous-arbiter watchdog that probes — and on silence replaces — a
// failed current arbiter.
type recovery struct {
	// suspended is set on a token holder that answered an ENQUIRY with
	// "I have the token": it must not forward the token until RESUME.
	suspended bool

	// Arbiter-side invalidation state.
	invalidating bool
	round        uint64
	targets      []int
	acks         map[int]TokenStatus
	roundTimer   dme.Timer
	// pendingBatch is the Q-list currently being served by the token
	// (learned from the NEW-ARBITER that designated this node, or from
	// this node's own dispatch); it is who the ENQUIRY interrogates and
	// whose waiting entries get re-queued after INVALIDATE.
	pendingBatch QList
	prevArbiter  int

	// Designated-arbiter token timeout (the arbiter is itself a
	// "requesting node" for the token in the §6 sense).
	tokTimer dme.Timer
	// tokWaitFn is tokTimer's callback, bound once: like the node's
	// windowFn it captures only the node and the Context, which is the
	// same object for the node's whole life.
	tokWaitFn func()

	// Previous-arbiter watchdog (§6, failed arbiter).
	watchTimer  dme.Timer
	probeTimer  dme.Timer
	watchTarget int
	lastBatch   QList // the batch this node dispatched most recently

	// rescueTarget is the believed arbiter a starving requester suspects
	// (suspectArbiter), or -1.
	rescueTarget int

	// excluded tracks the members that answered nothing during the
	// invalidation round that regenerated the current token: §6 presumes
	// them failed and purges their entries. If such a member is in fact
	// alive beyond a partition, both sides can end up serving only local
	// requesters — and a purely local batch dispatches without a
	// NEW-ARBITER broadcast, so after the partition heals neither side
	// ever sends the other a single message and the split brain is
	// permanent. Until every excluded member is heard from again, the
	// regenerating arbiter re-sends its announcement to them each
	// ArbiterTimeout (see armReannounce / markHeard).
	excluded      map[int]bool
	announceTimer dme.Timer
}

func (r *recovery) init() {
	r.prevArbiter = -1
	r.watchTarget = -1
	r.rescueTarget = -1
}

// enabled is a tiny helper to keep the call sites readable.
func enabled(nd *node) bool { return nd.opts.Recovery.Enabled }

// onTokenSeen runs whenever a live token reaches this node: our own wait
// for it is over. Deliberately NOT cancelled here: the previous-arbiter
// watchdog — this node may merely be executing its CS mid-batch, which
// proves nothing about the designated arbiter at the batch tail; per §6
// only observing a NEW-ARBITER message stands the watchdog down (and a
// live arbiter answers the PROBE anyway).
func (r *recovery) onTokenSeen(ctx dme.Context, nd *node) {
	ctx.Cancel(r.tokTimer)
	r.tokTimer = dme.Timer{}
}

// onDesignated runs when this node becomes the current arbiter: remember
// who handed the role over, and start waiting for the token.
func (r *recovery) onDesignated(ctx dme.Context, nd *node, prev int) {
	r.prevArbiter = prev
	r.armTokenWait(ctx, nd)
}

// armTokenWait starts the arbiter-side token-arrival timeout: the current
// arbiter is itself a "requesting node" in the §6 sense and starts the
// invalidation protocol directly when the token fails to show up.
func (r *recovery) armTokenWait(ctx dme.Context, nd *node) {
	if !enabled(nd) || nd.haveToken {
		return
	}
	ctx.Cancel(r.tokTimer)
	if r.tokWaitFn == nil {
		r.tokWaitFn = func() {
			r.tokTimer = dme.Timer{}
			// Re-check the arbiter stance at fire time: if the role moved
			// on (abandoned or superseded) the invalidation is someone
			// else's to run, and starting one here could mint a
			// duplicate token.
			if !nd.haveToken && nd.collecting && nd.arbiter == nd.id {
				r.startInvalidation(ctx, nd)
			}
		}
	}
	r.tokTimer = ctx.After(nd.id, nd.opts.Recovery.TokenTimeout, r.tokWaitFn)
}

// onDispatch runs after this node stamps and sends a batch: the batch in
// service changes, any invalidation concluded, and — if the arbiter role
// moved elsewhere — the watchdog on the successor starts.
func (r *recovery) onDispatch(ctx dme.Context, nd *node, batch QList) {
	if !enabled(nd) {
		// lastBatch/pendingBatch feed invalidation and takeover only, and
		// tokTimer is never armed while recovery is off.
		return
	}
	// Both share the dispatched batch, as the token and the NEW-ARBITER
	// broadcast do: no Q-list is ever written in place (see
	// QList.PopHead).
	r.lastBatch = batch
	r.pendingBatch = batch
	ctx.Cancel(r.tokTimer)
	r.tokTimer = dme.Timer{}
	tail := batch.Tail()
	if tail.Node == nd.id {
		return
	}
	r.armWatchdog(ctx, nd, tail.Node)
}

func (r *recovery) armWatchdog(ctx dme.Context, nd *node, target int) {
	r.watchTarget = target
	ctx.Cancel(r.watchTimer)
	ctx.Cancel(r.probeTimer)
	r.watchTimer = ctx.After(nd.id, nd.opts.Recovery.ArbiterTimeout, func() {
		r.watchTimer = dme.Timer{}
		if r.watchTarget < 0 {
			return
		}
		ctx.Send(nd.id, r.watchTarget, Probe{})
		ctx.Cancel(r.probeTimer)
		r.probeTimer = ctx.After(nd.id, nd.opts.Recovery.ProbeTimeout, func() {
			r.probeTimer = dme.Timer{}
			r.takeover(ctx, nd)
		})
	})
}

// onNewArbiterSeen runs on every strictly-newer NEW-ARBITER broadcast:
// the system is visibly alive, so suspicion of the watched arbiter is
// dropped; and if the broadcast designates us, it also tells us which
// batch the token is currently serving.
func (r *recovery) onNewArbiterSeen(ctx dme.Context, nd *node, from int, m NewArbiter) {
	ctx.Cancel(r.watchTimer)
	ctx.Cancel(r.probeTimer)
	r.watchTarget = -1
	if r.invalidating {
		// The broadcast refutes this round's premise: whoever produced
		// the strictly newer batch (an arbiter dispatching, or a takeover
		// that now owns recovery itself) supersedes our role in it.
		// Pressing on to phase 2 here would regenerate a second token
		// next to a live one; stand down and let the newer generation's
		// arbiter run recovery if it is still needed.
		r.endInvalidation(ctx)
		nd.observe(Event{Kind: EventInvalidationResolved, Arbiter: nd.id, Epoch: nd.epoch})
		if m.Arbiter == nd.id {
			// Re-designated: the token is on its way again; go back to
			// plain token-arrival waiting for this new batch.
			r.armTokenWait(ctx, nd)
		}
	}
	if enabled(nd) && m.Arbiter == nd.id {
		r.pendingBatch = m.Q.Clone()
	}
}

// onProbeAck: the watched arbiter answered; keep watching — unless the
// answer itself disowns the role. A probed process that restarted since
// its designation is alive (it acks) but amnesiac (no batch, no token,
// does not even know it was the arbiter); treating that ack as health
// would re-arm the watchdog forever while the group sits tokenless, so
// it escalates to takeover exactly as an unanswered probe would.
func (nd *node) onProbeAck(ctx dme.Context, from int, m ProbeAck) {
	r := &nd.rec
	ctx.Cancel(r.probeTimer)
	r.probeTimer = dme.Timer{}
	if enabled(nd) && r.watchTarget == from {
		if m.NotArbiter {
			ctx.Cancel(r.watchTimer)
			r.watchTimer = dme.Timer{}
			r.takeover(ctx, nd)
			return
		}
		r.armWatchdog(ctx, nd, from)
	}
}

// suspectArbiter runs when one of this node's requests has gone
// unanswered for rescueAfter retransmissions, or, once scheduled, for
// rescueAfter WARNINGs, unicast and broadcast: no member is collecting
// requests. The §6 watchdog cannot see this wedge. The previous arbiter
// watches the current one only until a newer NEW-ARBITER stands it down,
// and a takeover's arbiter is its own predecessor. So when that arbiter
// restarts, its amnesiac incarnation disowns the role, and nobody probes
// it. Suspecting sends nothing: the retransmission or WARNING it rides
// is the question, and only an amnesiac incarnation answers it (disown).
func (r *recovery) suspectArbiter(nd *node) {
	if !enabled(nd) || nd.collecting || nd.arbiter == nd.id {
		return
	}
	r.rescueTarget = nd.arbiter
}

// disown answers a retransmitted REQUEST or a WARNING from requester to
// when this node is an amnesiac incarnation: restarted, not collecting,
// and knowing no token epoch and no batch generation. Whoever sent it
// believes in an arbiter role this incarnation knows nothing of.
func (r *recovery) disown(ctx dme.Context, nd *node, to int) {
	if enabled(nd) && nd.opts.Rejoin && !nd.collecting && nd.epoch == 0 && nd.gen == 0 && to != nd.id {
		ctx.Send(nd.id, to, Disown{})
	}
}

// onDisown: the arbiter a starving requester suspects is an amnesiac
// incarnation. The requester takes over, unless it knows no more than
// that incarnation does (two amnesiacs must not rescue each other).
func (r *recovery) onDisown(ctx dme.Context, nd *node, from int) {
	if r.rescueTarget != from || nd.arbiter != from {
		return
	}
	r.rescueTarget = -1
	if !enabled(nd) || nd.collecting || nd.epoch == 0 && nd.gen == 0 {
		return
	}
	r.seize(ctx, nd, from, nil)
}

// onScheduled runs when one of this node's requests shows up in a
// NEW-ARBITER Q-list: per §6 the requester now arms a token-arrival
// timeout; on expiry it sends WARNING to the current arbiter and re-arms.
func (r *recovery) onScheduled(ctx dme.Context, nd *node, st *reqState) {
	if !enabled(nd) {
		return
	}
	var arm func()
	arm = func() {
		st.tokTimer = ctx.After(nd.id, nd.opts.Recovery.TokenTimeout, func() {
			st.tokTimer = dme.Timer{}
			if !nd.hasOutstanding(st.seq) {
				return
			}
			st.warnings++
			if st.warnings%rescueAfter == 0 {
				// Scheduled requests retransmit no more, so the rescue
				// rides the warnings: nobody may be collecting them.
				r.suspectArbiter(nd)
			}
			w := Warning{Entry: QEntry{Node: nd.id, Seq: st.seq}}
			if st.warnings%retxEscalation == 0 {
				// The unicast may be landing on a stale arbiter belief;
				// every few rounds reach for whoever actually holds the
				// token or the role (cf. retxEscalation for REQUESTs).
				ctx.Broadcast(nd.id, w)
			} else {
				ctx.Send(nd.id, nd.arbiter, w)
			}
			arm()
		})
	}
	ctx.Cancel(st.tokTimer)
	arm()
}

// onWarning: a requester suspects the token is lost. A collecting
// arbiter that is itself still waiting for the token starts the §6
// invalidation. A collecting arbiter that HOLDS the token instead
// re-accepts the warner's entry: the warner was scheduled on a batch
// whose token incarnation died (e.g. an invalidation round lost the
// ENQUIRY to it, presumed it failed, and excluded its entry from the
// requeue) and it has no other path back into the queue — its
// retransmission timer is off while scheduled. Batch dedup and the
// executed-entry skip absorb the case where the entry was in fact
// served.
func (nd *node) onWarning(ctx dme.Context, from int, m Warning) {
	if !enabled(nd) || !nd.collecting {
		nd.rec.disown(ctx, nd, from)
		return
	}
	if nd.haveToken || nd.inCS {
		nd.acceptRequest(ctx, m.Entry)
		return
	}
	if nd.rec.invalidating {
		return
	}
	nd.rec.startInvalidation(ctx, nd)
}

// startInvalidation begins phase 1 of the two-phase token invalidation
// protocol (§6): ENQUIRY to every node of the batch in service plus the
// previous arbiter.
func (r *recovery) startInvalidation(ctx dme.Context, nd *node) {
	if r.invalidating {
		return
	}
	r.invalidating = true
	r.round++
	nd.observe(Event{Kind: EventInvalidationStarted, Arbiter: nd.id, Batch: len(r.pendingBatch), Epoch: nd.epoch})
	r.acks = make(map[int]TokenStatus)
	r.targets = r.targets[:0]
	seen := make(map[int]bool)
	for _, e := range r.pendingBatch {
		if e.Node != nd.id && !seen[e.Node] {
			seen[e.Node] = true
			r.targets = append(r.targets, e.Node)
		}
	}
	if p := r.prevArbiter; p >= 0 && p != nd.id && !seen[p] {
		r.targets = append(r.targets, p)
	}
	if len(r.targets) == 0 {
		// No batch in service and no previous arbiter: this arbiter has
		// no knowledge of where the token could be — it is a restarted
		// (rejoining) incarnation, or the group is degenerate. Enquire
		// every member: a live holder anywhere resolves the round with
		// RESUME, and the acks' MaxFence watermarks rebuild the fence
		// knowledge the amnesiac arbiter is missing before it regenerates.
		for j := 0; j < nd.n; j++ {
			if j != nd.id {
				r.targets = append(r.targets, j)
			}
		}
	}
	if len(r.targets) == 0 {
		r.finishInvalidation(ctx, nd)
		return
	}
	for _, t := range r.targets {
		ctx.Send(nd.id, t, Enquiry{Round: r.round})
	}
	ctx.Cancel(r.roundTimer)
	r.roundTimer = ctx.After(nd.id, nd.opts.Recovery.RoundTimeout, func() {
		r.roundTimer = dme.Timer{}
		if r.invalidating {
			// Silent nodes are presumed failed and excluded (§6).
			r.finishInvalidation(ctx, nd)
		}
	})
}

// onEnquiry answers phase 1: report our token status and, if we hold the
// token, suspend forwarding until RESUME (§6).
func (nd *node) onEnquiry(ctx dme.Context, from int, m Enquiry) {
	var status TokenStatus
	switch {
	case nd.haveToken || nd.inCS:
		status = StatusHolding
		nd.rec.suspended = true
	case nd.hasScheduledOutstanding():
		status = StatusWaiting
	default:
		status = StatusExecuted
	}
	ctx.Send(nd.id, from, EnquiryAck{
		Round:    m.Round,
		Status:   status,
		Epoch:    nd.epoch,
		Gen:      nd.gen,
		MaxFence: nd.maxFence,
	})
}

func (nd *node) hasScheduledOutstanding() bool {
	for _, st := range nd.outstanding {
		if st.scheduled {
			return true
		}
	}
	return false
}

// onEnquiryAck collects phase-1 answers. A single "I have the token"
// short-circuits to RESUME; once everyone answered without a holder, the
// token is declared lost.
func (nd *node) onEnquiryAck(ctx dme.Context, from int, m EnquiryAck) {
	r := &nd.rec
	if !r.invalidating || m.Round != r.round {
		// The round this answers is over — stood down by a newer
		// NEW-ARBITER, or timed out. A holder suspended itself to answer
		// and holds the token until told otherwise, whatever became of the
		// round, so it still gets its verdict: carry on if its token is of
		// our epoch or newer, drop it if our epoch has moved past it.
		if m.Status == StatusHolding {
			if m.Epoch >= nd.epoch {
				ctx.Send(nd.id, from, Resume{Round: m.Round})
			} else {
				ctx.Send(nd.id, from, Invalidate{Epoch: nd.epoch})
			}
		}
		return
	}
	r.acks[from] = m.Status
	// Anti-entropy: the answers rebuild whatever view a restarted
	// (amnesiac) arbiter lost — regeneration and the announcements that
	// follow it must land above the group's observed epoch, generation,
	// and fence watermark or the peers' staleness gates discard them.
	if m.MaxFence > nd.maxFence {
		nd.maxFence = m.MaxFence
	}
	if m.Gen > nd.gen {
		nd.gen = m.Gen
	}
	if m.Epoch > nd.epoch {
		nd.epoch = m.Epoch
	}
	if m.Status == StatusHolding {
		ctx.Send(nd.id, from, Resume{Round: m.Round})
		r.endInvalidation(ctx)
		nd.observe(Event{Kind: EventInvalidationResolved, Arbiter: nd.id, Epoch: nd.epoch})
		// The holder keeps operating, but this arbiter may be sitting on
		// collected requests with no token and no designation coming its
		// way (a rejoined incarnation) — and the RESUME'd token itself can
		// be lost in flight; keep the token wait armed while any local work
		// is pending so the round retries rather than wedging.
		if len(nd.q) > 0 || len(nd.outstanding) > 0 || len(r.pendingBatch) > 0 {
			r.armTokenWait(ctx, nd)
		}
		return
	}
	if len(r.acks) == len(r.targets) {
		r.finishInvalidation(ctx, nd)
	}
}

func (r *recovery) endInvalidation(ctx dme.Context) {
	r.invalidating = false
	ctx.Cancel(r.roundTimer)
	r.roundTimer = dme.Timer{}
}

// finishInvalidation is phase 2 when no node holds the token: bump the
// epoch (killing any stale PRIVILEGE still in flight), INVALIDATE the
// waiting nodes, re-queue their entries at the front of the batch being
// collected, and regenerate the token at this arbiter (§6).
func (r *recovery) finishInvalidation(ctx dme.Context, nd *node) {
	r.endInvalidation(ctx)
	if nd.haveToken {
		// The "lost" token arrived while phase 1 was still collecting
		// answers (it was merely slow): nothing to regenerate — minting
		// a second token here would clobber the live one.
		nd.observe(Event{Kind: EventInvalidationResolved, Arbiter: nd.id, Epoch: nd.epoch})
		return
	}
	nd.epoch++
	for _, t := range r.targets {
		if r.acks[t] == StatusWaiting {
			ctx.Send(nd.id, t, Invalidate{Epoch: nd.epoch})
		}
	}
	requeue := make(QList, 0, len(r.pendingBatch))
	for _, e := range r.pendingBatch {
		if e.Node == nd.id {
			if nd.hasOutstanding(e.Seq) {
				requeue = append(requeue, e)
			}
			continue
		}
		if r.acks[e.Node] == StatusWaiting {
			requeue = append(requeue, e)
		}
	}
	nd.q = append(requeue, nd.q...)
	// The lost incarnation can have granted at most one fence per entry
	// of the batch it was serving beyond the last base every node
	// observed; starting strictly above that keeps fences monotone
	// across regeneration (computed before pendingBatch is cleared).
	// An amnesiac arbiter does not know the lost batch; pad by the
	// cluster size, which bounds any batch's distinct grants.
	pad := uint64(len(r.pendingBatch))
	if pad == 0 {
		pad = uint64(nd.n)
	}
	fenceJump := nd.maxFence + pad + 1
	r.pendingBatch = nil

	nd.haveToken = true
	nd.token = Privilege{
		Granted: make([]uint64, nd.n),
		Counter: nd.counter,
		Epoch:   nd.epoch,
		Gen:     nd.gen,
		Fence:   fenceJump,
	}
	if fenceJump > nd.maxFence {
		nd.maxFence = fenceJump
	}
	nd.noteTokenSeen(nd.epoch, nd.gen, fenceJump)
	nd.observe(Event{Kind: EventTokenRegenerated, Arbiter: nd.id, Epoch: nd.epoch, Fence: fenceJump})

	// Every member that answered nothing this round — enquiry target or
	// not — may be alive beyond a partition, running (or about to
	// regenerate) a token of the epoch this round just killed. Nothing in
	// the normal protocol is addressed to it anymore, so the new epoch
	// has to be pushed to it explicitly once it is reachable again.
	for j := 0; j < nd.n; j++ {
		if j == nd.id {
			continue
		}
		if _, answered := r.acks[j]; !answered {
			if r.excluded == nil {
				r.excluded = make(map[int]bool, nd.n-1)
			}
			r.excluded[j] = true
		}
	}
	r.armReannounce(ctx, nd)
	nd.startWindow(ctx)
}

// announcement assembles this arbiter's current NEW-ARBITER designation
// for the anti-entropy paths (re-announcement to excluded members and
// correction of stale announcers). Q is nil like a takeover's broadcast:
// the receiver's implicit-acknowledgement counting treats the absence as
// a miss and resubmits outstanding requests after Tau announcements,
// which is exactly what a member healed back into the cluster needs.
func (nd *node) announcement() NewArbiter {
	return NewArbiter{
		Arbiter:   nd.id,
		Counter:   nd.counter,
		Monitor:   nd.monitor,
		MonEpoch:  nd.monEpoch,
		Epoch:     nd.epoch,
		Gen:       nd.gen,
		FenceBase: nd.maxFence,
	}
}

// armReannounce keeps pushing the regenerated epoch's NEW-ARBITER to the
// members the invalidation round excluded, one unicast per member per
// ArbiterTimeout, until each has been heard from (markHeard) or the
// arbiter role has moved on — the next dispatch's cluster-wide broadcast
// then advertises the epoch in this node's stead.
func (r *recovery) armReannounce(ctx dme.Context, nd *node) {
	if len(r.excluded) == 0 {
		return
	}
	ctx.Cancel(r.announceTimer)
	r.announceTimer = ctx.After(nd.id, nd.opts.Recovery.ArbiterTimeout, func() {
		r.announceTimer = dme.Timer{}
		if len(r.excluded) == 0 {
			return
		}
		if !nd.collecting || nd.arbiter != nd.id {
			r.excluded = nil
			return
		}
		// Index order, not map order: the simulator's determinism
		// contract extends to send order.
		for j := 0; j < nd.n; j++ {
			if r.excluded[j] {
				ctx.Send(nd.id, j, nd.announcement())
			}
		}
		r.armReannounce(ctx, nd)
	})
}

// markHeard records life from a member: once every member excluded by
// the last regeneration has spoken again, the re-announcement stops.
func (r *recovery) markHeard(from int) {
	if len(r.excluded) != 0 {
		delete(r.excluded, from)
	}
}

// onInvalidate: adopt the new token epoch so the stale token, if it ever
// surfaces, is discarded on receipt — and if we are HOLDING that stale
// token, drop it on the spot.
func (nd *node) onInvalidate(ctx dme.Context, from int, m Invalidate) {
	if m.Epoch > nd.epoch {
		nd.epoch = m.Epoch
	}
	nd.dropInvalidatedToken(ctx)
}

// onResume: the invalidation round found us holding the token; continue
// normal operation, forwarding the token if our CS already finished while
// suspended.
func (nd *node) onResume(ctx dme.Context, m Resume) {
	if !nd.rec.suspended {
		return
	}
	nd.rec.suspended = false
	if nd.haveToken && !nd.inCS {
		nd.handleToken(ctx, nd.token)
	}
}

// takeover implements the failed-arbiter path of §6: the previous arbiter
// probes went unanswered, so it proclaims itself the current arbiter,
// broadcasts NEW-ARBITER, and — since the token may have died with the
// failed arbiter — runs the invalidation protocol over the batch it had
// dispatched.
func (r *recovery) takeover(ctx dme.Context, nd *node) {
	if r.watchTarget < 0 {
		return
	}
	r.seize(ctx, nd, r.watchTarget, r.lastBatch)
}

// seize proclaims this node the current arbiter in place of usurped and,
// unless it holds the token, runs the invalidation round over batch. An
// empty batch enquires every member: a starving requester's rescue
// (onDisown) knows of no batch the token could be serving.
func (r *recovery) seize(ctx dme.Context, nd *node, usurped int, batch QList) {
	r.watchTarget = -1
	nd.observe(Event{Kind: EventTakeover, Arbiter: usurped, Epoch: nd.epoch})
	nd.collecting = true
	nd.forwarding = false
	ctx.Cancel(nd.fwdTimer)
	nd.arbiter = nd.id
	r.prevArbiter = nd.id
	nd.gen++ // the takeover announcement supersedes the failed arbiter's
	ctx.Broadcast(nd.id, NewArbiter{
		Arbiter:  nd.id,
		Q:        nil,
		Counter:  nd.counter,
		Monitor:  nd.monitor,
		MonEpoch: nd.monEpoch,
		Epoch:    nd.epoch,
		Gen:      nd.gen,
	})
	r.pendingBatch = batch.Clone()
	if !nd.haveToken {
		r.startInvalidation(ctx, nd)
		// If the invalidation round discovers the token alive (RESUME
		// path), it will eventually be shipped here; keep a timeout on
		// that journey in case it is lost en route.
		r.armTokenWait(ctx, nd)
	}
}
