package core

import (
	"slices"

	"tokenarbiter/internal/dme"
)

// This file implements the monitor role of the starvation-free variant
// (§4.1): the monitor stores resubmitted (and stray) requests, and when
// the token is periodically diverted to it, appends the stored requests to
// the Q-list, broadcasts the NEW-ARBITER message itself with the counter
// reset, and forwards the token.

// onMonitorRequest handles a resubmission addressed to the monitor.
func (nd *node) onMonitorRequest(ctx dme.Context, m MonitorRequest) {
	if !nd.opts.Monitor || nd.monitor != nd.id {
		// We are no longer the monitor (rotating variant, §5.1): pass it
		// along to the node we believe holds the role now.
		ctx.Send(nd.id, nd.monitor, m)
		return
	}
	nd.storeAtMonitor(ctx, m.Entry)
}

// storeAtMonitor parks a request at the monitor until the token visits.
func (nd *node) storeAtMonitor(ctx dme.Context, e QEntry) {
	if nd.collecting {
		// We are simultaneously the current arbiter; the batch is the
		// faster path and needs no token diversion.
		nd.acceptRequest(ctx, e)
		return
	}
	if nd.stored.Contains(e) {
		return
	}
	nd.stored = append(nd.stored, e)
	nd.armMonitorFlush(ctx)
}

// armMonitorFlush schedules the liveness fallback described in
// Options.MonitorFlushTimeout: if the token does not visit the monitor in
// time, the stored requests are re-submitted to the current arbiter as
// ordinary REQUESTs so a quiescent system still drains. The paper's
// monitor waits for the token unconditionally; see DESIGN.md for why the
// substitution preserves the §4.1 behaviour in steady state.
func (nd *node) armMonitorFlush(ctx dme.Context) {
	if nd.opts.MonitorFlushTimeout <= 0 || nd.flushTimer.Armed() {
		return
	}
	nd.flushTimer = ctx.After(nd.id, nd.opts.MonitorFlushTimeout, func() {
		nd.flushTimer = dme.Timer{}
		// Flush even if we believe the monitor role has moved on: stored
		// requests must never strand here (the duplicates a double
		// delivery could cause are suppressed downstream anyway).
		if len(nd.stored) == 0 {
			return
		}
		for _, e := range nd.stored {
			ctx.Send(nd.id, nd.arbiter, Request{Entry: e, Retransmit: true})
		}
		// Keep the stored copies: if the flush also gets dropped the
		// next token visit still rescues them; duplicates are suppressed
		// by Dedup/FilterGranted and the node-side outstanding check.
		nd.armMonitorFlush(ctx)
	})
}

// absorbStored moves parked requests into the local batch when the token
// is already at the monitor's own node (no diversion needed).
func (nd *node) absorbStored(ctx dme.Context) {
	for _, e := range nd.stored {
		nd.acceptRequest(ctx, e)
	}
	nd.stored = nil
	ctx.Cancel(nd.flushTimer)
	nd.flushTimer = dme.Timer{}
}

// monitorHandleToken processes a token diverted to the monitor (§4.1):
// append the stored requests, broadcast NEW-ARBITER with the counter reset
// to zero, and forward the token to the head of the augmented list.
func (nd *node) monitorHandleToken(ctx dme.Context, tok Privilege) {
	// Clipped, so the first append copies: the token's list shares its
	// backing array with the diverting arbiter's batch, and a Q-list
	// writer always builds a fresh slice (see QList.PopHead).
	batch := slices.Clip(tok.Q)
	for _, e := range nd.stored {
		if !batch.Contains(e) {
			batch = append(batch, e)
		}
	}
	nd.stored = nil
	ctx.Cancel(nd.flushTimer)
	nd.flushTimer = dme.Timer{}

	if nd.opts.SeqNumbers && tok.Granted != nil {
		batch = batch.FilterGranted(tok.Granted)
	}
	if nd.opts.Priorities != nil {
		batch = batch.SortByPriority(nd.opts.Priorities)
	}
	if nd.opts.StrictFairness && tok.Granted != nil {
		batch = batch.SortByGrantCount(tok.Granted)
	}

	nd.haveToken = true
	nd.token = tok
	nd.counter = tok.Counter
	if batch.Empty() {
		// Nothing left to schedule: the monitor becomes the idle
		// token-holding arbiter.
		nd.token.ToMonitor = false
		nd.becomeTokenHoldingArbiter(ctx, nd.token)
		return
	}
	nd.sendBatch(ctx, batch, true)
}
