package live

import (
	"time"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/telemetry"
)

// Live metric names, one per paper observable (see the README
// Observability section for the full mapping):
//
//	token_passes_total        PRIVILEGE sends — the token moving between nodes
//	dispatches_total          batches stamped and dispatched by this node
//	window_skips_total        of those, dispatched from idle without waiting a Treq
//	qlist_batch_size          distribution of dispatched Q-list lengths
//	arbiter_tenures_total     completed stints as the arbiter
//	arbiter_tenure_seconds    wall-clock duration of those stints
//	lock_wait_seconds         Lock call → grant (the paper's waiting time X̄)
//	cs_hold_seconds           grant → Unlock
//	handoff_latency_seconds   transport receive → grant for message-driven grants
//	short_timer_lateness_seconds  precise Treq-scale timers: fire time − due time
//	requests_forwarded_total  REQUESTs forwarded one hop (§2.1, Figure 5)
//	requests_dropped_total    REQUESTs dropped (τ bound or post-phase, §4.1)
//	requests_retransmitted_total  own requests re-sent (implicit-ACK misses)
//	recovery_* / monitor_*    §6 and §4.1 protocol activity
//
// handoffBuckets resolves the handoff_latency_seconds histogram down to
// a microsecond: with the inline executor a loopback-TCP token handoff
// sits in the tens of microseconds, far below DefLatencyBuckets' 100 µs
// floor. short_timer_lateness_seconds shares the layout: a healthy
// short-timer service fires within microseconds of the deadline (about
// 98 % of local_1key's windows within 5 µs on the reference VM). The
// runner's lead is its wakes' measured p99 overshoot, so about 1 % of
// kernel wakes overrun it and show as tens of microseconds.
var handoffBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 5e-2, 1e-1,
}

// lockWaitBuckets gives lock_wait_seconds the same microsecond floor: a
// Lock on an idle token holder is granted inline on the caller's
// goroutine in a few microseconds, which DefLatencyBuckets would fold
// into "≤ 100 µs" together with every wait that paid a network hop.
// Above 100 µs it keeps DefLatencyBuckets' reach, since a wait that sits
// through a §6 recovery runs to seconds.
var lockWaitBuckets = append(handoffBuckets[:6:6], telemetry.DefLatencyBuckets...)

type liveMetrics struct {
	tokenPasses    *telemetry.Counter
	dispatches     *telemetry.Counter
	windowSkips    *telemetry.Counter
	batchSize      *telemetry.Histogram
	arbiterTenures *telemetry.Counter
	tenureSeconds  *telemetry.Histogram
	monitorDiverts *telemetry.Counter
	abandons       *telemetry.Counter
	reqForwarded   *telemetry.Counter
	reqDropped     *telemetry.Counter
	reqRetx        *telemetry.Counter
	invalidations  *telemetry.Counter
	regenerations  *telemetry.Counter
	resolutions    *telemetry.Counter
	takeovers      *telemetry.Counter
	dupTokens      *telemetry.Counter
	staleTokens    *telemetry.Counter
	lockWait       *telemetry.Histogram
	lockCancels    *telemetry.Counter
	csHold         *telemetry.Histogram
	handoff        *telemetry.Histogram
	timerLateness  *telemetry.Histogram
	grants         *telemetry.Counter
	releases       *telemetry.Counter
	lockWaiters    *telemetry.Gauge

	// tenureStart is executor-confined (the observer runs synchronously
	// inside protocol code); zero means "not the arbiter".
	tenureStart time.Time
}

func newLiveMetrics(reg *telemetry.Registry) *liveMetrics {
	return &liveMetrics{
		tokenPasses: reg.Counter("token_passes_total",
			"times this node sent the token (PRIVILEGE) to a peer"),
		dispatches: reg.Counter("dispatches_total",
			"batches this node stamped into the token and dispatched"),
		windowSkips: reg.Counter("window_skips_total",
			"batches dispatched from idle without waiting a collection window (the adaptive Treq)"),
		batchSize: reg.Histogram("qlist_batch_size",
			"Q-list length of dispatched batches",
			telemetry.LinearBuckets(1, 1, 16)),
		arbiterTenures: reg.Counter("arbiter_tenures_total",
			"completed arbiter stints (designation to handing the role on)"),
		tenureSeconds: reg.Histogram("arbiter_tenure_seconds",
			"wall-clock duration of completed arbiter stints",
			telemetry.DefLatencyBuckets),
		monitorDiverts: reg.Counter("monitor_diversions_total",
			"tokens routed through the §4.1 monitor"),
		abandons: reg.Counter("collections_abandoned_total",
			"superseded arbiter roles abandoned mid-collection"),
		reqForwarded: reg.Counter("requests_forwarded_total",
			"REQUESTs forwarded one hop toward the arbiter (§2.1)"),
		reqDropped: reg.Counter("requests_dropped_total",
			"REQUESTs dropped at the τ bound or after the forwarding phase"),
		reqRetx: reg.Counter("requests_retransmitted_total",
			"own requests re-sent after implicit-ACK misses or timeouts"),
		invalidations: reg.Counter("recovery_invalidations_total",
			"§6 token-invalidation rounds started by this node"),
		regenerations: reg.Counter("recovery_regenerations_total",
			"tokens regenerated by this node (§6 phase 2)"),
		resolutions: reg.Counter("recovery_resolved_total",
			"§6 invalidation rounds resolved without regeneration (the token was alive)"),
		takeovers: reg.Counter("recovery_takeovers_total",
			"silent arbiters this node replaced (§6 watchdog)"),
		dupTokens: reg.Counter("token_duplicates_dropped_total",
			"duplicate PRIVILEGE copies discarded by the sequence dedup"),
		staleTokens: reg.Counter("token_stale_dropped_total",
			"held tokens discarded after their epoch was invalidated (§6)"),
		lockWait: reg.Histogram("lock_wait_seconds",
			"Lock call to critical-section grant (the paper's waiting time)",
			lockWaitBuckets),
		lockCancels: reg.Counter("lock_cancels_total",
			"Lock calls abandoned (context cancelled before the grant)"),
		csHold: reg.Histogram("cs_hold_seconds",
			"critical-section grant to Unlock",
			telemetry.DefLatencyBuckets),
		handoff: reg.Histogram("handoff_latency_seconds",
			"transport receive to critical-section grant for message-driven grants (token arrivals)",
			handoffBuckets),
		timerLateness: reg.Histogram("short_timer_lateness_seconds",
			"precise sub-2ms protocol timers (Treq windows holding requests): fire time minus due time; lax timers (empty windows, Tfwd) are not sampled",
			handoffBuckets),
		grants: reg.Counter("cs_granted_total",
			"critical sections granted to this node"),
		releases: reg.Counter("cs_released_total",
			"critical sections released by this node"),
		lockWaiters: reg.Gauge("lock_waiters",
			"Lock calls currently waiting for the grant"),
	}
}

// observer returns the core.Options.Observer hook that feeds the
// registry. It runs synchronously inside protocol steps, under the
// executor's exclusion.
func (m *liveMetrics) observer() func(core.Event) {
	return func(ev core.Event) {
		switch ev.Kind {
		case core.EventTokenPassed:
			m.tokenPasses.Inc()
		case core.EventBecameArbiter:
			m.tenureStart = time.Now()
		case core.EventDispatched:
			m.dispatches.Inc()
			m.batchSize.Observe(float64(ev.Batch))
			if ev.Arbiter != ev.Node {
				m.endTenure()
			}
		case core.EventWindowSkipped:
			m.windowSkips.Inc()
		case core.EventMonitorDiverted:
			m.monitorDiverts.Inc()
			m.endTenure()
		case core.EventAbandoned:
			m.abandons.Inc()
			m.endTenure()
		case core.EventRequestForwarded:
			m.reqForwarded.Inc()
		case core.EventRequestDropped:
			m.reqDropped.Inc()
		case core.EventRequestRetransmitted:
			m.reqRetx.Inc()
		case core.EventInvalidationStarted:
			m.invalidations.Inc()
		case core.EventTokenRegenerated:
			m.regenerations.Inc()
		case core.EventInvalidationResolved:
			m.resolutions.Inc()
		case core.EventTakeover:
			m.takeovers.Inc()
		case core.EventDuplicateTokenDropped:
			m.dupTokens.Inc()
		case core.EventStaleTokenDropped:
			m.staleTokens.Inc()
		}
	}
}

// endTenure closes the current arbiter stint, if one is open. Node 0's
// initial stint starts at node creation (Init designates it without a
// became-arbiter event); newNode seeds tenureStart for it.
func (m *liveMetrics) endTenure() {
	if m.tenureStart.IsZero() {
		return
	}
	m.arbiterTenures.Inc()
	m.tenureSeconds.Observe(time.Since(m.tenureStart).Seconds())
	m.tenureStart = time.Time{}
}
