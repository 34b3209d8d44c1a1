package core

// Message kind strings, used by the harness for per-type accounting.
// REQUEST, PRIVILEGE and NEW-ARBITER are the three message types of the
// basic algorithm (§2.1); REQUEST-FWD is a forwarded request (same wire
// message, counted separately because Figure 5 plots the forwarded
// fraction); REQUEST-RETX is a retransmission after the implicit-ACK check
// failed (§6, lost request); REQUEST-MON is a resubmission to the monitor
// node (§4.1). The remaining kinds belong to the recovery protocol (§6).
const (
	KindRequest     = "REQUEST"
	KindRequestFwd  = "REQUEST-FWD"
	KindRequestRetx = "REQUEST-RETX"
	KindRequestMon  = "REQUEST-MON"
	KindPrivilege   = "PRIVILEGE"
	KindNewArbiter  = "NEW-ARBITER"
	KindWarning     = "WARNING"
	KindEnquiry     = "ENQUIRY"
	KindEnquiryAck  = "ENQUIRY-ACK"
	KindResume      = "RESUME"
	KindInvalidate  = "INVALIDATE"
	KindProbe       = "PROBE"
	KindProbeAck    = "PROBE-ACK"
	KindDisown      = "DISOWN"
)

// Request is REQUEST(j) — optionally REQUEST(j, n) in the sequence-number
// variant; we always carry the sequence number because it is also what
// makes the NEW-ARBITER implicit acknowledgement precise.
type Request struct {
	Entry QEntry
	// Hops counts how many times the request has been forwarded by
	// past-arbiter nodes; requests with Hops ≥ τ are dropped (§4.1).
	Hops int
	// Retransmit marks a resend issued after the request went missing
	// from τ consecutive NEW-ARBITER Q-lists.
	Retransmit bool
}

// Kind implements dme.Message.
func (m Request) Kind() string {
	switch {
	case m.Hops > 0:
		return KindRequestFwd
	case m.Retransmit:
		return KindRequestRetx
	default:
		return KindRequest
	}
}

// MonitorRequest is a request resubmitted to the monitor node after its
// owner failed to see it scheduled in τ consecutive NEW-ARBITER messages.
type MonitorRequest struct {
	Entry QEntry
}

// Kind implements dme.Message.
func (MonitorRequest) Kind() string { return KindRequestMon }

// Privilege is the token: PRIVILEGE(Q) in the basic algorithm,
// PRIVILEGE(Q, L) in the sequence-number variant.
type Privilege struct {
	Q QList
	// Granted is the L array of §2.4: Granted[i] is the sequence number
	// of node i's most recently granted request.
	Granted []uint64
	// Counter is the NEW-ARBITER counter of the adaptive monitor period
	// (§4.1), carried in the token so a node that becomes arbiter via
	// the token alone still knows it.
	Counter int
	// Epoch is the token generation number; a node that has processed
	// INVALIDATE(e) discards any PRIVILEGE with Epoch < e. This is what
	// keeps a slow token from violating safety after regeneration (§6).
	Epoch uint64
	// Gen is the batch generation: incremented at every dispatch. It
	// orders NEW-ARBITER announcements on non-FIFO networks — without
	// it, a stale broadcast arriving late re-designates an old arbiter
	// that the token will never visit again (see the liveness note on
	// NewArbiter.Gen).
	Gen uint64
	// ToMonitor marks a token diverted to the monitor node (§4.1); the
	// monitor appends its stored requests and performs the NEW-ARBITER
	// broadcast itself.
	ToMonitor bool
	// Fence is a monotonically increasing critical-section counter,
	// incremented on every grant. Exposed through the live runtime as a
	// fencing token (Chubby/ZooKeeper style): a protected resource that
	// records the highest fence it has seen can reject writes from a
	// lock holder that stalled across a §6 token regeneration. The
	// regenerated token continues from a fence strictly above any value
	// the lost incarnation could have granted (see recovery.go).
	Fence uint64
}

// clone copies the token so a node can mutate its copy while the
// simulated network still holds the original by reference. Q is shared,
// not copied: no Q-list is ever written in place (see QList.PopHead), so
// narrowing the copy's list leaves the original's intact. Granted is
// deep-copied, since it is the one token slice a holder writes in place
// (OnCSDone records its grant there).
func (m Privilege) clone() Privilege {
	out := m
	if m.Granted != nil {
		out.Granted = make([]uint64, len(m.Granted))
		copy(out.Granted, m.Granted)
	}
	return out
}

// Kind implements dme.Message.
func (Privilege) Kind() string { return KindPrivilege }

// SizeUnits implements dme.Sized: the token carries the Q-list and, in
// the sequence-number variant, the per-node L table.
func (m Privilege) SizeUnits() int { return 1 + len(m.Q) + len(m.Granted) }

// NewArbiter is NEW-ARBITER(j): it announces the next arbiter, carries the
// just-scheduled Q-list (the implicit acknowledgement of §6), the adaptive
// period counter (§4.1) and, in the rotating-monitor variant (§5.1), the
// identity of the next monitor node.
type NewArbiter struct {
	Arbiter int
	Q       QList
	Counter int
	Monitor int
	// FenceBase is the token's fence counter at dispatch time, letting
	// every node maintain a recent lower bound on granted fences even if
	// the token never visits it — the §6 regeneration derives a safely
	// larger fence from it (FenceBase plus the batch length bounds what
	// the lost token could have granted).
	FenceBase uint64
	// MonEpoch versions the Monitor field: ordinary arbiters merely
	// relay their belief, which may be stale; only the rotation of §5.1
	// (performed by the monitor's own broadcast) increments it. Nodes
	// ignore monitor identities older than what they already know —
	// otherwise a stale relay can strip the real monitor of its role
	// while it still holds resubmitted requests.
	MonEpoch uint64
	Epoch    uint64
	// Gen is the batch generation of this announcement. The paper
	// implicitly assumes ordered delivery of NEW-ARBITER broadcasts; on
	// a network that reorders messages, a stale announcement would
	// re-designate a long-gone arbiter, which would then collect its own
	// requests forever while the token circulates elsewhere — a
	// livelock. Nodes ignore announcements whose Gen is not newer than
	// the latest they have seen.
	Gen uint64
}

// Kind implements dme.Message.
func (NewArbiter) Kind() string { return KindNewArbiter }

// SizeUnits implements dme.Sized: the broadcast carries the Q-list (the
// implicit acknowledgement needs it).
func (m NewArbiter) SizeUnits() int { return 1 + len(m.Q) }

// Warning is sent by a requester whose token-arrival timeout expired (§6).
type Warning struct {
	Entry QEntry
}

// Kind implements dme.Message.
func (Warning) Kind() string { return KindWarning }

// Enquiry is phase 1 of the token invalidation protocol: the arbiter asks
// every node on the last known Q-list whether it has seen the token.
type Enquiry struct {
	Round uint64
}

// Kind implements dme.Message.
func (Enquiry) Kind() string { return KindEnquiry }

// TokenStatus is a node's answer to an ENQUIRY.
type TokenStatus int

// The three answers of §6 phase 1.
const (
	// StatusExecuted: "I had the token, and have executed my CS."
	StatusExecuted TokenStatus = iota + 1
	// StatusHolding: "I have the token." The responder suspends CS/token
	// forwarding until RESUME arrives.
	StatusHolding
	// StatusWaiting: "I am waiting for the token."
	StatusWaiting
)

// String renders the status for logs and tests.
func (s TokenStatus) String() string {
	switch s {
	case StatusExecuted:
		return "executed"
	case StatusHolding:
		return "holding"
	case StatusWaiting:
		return "waiting"
	default:
		return "unknown"
	}
}

// EnquiryAck answers an ENQUIRY. Epoch, Gen, and MaxFence report the
// answering node's view of the token epoch, batch generation, and fence
// watermark: a regenerating arbiter folds the answers into its own state
// before minting, so a restarted (amnesiac) arbiter whose counters died
// with its previous incarnation still regenerates strictly above every
// epoch, generation, and fence the group has observed — without them its
// post-regeneration announcements would be discarded by the peers'
// staleness gates and the key would wedge.
type EnquiryAck struct {
	Round    uint64
	Status   TokenStatus
	Epoch    uint64
	Gen      uint64
	MaxFence uint64
}

// Kind implements dme.Message.
func (EnquiryAck) Kind() string { return KindEnquiryAck }

// Resume is phase 2 when some node still holds the token: regular
// operation proceeds.
type Resume struct {
	Round uint64
}

// Kind implements dme.Message.
func (Resume) Kind() string { return KindResume }

// Invalidate is phase 2 when the token is confirmed lost: it bumps the
// token epoch (killing any stale PRIVILEGE still in flight) and tells the
// waiting nodes that the arbiter has re-queued them at the front of its
// list.
type Invalidate struct {
	Epoch uint64
}

// Kind implements dme.Message.
func (Invalidate) Kind() string { return KindInvalidate }

// Probe is sent by the previous arbiter when it suspects the current
// arbiter has failed (§6, failed arbiter).
type Probe struct{}

// Kind implements dme.Message.
func (Probe) Kind() string { return KindProbe }

// ProbeAck answers a PROBE, proving the arbiter is alive. NotArbiter is
// set when the probed process no longer believes it holds the arbiter
// role: a member that crashed and restarted between designation and the
// probe answers probes happily (the process is alive) while knowing
// nothing of the batch or token that died with its previous incarnation.
// Without the flag, the prober keeps reading those acks as "arbiter
// healthy" and its takeover never fires — the group wedges permanently.
// The zero value means "still the arbiter", so acks from older senders
// decode to the previous behaviour.
type ProbeAck struct {
	NotArbiter bool
}

// Kind implements dme.Message.
func (ProbeAck) Kind() string { return KindProbeAck }

// Disown answers a retransmitted REQUEST or a WARNING that reached an
// amnesiac incarnation: a restarted node that has learned no token epoch
// and no batch generation, so it cannot be the arbiter its sender
// believes in. Only a starving requester acts on it (see
// recovery.suspectArbiter); nothing else ever sends it, so a group
// without restarts never sees one.
type Disown struct{}

// Kind implements dme.Message.
func (Disown) Kind() string { return KindDisown }
