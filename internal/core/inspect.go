package core

import "tokenarbiter/internal/dme"

// Introspection is a read-only snapshot of a node's protocol state,
// exposed for tests and for the failure-injection experiments that need
// to pick a victim (e.g. "crash the current token holder").
type Introspection struct {
	ID         int
	Arbiter    int  // believed current arbiter
	Monitor    int  // believed current monitor
	IsArbiter  bool // collecting (designated or acting arbiter)
	HasToken   bool
	InCS       bool
	Forwarding bool
	Epoch      uint64
	// LastFence is the fencing counter of the node's most recent grant;
	// MaxFence is the highest fence the node has observed system-wide.
	LastFence   uint64
	MaxFence    uint64
	BatchLen    int // requests collected so far (arbiter role)
	StoredLen   int // requests parked (monitor role)
	Outstanding int // own unsatisfied requests
	// RecentBatchMean is the adaptive window's load estimate: the mean
	// size of the batches this node recently dispatched or saw announced
	// (0 with no history, or when Options.AdaptiveWindow is off).
	RecentBatchMean float64
}

// GrantFence implements dme.Fenced: the fence and epoch Inspect reports
// as LastFence and Epoch.
func (nd *node) GrantFence() (fence, epoch uint64) { return nd.csFence, nd.epoch }

// Inspect returns the protocol snapshot of a node built by this package;
// ok is false for nodes of other algorithms.
func Inspect(n dme.Node) (Introspection, bool) {
	nd, ok := n.(*node)
	if !ok {
		return Introspection{}, false
	}
	var batchMean float64
	if nd.batches != nil {
		batchMean = nd.batches.Mean()
	}
	return Introspection{
		ID:          nd.id,
		Arbiter:     nd.arbiter,
		Monitor:     nd.monitor,
		IsArbiter:   nd.collecting,
		HasToken:    nd.haveToken,
		InCS:        nd.inCS,
		Forwarding:  nd.forwarding,
		Epoch:       nd.epoch,
		LastFence:   nd.csFence,
		MaxFence:    nd.maxFence,
		BatchLen:    len(nd.q),
		StoredLen:   len(nd.stored),
		Outstanding: len(nd.outstanding),

		RecentBatchMean: batchMean,
	}, true
}
