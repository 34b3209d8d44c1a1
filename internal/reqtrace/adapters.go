package reqtrace

import (
	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
)

// CoreObserver adapts the core protocol's observer hook to the record
// stream: every protocol transition becomes one Record, named as the
// event kind names itself. Events about one request (batch inclusion,
// token hops, window skips) carry its (node, seq) identity, which derives
// the same trace ID the requester's runtime minted at Lock entry. Install
// it in the observer fan-out (core.FanOut) next to metrics and logging;
// now supplies the timestamps — Now for live runs, the runner's virtual
// clock for simulations — so sim and live runs produce identical records.
func CoreObserver(c Sink, key string, now func() float64) func(core.Event) {
	if c == nil {
		return nil
	}
	return func(ev core.Event) {
		rec := Record{
			T: now(), Ev: ev.Kind.String(), Node: ev.Node, Peer: ev.Arbiter,
			Key: key, Fence: ev.Fence, Batch: ev.Batch, Epoch: ev.Epoch,
		}
		if ev.ReqSeq != 0 { // 0: the event is about the group, not one request
			rec.Trace = MakeID(ev.Req, ev.ReqSeq)
		}
		c.Record(rec)
	}
}

// SimTracer mints trace IDs and emits the runtime-side records (enqueue,
// grant, release) for a simulation run into a sink (a Collector, a
// Checker, or Sinks of both), the counterpart of what live.Node does for
// live runs: install Trace as (or inside)
// dme.Config.Trace and pair it with CoreObserver on the algorithm's
// observer hook for the protocol-side records.
//
// Request-to-grant matching is per-node FIFO — the n-th grant at a node
// completes that node's n-th request — which is exactly the contract the
// live runtime's waiter queue implements, so sim and live traces agree
// even when a node's requests are served out of issue order.
type SimTracer struct {
	sink Sink
	key  string
	seq  []uint64 // per-node request sequence, counting from 1 like core
	fifo [][]ID   // per-node open (granted-pending) request IDs
	inCS []Record // per-node grant in progress; zero Trace when none
}

// NewSimTracer returns a tracer for an n-node run recording into sink.
func NewSimTracer(sink Sink, key string, n int) *SimTracer {
	return &SimTracer{
		sink: sink,
		key:  key,
		seq:  make([]uint64, n),
		fifo: make([][]ID, n),
		inCS: make([]Record, n),
	}
}

// Trace consumes one simulation event; wire it to dme.Config.Trace.
// Grant and release records carry the grant's fence and epoch when the
// algorithm reports them (dme.Fenced).
func (t *SimTracer) Trace(ev dme.TraceEvent) {
	rec := Record{T: ev.Time, Node: ev.From, Peer: -1, Key: t.key}
	switch ev.Kind {
	case dme.TraceRequest:
		t.seq[ev.From]++
		rec.Trace = MakeID(ev.From, t.seq[ev.From])
		t.fifo[ev.From] = append(t.fifo[ev.From], rec.Trace)
		rec.Ev = EvRequest
	case dme.TraceEnterCS:
		q := t.fifo[ev.From]
		if len(q) == 0 {
			return
		}
		t.fifo[ev.From] = q[1:]
		rec.Ev, rec.Trace, rec.Fence, rec.Epoch = EvGrant, q[0], ev.Fence, ev.Epoch
		t.inCS[ev.From] = rec
	case dme.TraceExitCS:
		rec = t.inCS[ev.From]
		if rec.Trace == 0 {
			return
		}
		t.inCS[ev.From] = Record{}
		rec.T, rec.Ev = ev.Time, EvRelease
	default:
		return
	}
	t.sink.Record(rec)
}
