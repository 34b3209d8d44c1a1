package transport

import (
	"sync/atomic"

	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/telemetry"
)

// Counting wraps a Transport and tallies traffic by message kind and
// volume, giving live deployments the same messages-per-CS and
// units-per-CS observability the simulation metrics provide. Wrap each
// node's endpoint before passing it to live.NewManager — directly, or as
// the CountingMW middleware in a Chain:
//
//	ct := transport.NewCounting(net.Endpoint(i))
//	mgr, _ := live.NewManager(live.ManagerConfig{..., Transport: ct})
//	...
//	sent, received := ct.Totals()
//
// The per-kind tallies live in a telemetry.Registry and nowhere else:
// NewCountingIn's, so they appear on the /metrics endpoint alongside the
// protocol metrics, or a private one.
type Counting struct {
	*Tally
	inner Transport
}

var _ Transport = (*Counting)(nil)

// Tally is the counting layer's bookkeeping without the wrapper: a
// caller that sends and receives on a shared transport — the live
// Manager's per-key engine — counts its own share of the traffic into
// its own registry with CountSent and CountReceived.
type Tally struct {
	sent      atomic.Uint64
	received  atomic.Uint64
	sentUnits atomic.Uint64
	recvUnits atomic.Uint64

	sentVec *telemetry.CounterVec
	recvVec *telemetry.CounterVec
}

// NewTally keeps its tallies in reg (nil means a private registry):
// transport_sent_total / transport_received_total (by kind) and
// transport_sent_units_total / transport_received_units_total (Sized
// payload units, the simulation's TotalUnits accounting).
func NewTally(reg *telemetry.Registry) *Tally {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	t := &Tally{}
	t.sentVec = reg.CounterVec("transport_sent_total",
		"protocol messages sent to peers, by kind", "kind")
	t.recvVec = reg.CounterVec("transport_received_total",
		"protocol messages received from peers, by kind", "kind")
	reg.CounterFunc("transport_sent_units_total",
		"abstract payload units sent (Sized messages; others count 1)",
		t.sentUnits.Load)
	reg.CounterFunc("transport_received_units_total",
		"abstract payload units received (Sized messages; others count 1)",
		t.recvUnits.Load)
	return t
}

// CountSent tallies one message sent to a peer.
func (t *Tally) CountSent(msg dme.Message) {
	t.sent.Add(1)
	t.sentUnits.Add(units(msg))
	t.sentVec.With(msg.Kind()).Inc()
}

// CountReceived tallies one message received from a peer.
func (t *Tally) CountReceived(msg dme.Message) {
	t.received.Add(1)
	t.recvUnits.Add(units(msg))
	t.recvVec.With(msg.Kind()).Inc()
}

// NewCounting wraps t, keeping the tallies in a registry of its own.
func NewCounting(t Transport) *Counting { return NewCountingIn(t, nil) }

// NewCountingIn wraps t and keeps every tally in reg (nil means a private
// registry): NewTally's families and — when the inner transport reports
// wire bytes (the TCP transport does) — transport_wire_bytes_sent_total /
// transport_wire_bytes_received_total.
func NewCountingIn(t Transport, reg *telemetry.Registry) *Counting {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	c := &Counting{Tally: NewTally(reg), inner: t}
	if wb, ok := t.(WireByteser); ok {
		reg.CounterFunc("transport_wire_bytes_sent_total",
			"bytes written to peer connections", func() uint64 {
				sent, _ := wb.WireBytes()
				return sent
			})
		reg.CounterFunc("transport_wire_bytes_received_total",
			"bytes read from peer connections", func() uint64 {
				_, recv := wb.WireBytes()
				return recv
			})
	}
	return c
}

// WireByteser is implemented by transports that can report the raw bytes
// moved over the wire (TCPTransport). The in-memory network has no wire;
// unit totals are the comparable volume measure there.
type WireByteser interface {
	WireBytes() (sent, received uint64)
}

// units is the simulation's message-volume measure: SizeUnits for Sized
// messages, 1 otherwise (see dme.Sized).
func units(msg dme.Message) uint64 {
	if s, ok := msg.(dme.Sized); ok {
		return uint64(s.SizeUnits())
	}
	return 1
}

// Self implements Transport.
func (c *Counting) Self() dme.NodeID { return c.inner.Self() }

// Send implements Transport, counting the outbound message. Self-sends
// are not counted, matching the simulation's accounting.
func (c *Counting) Send(to dme.NodeID, msg dme.Message) error {
	if to != c.inner.Self() {
		c.CountSent(msg)
	}
	return c.inner.Send(to, msg)
}

// SetHandler implements Transport, counting inbound messages.
func (c *Counting) SetHandler(h Handler) {
	c.inner.SetHandler(func(from dme.NodeID, msg dme.Message) {
		if from != c.inner.Self() {
			c.CountReceived(msg)
		}
		h(from, msg)
	})
}

// Close implements Transport.
func (c *Counting) Close() error { return c.inner.Close() }

// Unwrap implements Wrapper, exposing the wrapped transport to Find.
func (c *Counting) Unwrap() Transport { return c.inner }

// Totals returns the number of messages sent to and received from peers.
func (t *Tally) Totals() (sent, received uint64) {
	return t.sent.Load(), t.received.Load()
}

// UnitTotals returns the message volume in abstract payload units, the
// live counterpart of the simulation's Metrics.TotalUnits.
func (t *Tally) UnitTotals() (sent, received uint64) {
	return t.sentUnits.Load(), t.recvUnits.Load()
}

// SentByKind returns a copy of the per-kind outbound tally.
func (t *Tally) SentByKind() map[string]uint64 { return t.sentVec.Values() }

// ReceivedByKind returns a copy of the per-kind inbound tally, mirroring
// SentByKind.
func (t *Tally) ReceivedByKind() map[string]uint64 { return t.recvVec.Values() }
