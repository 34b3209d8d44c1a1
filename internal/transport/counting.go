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
	inner Transport

	sent      atomic.Uint64
	received  atomic.Uint64
	sentUnits atomic.Uint64
	recvUnits atomic.Uint64

	sentVec *telemetry.CounterVec
	recvVec *telemetry.CounterVec
}

var _ Transport = (*Counting)(nil)

// NewCounting wraps t, keeping the tallies in a registry of its own.
func NewCounting(t Transport) *Counting { return NewCountingIn(t, nil) }

// NewCountingIn wraps t and keeps every tally in reg (nil means a private
// registry): transport_sent_total / transport_received_total (by kind),
// transport_sent_units_total / transport_received_units_total (Sized
// payload units, the simulation's TotalUnits accounting), and — when the
// inner transport reports wire bytes (the TCP transport does) —
// transport_wire_bytes_sent_total / transport_wire_bytes_received_total.
func NewCountingIn(t Transport, reg *telemetry.Registry) *Counting {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	c := &Counting{inner: t}
	c.sentVec = reg.CounterVec("transport_sent_total",
		"protocol messages sent to peers, by kind", "kind")
	c.recvVec = reg.CounterVec("transport_received_total",
		"protocol messages received from peers, by kind", "kind")
	reg.CounterFunc("transport_sent_units_total",
		"abstract payload units sent (Sized messages; others count 1)",
		c.sentUnits.Load)
	reg.CounterFunc("transport_received_units_total",
		"abstract payload units received (Sized messages; others count 1)",
		c.recvUnits.Load)
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
		c.sent.Add(1)
		c.sentUnits.Add(units(msg))
		c.sentVec.With(msg.Kind()).Inc()
	}
	return c.inner.Send(to, msg)
}

// SetHandler implements Transport, counting inbound messages.
func (c *Counting) SetHandler(h Handler) {
	c.inner.SetHandler(func(from dme.NodeID, msg dme.Message) {
		if from != c.inner.Self() {
			c.received.Add(1)
			c.recvUnits.Add(units(msg))
			c.recvVec.With(msg.Kind()).Inc()
		}
		h(from, msg)
	})
}

// Close implements Transport.
func (c *Counting) Close() error { return c.inner.Close() }

// Unwrap implements Wrapper, exposing the wrapped transport to Find.
func (c *Counting) Unwrap() Transport { return c.inner }

// Totals returns the number of messages sent to and received from peers.
func (c *Counting) Totals() (sent, received uint64) {
	return c.sent.Load(), c.received.Load()
}

// UnitTotals returns the message volume in abstract payload units, the
// live counterpart of the simulation's Metrics.TotalUnits.
func (c *Counting) UnitTotals() (sent, received uint64) {
	return c.sentUnits.Load(), c.recvUnits.Load()
}

// SentByKind returns a copy of the per-kind outbound tally.
func (c *Counting) SentByKind() map[string]uint64 { return c.sentVec.Values() }

// ReceivedByKind returns a copy of the per-kind inbound tally, mirroring
// SentByKind.
func (c *Counting) ReceivedByKind() map[string]uint64 { return c.recvVec.Values() }
