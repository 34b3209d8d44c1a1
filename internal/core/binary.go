package core

import (
	"tokenarbiter/internal/binenc"
	"tokenarbiter/internal/dme"
)

// Binary wire layouts (wire.WireAppender / wire.WireUnmarshaler) for
// every protocol message, enabling internal/wire's binary codec for the
// core algorithm. Field order is wire protocol: it must stay in lockstep
// between AppendWire and UnmarshalWire, and changing it breaks
// interop with older builds (bump wire.FormatVersion instead). Slices
// decode to nil when empty so a binary round-trip is value-identical to
// a gob round-trip.

// Messages returns one zero-value prototype of every message the
// protocol sends, in wire kind-id order: the order is wire protocol, so
// new messages append at the end.
func Messages() []dme.Message {
	return []dme.Message{
		Request{}, MonitorRequest{}, Privilege{},
		NewArbiter{}, Warning{}, Enquiry{},
		EnquiryAck{}, Resume{}, Invalidate{},
		Probe{}, ProbeAck{}, Disown{},
	}
}

func appendQEntry(b []byte, e QEntry) []byte {
	b = binenc.AppendInt(b, e.Node)
	return binenc.AppendUvarint(b, e.Seq)
}

func readQEntry(r *binenc.Reader) QEntry {
	return QEntry{Node: r.Int(), Seq: r.Uvarint()}
}

func appendQList(b []byte, q QList) []byte {
	b = binenc.AppendUvarint(b, uint64(len(q)))
	for _, e := range q {
		b = appendQEntry(b, e)
	}
	return b
}

func readQList(r *binenc.Reader) QList {
	n := r.Count()
	if n == 0 {
		return nil
	}
	q := make(QList, n)
	for i := range q {
		q[i] = readQEntry(r)
	}
	if r.Err() != nil {
		return nil
	}
	return q
}

// AppendWire implements wire.WireAppender.
func (m Request) AppendWire(b []byte) ([]byte, error) {
	b = appendQEntry(b, m.Entry)
	b = binenc.AppendInt(b, m.Hops)
	return binenc.AppendBool(b, m.Retransmit), nil
}

// UnmarshalWire implements wire.WireUnmarshaler.
func (m *Request) UnmarshalWire(data []byte) error {
	r := binenc.NewReader(data)
	m.Entry = readQEntry(&r)
	m.Hops = r.Int()
	m.Retransmit = r.Bool()
	return r.Close()
}

// AppendWire implements wire.WireAppender.
func (m MonitorRequest) AppendWire(b []byte) ([]byte, error) {
	return appendQEntry(b, m.Entry), nil
}

// UnmarshalWire implements wire.WireUnmarshaler.
func (m *MonitorRequest) UnmarshalWire(data []byte) error {
	r := binenc.NewReader(data)
	m.Entry = readQEntry(&r)
	return r.Close()
}

// AppendWire implements wire.WireAppender.
func (m Privilege) AppendWire(b []byte) ([]byte, error) {
	b = appendQList(b, m.Q)
	b = binenc.AppendUvarints(b, m.Granted)
	b = binenc.AppendInt(b, m.Counter)
	b = binenc.AppendUvarint(b, m.Epoch)
	b = binenc.AppendUvarint(b, m.Gen)
	b = binenc.AppendBool(b, m.ToMonitor)
	return binenc.AppendUvarint(b, m.Fence), nil
}

// UnmarshalWire implements wire.WireUnmarshaler.
func (m *Privilege) UnmarshalWire(data []byte) error {
	r := binenc.NewReader(data)
	m.Q = readQList(&r)
	m.Granted = r.Uvarints()
	m.Counter = r.Int()
	m.Epoch = r.Uvarint()
	m.Gen = r.Uvarint()
	m.ToMonitor = r.Bool()
	m.Fence = r.Uvarint()
	return r.Close()
}

// AppendWire implements wire.WireAppender.
func (m NewArbiter) AppendWire(b []byte) ([]byte, error) {
	b = binenc.AppendInt(b, m.Arbiter)
	b = appendQList(b, m.Q)
	b = binenc.AppendInt(b, m.Counter)
	b = binenc.AppendInt(b, m.Monitor)
	b = binenc.AppendUvarint(b, m.FenceBase)
	b = binenc.AppendUvarint(b, m.MonEpoch)
	b = binenc.AppendUvarint(b, m.Epoch)
	return binenc.AppendUvarint(b, m.Gen), nil
}

// UnmarshalWire implements wire.WireUnmarshaler.
func (m *NewArbiter) UnmarshalWire(data []byte) error {
	r := binenc.NewReader(data)
	m.Arbiter = r.Int()
	m.Q = readQList(&r)
	m.Counter = r.Int()
	m.Monitor = r.Int()
	m.FenceBase = r.Uvarint()
	m.MonEpoch = r.Uvarint()
	m.Epoch = r.Uvarint()
	m.Gen = r.Uvarint()
	return r.Close()
}

// AppendWire implements wire.WireAppender.
func (m Warning) AppendWire(b []byte) ([]byte, error) {
	return appendQEntry(b, m.Entry), nil
}

// UnmarshalWire implements wire.WireUnmarshaler.
func (m *Warning) UnmarshalWire(data []byte) error {
	r := binenc.NewReader(data)
	m.Entry = readQEntry(&r)
	return r.Close()
}

// AppendWire implements wire.WireAppender.
func (m Enquiry) AppendWire(b []byte) ([]byte, error) {
	return binenc.AppendUvarint(b, m.Round), nil
}

// UnmarshalWire implements wire.WireUnmarshaler.
func (m *Enquiry) UnmarshalWire(data []byte) error {
	r := binenc.NewReader(data)
	m.Round = r.Uvarint()
	return r.Close()
}

// AppendWire implements wire.WireAppender.
func (m EnquiryAck) AppendWire(b []byte) ([]byte, error) {
	b = binenc.AppendUvarint(b, m.Round)
	b = binenc.AppendInt(b, int(m.Status))
	b = binenc.AppendUvarint(b, m.Epoch)
	b = binenc.AppendUvarint(b, m.Gen)
	return binenc.AppendUvarint(b, m.MaxFence), nil
}

// UnmarshalWire implements wire.WireUnmarshaler.
func (m *EnquiryAck) UnmarshalWire(data []byte) error {
	r := binenc.NewReader(data)
	m.Round = r.Uvarint()
	m.Status = TokenStatus(r.Int())
	m.Epoch = r.Uvarint()
	m.Gen = r.Uvarint()
	m.MaxFence = r.Uvarint()
	return r.Close()
}

// AppendWire implements wire.WireAppender.
func (m Resume) AppendWire(b []byte) ([]byte, error) {
	return binenc.AppendUvarint(b, m.Round), nil
}

// UnmarshalWire implements wire.WireUnmarshaler.
func (m *Resume) UnmarshalWire(data []byte) error {
	r := binenc.NewReader(data)
	m.Round = r.Uvarint()
	return r.Close()
}

// AppendWire implements wire.WireAppender.
func (m Invalidate) AppendWire(b []byte) ([]byte, error) {
	return binenc.AppendUvarint(b, m.Epoch), nil
}

// UnmarshalWire implements wire.WireUnmarshaler.
func (m *Invalidate) UnmarshalWire(data []byte) error {
	r := binenc.NewReader(data)
	m.Epoch = r.Uvarint()
	return r.Close()
}

// AppendWire implements wire.WireAppender.
func (Probe) AppendWire(b []byte) ([]byte, error) { return b, nil }

// UnmarshalWire implements wire.WireUnmarshaler.
func (*Probe) UnmarshalWire(data []byte) error {
	r := binenc.NewReader(data)
	return r.Close()
}

// AppendWire implements wire.WireAppender.
func (m ProbeAck) AppendWire(b []byte) ([]byte, error) {
	return binenc.AppendBool(b, m.NotArbiter), nil
}

// UnmarshalWire implements wire.WireUnmarshaler.
func (m *ProbeAck) UnmarshalWire(data []byte) error {
	r := binenc.NewReader(data)
	m.NotArbiter = r.Bool()
	return r.Close()
}

// AppendWire implements wire.WireAppender.
func (Disown) AppendWire(b []byte) ([]byte, error) { return b, nil }

// UnmarshalWire implements wire.WireUnmarshaler.
func (*Disown) UnmarshalWire(data []byte) error {
	r := binenc.NewReader(data)
	return r.Close()
}
