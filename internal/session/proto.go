package session

import (
	"fmt"

	"tokenarbiter/internal/binenc"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/wire"
)

// The session protocol is one more wire message family behind the codec
// API, registered under its own algorithm name: client→server requests
// carry a Seq the matching response echoes, and the server pushes
// WatchEvent and SessionExpired frames with no Seq. Registration order
// below is wire protocol — it fixes the binary codec's kind ids — so
// new messages append at the end and field order inside each layout
// never changes (see internal/core/binary.go for the conventions).

// Algo is the session protocol's wire registry name.
const Algo = "session"

// Messages returns one zero-value prototype of every session message,
// in wire kind-id order.
func Messages() []dme.Message {
	return []dme.Message{
		OpenReq{}, OpenResp{},
		KeepAliveReq{}, KeepAliveResp{},
		AcquireReq{}, AcquireResp{},
		ReleaseReq{}, ReleaseResp{},
		WatchReq{}, WatchResp{}, UnwatchReq{},
		ByeReq{}, ByeResp{},
		WatchEvent{}, SessionExpired{},
	}
}

// Register records the session message family with the wire registry.
// It is idempotent; every Server, Client, and codec test calls it.
func Register() { wire.RegisterAlgorithm(Algo, Messages()...) }

// Code is a response status.
type Code uint8

// Response codes. CodeOverloaded is the admission-control signal —
// clients back off and retry; everything else is a definitive outcome.
const (
	CodeOK Code = iota
	CodeOverloaded
	CodeUnknownSession
	CodeExpired
	CodeNotHeld
	CodeTimeout
	CodeShuttingDown
	CodeBadRequest
)

// String returns the code's diagnostic name.
func (c Code) String() string {
	switch c {
	case CodeOK:
		return "ok"
	case CodeOverloaded:
		return "overloaded"
	case CodeUnknownSession:
		return "unknown-session"
	case CodeExpired:
		return "expired"
	case CodeNotHeld:
		return "not-held"
	case CodeTimeout:
		return "timeout"
	case CodeShuttingDown:
		return "shutting-down"
	case CodeBadRequest:
		return "bad-request"
	}
	return fmt.Sprintf("code(%d)", uint8(c))
}

// Err converts a non-OK code into an error; CodeOK returns nil.
func (c Code) Err() error {
	if c == CodeOK {
		return nil
	}
	return &CodeError{Code: c}
}

// CodeError is a non-OK response code as an error.
type CodeError struct{ Code Code }

// Error implements error.
func (e *CodeError) Error() string { return "session: " + e.Code.String() }

// Watch-event reasons: why the watched key's grant ended.
const (
	// ReasonReleased: the holder released normally.
	ReasonReleased uint8 = 0
	// ReasonExpired: the holder's fence was invalidated through the §6
	// recovery path — its lease expired, or the key's participant was
	// restarted under it and the lock was granted again.
	ReasonExpired uint8 = 1
)

// OpenReq asks the server to create a session with the given lease TTL.
type OpenReq struct {
	Seq       uint64
	TTLMillis uint64
}

// Kind implements dme.Message.
func (OpenReq) Kind() string { return "sess-open" }

// AppendWire implements wire.WireAppender.
func (m OpenReq) AppendWire(b []byte) ([]byte, error) {
	b = binenc.AppendUvarint(b, m.Seq)
	return binenc.AppendUvarint(b, m.TTLMillis), nil
}

// UnmarshalWire implements wire.WireUnmarshaler.
func (m *OpenReq) UnmarshalWire(data []byte) error {
	r := binenc.NewReader(data)
	m.Seq = r.Uvarint()
	m.TTLMillis = r.Uvarint()
	return r.Close()
}

// OpenResp answers OpenReq. TTLMillis is the granted lease — the server
// may clamp the requested TTL to its configured bounds.
type OpenResp struct {
	Seq       uint64
	Code      Code
	Session   uint64
	TTLMillis uint64
}

// Kind implements dme.Message.
func (OpenResp) Kind() string { return "sess-open-resp" }

// AppendWire implements wire.WireAppender.
func (m OpenResp) AppendWire(b []byte) ([]byte, error) {
	b = binenc.AppendUvarint(b, m.Seq)
	b = append(b, byte(m.Code))
	b = binenc.AppendUvarint(b, m.Session)
	return binenc.AppendUvarint(b, m.TTLMillis), nil
}

// UnmarshalWire implements wire.WireUnmarshaler.
func (m *OpenResp) UnmarshalWire(data []byte) error {
	r := binenc.NewReader(data)
	m.Seq = r.Uvarint()
	m.Code = readCode(&r)
	m.Session = r.Uvarint()
	m.TTLMillis = r.Uvarint()
	return r.Close()
}

// KeepAliveReq renews the session's lease to a full TTL from arrival.
type KeepAliveReq struct {
	Seq     uint64
	Session uint64
}

// Kind implements dme.Message.
func (KeepAliveReq) Kind() string { return "sess-keepalive" }

// AppendWire implements wire.WireAppender.
func (m KeepAliveReq) AppendWire(b []byte) ([]byte, error) {
	b = binenc.AppendUvarint(b, m.Seq)
	return binenc.AppendUvarint(b, m.Session), nil
}

// UnmarshalWire implements wire.WireUnmarshaler.
func (m *KeepAliveReq) UnmarshalWire(data []byte) error {
	r := binenc.NewReader(data)
	m.Seq = r.Uvarint()
	m.Session = r.Uvarint()
	return r.Close()
}

// KeepAliveResp answers KeepAliveReq.
type KeepAliveResp struct {
	Seq  uint64
	Code Code
}

// Kind implements dme.Message.
func (KeepAliveResp) Kind() string { return "sess-keepalive-resp" }

// AppendWire implements wire.WireAppender.
func (m KeepAliveResp) AppendWire(b []byte) ([]byte, error) {
	b = binenc.AppendUvarint(b, m.Seq)
	return append(b, byte(m.Code)), nil
}

// UnmarshalWire implements wire.WireUnmarshaler.
func (m *KeepAliveResp) UnmarshalWire(data []byte) error {
	r := binenc.NewReader(data)
	m.Seq = r.Uvarint()
	m.Code = readCode(&r)
	return r.Close()
}

// copyKey is the intern function of a decode with no intern table.
func copyKey(b []byte) string { return string(b) }

// AcquireReq asks for the named lock on behalf of a session. WaitMillis
// bounds the time the request may sit in the key's wait queue before the
// server answers CodeTimeout; 0 waits indefinitely.
type AcquireReq struct {
	Seq        uint64
	Session    uint64
	Key        string
	WaitMillis uint64
}

// Kind implements dme.Message.
func (AcquireReq) Kind() string { return "sess-acquire" }

// AppendWire implements wire.WireAppender.
func (m AcquireReq) AppendWire(b []byte) ([]byte, error) {
	b = binenc.AppendUvarint(b, m.Seq)
	b = binenc.AppendUvarint(b, m.Session)
	b = binenc.AppendString(b, m.Key)
	return binenc.AppendUvarint(b, m.WaitMillis), nil
}

// UnmarshalWire implements wire.WireUnmarshaler.
func (m *AcquireReq) UnmarshalWire(data []byte) error {
	return m.UnmarshalWireInterned(data, copyKey)
}

// UnmarshalWireInterned implements wire.InternUnmarshaler: a session
// server's decoder interns the keys its client locks.
func (m *AcquireReq) UnmarshalWireInterned(data []byte, intern func([]byte) string) error {
	r := binenc.NewReader(data)
	m.Seq = r.Uvarint()
	m.Session = r.Uvarint()
	m.Key = r.InternedString(intern)
	m.WaitMillis = r.Uvarint()
	return r.Close()
}

// AcquireResp answers AcquireReq. On CodeOK, Fence is the grant's
// fencing token — monotonically increasing per key across holders,
// epochs, and §6 recoveries.
type AcquireResp struct {
	Seq   uint64
	Code  Code
	Fence uint64
}

// Kind implements dme.Message.
func (AcquireResp) Kind() string { return "sess-acquire-resp" }

// AppendWire implements wire.WireAppender.
func (m AcquireResp) AppendWire(b []byte) ([]byte, error) {
	b = binenc.AppendUvarint(b, m.Seq)
	b = append(b, byte(m.Code))
	return binenc.AppendUvarint(b, m.Fence), nil
}

// UnmarshalWire implements wire.WireUnmarshaler.
func (m *AcquireResp) UnmarshalWire(data []byte) error {
	r := binenc.NewReader(data)
	m.Seq = r.Uvarint()
	m.Code = readCode(&r)
	m.Fence = r.Uvarint()
	return r.Close()
}

// ReleaseReq gives the named lock back.
type ReleaseReq struct {
	Seq     uint64
	Session uint64
	Key     string
}

// Kind implements dme.Message.
func (ReleaseReq) Kind() string { return "sess-release" }

// AppendWire implements wire.WireAppender.
func (m ReleaseReq) AppendWire(b []byte) ([]byte, error) {
	b = binenc.AppendUvarint(b, m.Seq)
	b = binenc.AppendUvarint(b, m.Session)
	return binenc.AppendString(b, m.Key), nil
}

// UnmarshalWire implements wire.WireUnmarshaler.
func (m *ReleaseReq) UnmarshalWire(data []byte) error {
	return m.UnmarshalWireInterned(data, copyKey)
}

// UnmarshalWireInterned implements wire.InternUnmarshaler: a session
// server's decoder interns the keys its client locks.
func (m *ReleaseReq) UnmarshalWireInterned(data []byte, intern func([]byte) string) error {
	r := binenc.NewReader(data)
	m.Seq = r.Uvarint()
	m.Session = r.Uvarint()
	m.Key = r.InternedString(intern)
	return r.Close()
}

// ReleaseResp answers ReleaseReq.
type ReleaseResp struct {
	Seq  uint64
	Code Code
}

// Kind implements dme.Message.
func (ReleaseResp) Kind() string { return "sess-release-resp" }

// AppendWire implements wire.WireAppender.
func (m ReleaseResp) AppendWire(b []byte) ([]byte, error) {
	b = binenc.AppendUvarint(b, m.Seq)
	return append(b, byte(m.Code)), nil
}

// UnmarshalWire implements wire.WireUnmarshaler.
func (m *ReleaseResp) UnmarshalWire(data []byte) error {
	r := binenc.NewReader(data)
	m.Seq = r.Uvarint()
	m.Code = readCode(&r)
	return r.Close()
}

// WatchReq subscribes the session to the key: every time a grant on the
// key ends (release or expiry) the server pushes one WatchEvent, until
// UnwatchReq or session end.
type WatchReq struct {
	Seq     uint64
	Session uint64
	Key     string
}

// Kind implements dme.Message.
func (WatchReq) Kind() string { return "sess-watch" }

// AppendWire implements wire.WireAppender.
func (m WatchReq) AppendWire(b []byte) ([]byte, error) {
	b = binenc.AppendUvarint(b, m.Seq)
	b = binenc.AppendUvarint(b, m.Session)
	return binenc.AppendString(b, m.Key), nil
}

// UnmarshalWire implements wire.WireUnmarshaler.
func (m *WatchReq) UnmarshalWire(data []byte) error {
	r := binenc.NewReader(data)
	m.Seq = r.Uvarint()
	m.Session = r.Uvarint()
	m.Key = r.String()
	return r.Close()
}

// WatchResp answers WatchReq and UnwatchReq.
type WatchResp struct {
	Seq  uint64
	Code Code
}

// Kind implements dme.Message.
func (WatchResp) Kind() string { return "sess-watch-resp" }

// AppendWire implements wire.WireAppender.
func (m WatchResp) AppendWire(b []byte) ([]byte, error) {
	b = binenc.AppendUvarint(b, m.Seq)
	return append(b, byte(m.Code)), nil
}

// UnmarshalWire implements wire.WireUnmarshaler.
func (m *WatchResp) UnmarshalWire(data []byte) error {
	r := binenc.NewReader(data)
	m.Seq = r.Uvarint()
	m.Code = readCode(&r)
	return r.Close()
}

// UnwatchReq drops the session's watch on the key; answered with a
// WatchResp.
type UnwatchReq struct {
	Seq     uint64
	Session uint64
	Key     string
}

// Kind implements dme.Message.
func (UnwatchReq) Kind() string { return "sess-unwatch" }

// AppendWire implements wire.WireAppender.
func (m UnwatchReq) AppendWire(b []byte) ([]byte, error) {
	b = binenc.AppendUvarint(b, m.Seq)
	b = binenc.AppendUvarint(b, m.Session)
	return binenc.AppendString(b, m.Key), nil
}

// UnmarshalWire implements wire.WireUnmarshaler.
func (m *UnwatchReq) UnmarshalWire(data []byte) error {
	r := binenc.NewReader(data)
	m.Seq = r.Uvarint()
	m.Session = r.Uvarint()
	m.Key = r.String()
	return r.Close()
}

// ByeReq ends the session cleanly: queued acquires are answered
// CodeExpired, held locks are released (not invalidated — a clean
// goodbye is a release, not a crash), and watches are dropped.
type ByeReq struct {
	Seq     uint64
	Session uint64
}

// Kind implements dme.Message.
func (ByeReq) Kind() string { return "sess-bye" }

// AppendWire implements wire.WireAppender.
func (m ByeReq) AppendWire(b []byte) ([]byte, error) {
	b = binenc.AppendUvarint(b, m.Seq)
	return binenc.AppendUvarint(b, m.Session), nil
}

// UnmarshalWire implements wire.WireUnmarshaler.
func (m *ByeReq) UnmarshalWire(data []byte) error {
	r := binenc.NewReader(data)
	m.Seq = r.Uvarint()
	m.Session = r.Uvarint()
	return r.Close()
}

// ByeResp answers ByeReq.
type ByeResp struct {
	Seq  uint64
	Code Code
}

// Kind implements dme.Message.
func (ByeResp) Kind() string { return "sess-bye-resp" }

// AppendWire implements wire.WireAppender.
func (m ByeResp) AppendWire(b []byte) ([]byte, error) {
	b = binenc.AppendUvarint(b, m.Seq)
	return append(b, byte(m.Code)), nil
}

// UnmarshalWire implements wire.WireUnmarshaler.
func (m *ByeResp) UnmarshalWire(data []byte) error {
	r := binenc.NewReader(data)
	m.Seq = r.Uvarint()
	m.Code = readCode(&r)
	return r.Close()
}

// WatchEvent is the server push delivered to each watcher when a grant
// on the watched key ends. Session is the receiving watcher's session
// (so a client multiplexing sessions over one connection can route it);
// Fence is the ended grant's fence; Reason is ReasonReleased or
// ReasonExpired.
type WatchEvent struct {
	Session uint64
	Key     string
	Fence   uint64
	Reason  uint8
}

// Kind implements dme.Message.
func (WatchEvent) Kind() string { return "sess-watch-event" }

// AppendWire implements wire.WireAppender.
func (m WatchEvent) AppendWire(b []byte) ([]byte, error) {
	b = binenc.AppendUvarint(b, m.Session)
	b = binenc.AppendString(b, m.Key)
	b = binenc.AppendUvarint(b, m.Fence)
	return append(b, m.Reason), nil
}

// UnmarshalWire implements wire.WireUnmarshaler.
func (m *WatchEvent) UnmarshalWire(data []byte) error {
	r := binenc.NewReader(data)
	m.Session = r.Uvarint()
	m.Key = r.String()
	m.Fence = r.Uvarint()
	m.Reason = readByte(&r)
	return r.Close()
}

// SessionExpired is the server push telling the client its session is
// gone: the lease ran out (any held locks were invalidated through §6
// recovery) or the server is shutting down.
type SessionExpired struct {
	Session uint64
	Code    Code // CodeExpired or CodeShuttingDown
}

// Kind implements dme.Message.
func (SessionExpired) Kind() string { return "sess-expired" }

// AppendWire implements wire.WireAppender.
func (m SessionExpired) AppendWire(b []byte) ([]byte, error) {
	b = binenc.AppendUvarint(b, m.Session)
	return append(b, byte(m.Code)), nil
}

// UnmarshalWire implements wire.WireUnmarshaler.
func (m *SessionExpired) UnmarshalWire(data []byte) error {
	r := binenc.NewReader(data)
	m.Session = r.Uvarint()
	m.Code = readCode(&r)
	return r.Close()
}

// readCode reads a one-byte response code.
func readCode(r *binenc.Reader) Code { return Code(readByte(r)) }

// readByte reads one raw byte off the cursor.
func readByte(r *binenc.Reader) uint8 {
	b := r.Take(1)
	if len(b) != 1 {
		return 0
	}
	return b[0]
}
