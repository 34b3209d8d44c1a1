package reqtrace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/transport"
	"tokenarbiter/internal/wire"
)

// CaptureVersion is the flight-recorder capture format generation.
// Version 1 held each message as a gob-sealed envelope; version 2 holds
// the wire frame.
const CaptureVersion = 2

// CaptureHeader is the first line of a capture file: enough metadata to
// rebuild the cluster the capture came from (which algorithm's state
// machines to instantiate, and how many).
type CaptureHeader struct {
	V    int    `json:"v"`
	Algo string `json:"algo"`
	N    int    `json:"n"`
}

// Capture record event kinds. Send/recv are wire-level (one per message
// crossing the recorder's transport layer); req/grant/rel are
// application-level lock lifecycle events recorded by the runtime.
const (
	EvSend    = "send"
	EvRecv    = "recv"
	EvRequest = "req"
	EvGrant   = "grant"
	EvRelease = "rel"
)

// Record is one timestamped capture entry. T is seconds since the
// recorder's epoch — replay treats it as virtual time, so a capture's
// timeline is self-contained. Frame is present only on send/recv records;
// it is the wire frame body exactly as a connection would carry it
// (base64-encoded by encoding/json), so a capture replays through the
// same decode path live traffic takes.
type Record struct {
	T     float64 `json:"t"`
	Ev    string  `json:"ev"`
	Node  int     `json:"node"`
	Peer  int     `json:"peer"`
	Key   string  `json:"key,omitempty"`
	Trace uint64  `json:"trace,omitempty"`
	Fence uint64  `json:"fence,omitempty"`
	Frame []byte  `json:"frame,omitempty"`
}

// Recorder writes a flight-recorder capture: a JSONL stream with one
// CaptureHeader line followed by Record lines in write order. It layers
// into a node two ways at once: Middleware captures every message
// crossing the transport (send and recv), and the Record* methods let
// the runtime log the application-level lock lifecycle (request, grant,
// release) that wire traffic alone cannot show.
//
// All methods are safe on a nil receiver (no-ops), so callers thread an
// optional recorder without guarding every call site. Writes are
// serialized by a mutex; a write or encode failure drops that record and
// counts it (Dropped) rather than failing the node.
type Recorder struct {
	algo  string
	n     int
	epoch time.Time

	mu      sync.Mutex
	w       io.Writer
	c       io.Closer // non-nil when the recorder owns the sink
	frame   bytes.Buffer
	enc     *wire.Encoder // frames into frame
	records uint64
	dropped uint64
}

// NewRecorder starts a capture on w for an n-node cluster running the
// named algorithm, writing the header line immediately.
func NewRecorder(w io.Writer, algo string, n int) (*Recorder, error) {
	r := &Recorder{algo: algo, n: n, epoch: time.Now(), w: w}
	r.enc = wire.BinaryCodec().NewEncoder(&r.frame, algo)
	hdr, err := json.Marshal(CaptureHeader{V: CaptureVersion, Algo: algo, N: n})
	if err != nil {
		return nil, fmt.Errorf("reqtrace: encode capture header: %w", err)
	}
	if _, err := w.Write(append(hdr, '\n')); err != nil {
		return nil, fmt.Errorf("reqtrace: write capture header: %w", err)
	}
	return r, nil
}

// CreateRecorder creates (truncating) the capture file at path and
// starts a capture into it; Close closes the file.
func CreateRecorder(path, algo string, n int) (*Recorder, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("reqtrace: create capture %s: %w", path, err)
	}
	r, err := NewRecorder(f, algo, n)
	if err != nil {
		f.Close()
		return nil, err
	}
	r.c = f
	return r, nil
}

// Close flushes and closes the underlying sink if the recorder owns it.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.c == nil {
		return nil
	}
	err := r.c.Close()
	r.c = nil
	return err
}

// Since returns seconds since the recorder's epoch — the T value the
// next record written now would carry.
func (r *Recorder) Since() float64 {
	if r == nil {
		return 0
	}
	return time.Since(r.epoch).Seconds()
}

// Totals returns the number of records written and dropped so far.
func (r *Recorder) Totals() (records, dropped uint64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.records, r.dropped
}

// write appends one record line; errors count as drops.
func (r *Recorder) write(rec Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.writeLocked(rec)
}

func (r *Recorder) writeLocked(rec Record) {
	line, err := json.Marshal(rec)
	if err == nil {
		_, err = r.w.Write(append(line, '\n'))
	}
	if err != nil {
		r.dropped++
		return
	}
	r.records++
}

// recordEnvelope captures one wire crossing. sender is the frame's
// sender id; node/peer are the local endpoint's view (node = local id).
func (r *Recorder) recordEnvelope(ev string, node, peer, sender int, msg dme.Message) {
	if r == nil {
		return
	}
	_, key, trace := wire.Unwrap(msg)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.frame.Reset()
	if err := r.enc.Encode(sender, msg); err != nil {
		r.dropped++
		return
	}
	r.writeLocked(Record{
		T: r.Since(), Ev: ev, Node: node, Peer: peer,
		Key: key, Trace: trace, Frame: r.frame.Bytes()[wire.PrefixLen:],
	})
}

// RecordRequest logs an application lock request entering the runtime.
func (r *Recorder) RecordRequest(node int, key string, trace ID) {
	if r == nil {
		return
	}
	r.write(Record{T: r.Since(), Ev: EvRequest, Node: node, Peer: -1,
		Key: key, Trace: uint64(trace)})
}

// RecordGrant logs a critical-section grant with its fencing token.
func (r *Recorder) RecordGrant(node int, key string, trace ID, fence uint64) {
	if r == nil {
		return
	}
	r.write(Record{T: r.Since(), Ev: EvGrant, Node: node, Peer: -1,
		Key: key, Trace: uint64(trace), Fence: fence})
}

// RecordRelease logs a critical-section release (Unlock).
func (r *Recorder) RecordRelease(node int, key string, trace ID) {
	if r == nil {
		return
	}
	r.write(Record{T: r.Since(), Ev: EvRelease, Node: node, Peer: -1,
		Key: key, Trace: uint64(trace)})
}

// Middleware returns a transport layer that captures every message the
// protocol sends or receives through it. Place it outermost (before
// fault injectors), so the capture shows the protocol's view of the
// traffic — what was attempted, not what survived the network. A nil
// recorder yields a nil middleware, which transport.Chain skips.
func (r *Recorder) Middleware() transport.Middleware {
	if r == nil {
		return nil
	}
	return func(next transport.Transport) transport.Transport {
		return &recordTransport{next: next, rec: r}
	}
}

// recordTransport is the Middleware's concrete layer.
type recordTransport struct {
	next transport.Transport
	rec  *Recorder
}

// Self implements transport.Transport.
func (t *recordTransport) Self() dme.NodeID { return t.next.Self() }

// Send captures the outbound message and forwards it down the stack.
func (t *recordTransport) Send(to dme.NodeID, msg dme.Message) error {
	self := t.next.Self()
	t.rec.recordEnvelope(EvSend, self, to, self, msg)
	return t.next.Send(to, msg)
}

// SetHandler installs h below a capture tap for inbound deliveries.
func (t *recordTransport) SetHandler(h transport.Handler) {
	self := t.next.Self()
	t.next.SetHandler(func(from dme.NodeID, msg dme.Message) {
		t.rec.recordEnvelope(EvRecv, self, from, from, msg)
		h(from, msg)
	})
}

// Close implements transport.Transport.
func (t *recordTransport) Close() error { return t.next.Close() }

// Unwrap implements transport.Wrapper.
func (t *recordTransport) Unwrap() transport.Transport { return t.next }
