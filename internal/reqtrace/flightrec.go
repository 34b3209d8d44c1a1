package reqtrace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/transport"
	"tokenarbiter/internal/wire"
)

// CaptureVersion is the flight-recorder capture format generation.
// Version 1 held each message as a gob-sealed envelope; version 2 held
// the wire frame beside lifecycle records spelled req/grant/rel; version
// 3 is the one record stream: the lifecycle is spelled
// enqueue/grant/release, as every other surface spells it, and every
// protocol transition is a line of its own.
const CaptureVersion = 3

// CaptureHeader is the first line of a capture file: enough metadata to
// rebuild the cluster the capture came from (which algorithm's state
// machines to instantiate, and how many).
type CaptureHeader struct {
	V    int    `json:"v"`
	Algo string `json:"algo"`
	N    int    `json:"n"`
}

// Recorder is the sink that keeps everything: it writes a flight-recorder
// capture, a JSONL stream with one CaptureHeader line followed by Record
// lines in write order. It layers into a node two ways at once:
// Middleware captures every message crossing the transport (send and
// recv), and as the node's Sink it logs the lock lifecycle and the
// protocol transitions that wire traffic alone cannot show.
//
// All methods are safe on a nil receiver (no-ops), so callers thread an
// optional recorder without guarding every call site. Writes are
// serialized by a mutex; a write or encode failure drops that record and
// counts it (Dropped) rather than failing the node.
type Recorder struct {
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
	r := &Recorder{w: w}
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

// Totals returns the number of records written and dropped so far.
func (r *Recorder) Totals() (records, dropped uint64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.records, r.dropped
}

// Record implements Sink: one capture line per record.
func (r *Recorder) Record(rec Record) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.writeLocked(rec)
}

// writeLocked appends one record line; errors count as drops.
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
		T: Now(), Ev: ev, Node: node, Peer: peer,
		Key: key, Trace: ID(trace), Frame: r.frame.Bytes()[wire.PrefixLen:],
	})
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
