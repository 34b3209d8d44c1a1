package main

import (
	"context"
	"sync"
	"sync/atomic"

	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/session"
	"tokenarbiter/internal/transport"
	"tokenarbiter/internal/wire"
)

// Span kinds, one per layer boundary the bench can reach from outside
// the program: the client's two calls, the session server's two calls
// into its Backend, and the Manager's two touch points with its
// transport.
const (
	spanAcquire   = "client.acquire"   // Session.Acquire call → return
	spanRelease   = "client.release"   // Session.Release call → return
	spanLockFence = "live.lockfence"   // Backend.LockFence call → return
	spanUnlock    = "live.unlock"      // Backend.Unlock call → return
	spanSend      = "transport.send"   // Transport.Send call → return
	spanHandle    = "transport.handle" // handler entry → exit on the receiver
)

// span is one timed interval on the bench clock. Spans of one request
// join on (Key, Fence); the two halves of one message join on Msg.
type span struct {
	Kind    string `json:"kind"`
	Node    int    `json:"node"`
	Key     string `json:"key"`
	Fence   uint64 `json:"fence,omitempty"`
	Msg     uint64 `json:"msg,omitempty"`      // message id, send and handle spans
	Peer    int    `json:"peer,omitempty"`     // the other end of a message
	MsgKind string `json:"msg_kind,omitempty"` // REQUEST, PRIVILEGE, ...
	Start   int64  `json:"start"`              // ns since the bench epoch
	End     int64  `json:"end"`
}

// spanRecorder keeps the traced pass's spans in memory; they are
// analysed and written out only after the window closes.
type spanRecorder struct {
	on      atomic.Bool
	nextMsg atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{spans: make([]span, 0, 1<<18)}
}

func (r *spanRecorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// client records one measured cycle's two client-side spans.
func (r *spanRecorder) client(node int, key string, fence uint64, a0, a1, r0, r1 int64) {
	if !r.on.Load() {
		return
	}
	r.add(span{Kind: spanAcquire, Node: node, Key: key, Fence: fence, Start: a0, End: a1})
	r.add(span{Kind: spanRelease, Node: node, Key: key, Fence: fence, Start: r0, End: r1})
}

// backend wraps a node's lock provider so each LockFence and Unlock the
// session server issues is timed.
func (r *spanRecorder) backend(node int, inner session.Backend) session.Backend {
	return &spanBackend{r: r, node: node, inner: inner}
}

type spanBackend struct {
	r     *spanRecorder
	node  int
	inner session.Backend
}

func (b *spanBackend) LockFence(ctx context.Context, key string) (uint64, error) {
	t0 := now()
	fence, err := b.inner.LockFence(ctx, key)
	if err == nil && b.r.on.Load() {
		b.r.add(span{Kind: spanLockFence, Node: b.node, Key: key, Fence: fence, Start: t0, End: now()})
	}
	return fence, err
}

func (b *spanBackend) Unlock(key string) {
	t0 := now()
	b.inner.Unlock(key)
	if b.r.on.Load() {
		b.r.add(span{Kind: spanUnlock, Node: b.node, Key: key, Start: t0, End: now()})
	}
}

// middleware times every inter-node message at both ends. The sender
// stamps a message id into the wire layer's trace tag (unused here: the
// program's own tracer is off on this pass), and the receiver reads it
// back and strips it, so a send span finds its handle span even when a
// fault injector below drops messages in between.
func (r *spanRecorder) middleware(node int) transport.Middleware {
	return func(next transport.Transport) transport.Transport {
		return &spanTransport{r: r, node: node, next: next}
	}
}

type spanTransport struct {
	r    *spanRecorder
	node int
	next transport.Transport
}

var (
	_ transport.Transport = (*spanTransport)(nil)
	_ transport.Wrapper   = (*spanTransport)(nil)
)

func (t *spanTransport) Self() dme.NodeID            { return t.next.Self() }
func (t *spanTransport) Close() error                { return t.next.Close() }
func (t *spanTransport) Unwrap() transport.Transport { return t.next }

func (t *spanTransport) Send(to dme.NodeID, msg dme.Message) error {
	if to == t.node || !t.r.on.Load() {
		return t.next.Send(to, msg)
	}
	id := t.r.nextMsg.Add(1)
	_, key := wire.SplitKey(msg)
	t0 := now()
	err := t.next.Send(to, wire.Wrap(msg, wire.WithTrace(id)))
	t.r.add(span{Kind: spanSend, Node: t.node, Peer: to, Key: key, Msg: id,
		MsgKind: msg.Kind(), Start: t0, End: now()})
	return err
}

func (t *spanTransport) SetHandler(h transport.Handler) {
	t.next.SetHandler(func(from dme.NodeID, msg dme.Message) {
		_, key, id := wire.Unwrap(msg)
		if id == 0 {
			h(from, msg)
			return
		}
		msg = wire.Wrap(msg, wire.WithTrace(0))
		t0 := now()
		h(from, msg)
		t.r.add(span{Kind: spanHandle, Node: t.node, Peer: from, Key: key, Msg: id,
			MsgKind: msg.Kind(), Start: t0, End: now()})
	})
}

// take hands the recorded spans over for analysis.
func (r *spanRecorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}
