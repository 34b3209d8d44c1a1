package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/wire"
)

// KeyMux multiplexes many independent DME groups — one per lock key —
// over a single Transport. Each bound key gets its own sub-Transport
// whose Send wraps outbound messages in wire.Keyed (which Seal turns
// into the envelope's Key field) and whose handler receives only that
// key's traffic. The mux installs itself as the base transport's
// handler, so construct it before anything else claims the handler slot.
//
// Layering: the mux sits ABOVE the shared middleware chain — counting
// and fault injection wrap the base transport once and observe the
// merged keyed stream (wire.Keyed delegates Kind and SizeUnits to the
// inner message, so per-kind tallies and kind-targeted fault rules see
// keyed traffic exactly like key-less traffic). Per-key middleware, if
// any, wraps the sub-Transport returned by Bind.
//
// The empty key "" is not a lock key: Bind refuses it, and an inbound
// frame that carries no key is dropped (counted in DroppedUnknown)
// without reaching the unknown-key hook, so a stray bare frame cannot
// make a lazily-keyed service mint a lock for it.
//
// Inbound messages for a key that is not bound go to the OnUnknownKey
// hook (if set), which may Bind the key and return; the mux then
// re-resolves and delivers. This is how a lazily-keyed service
// instantiates a lock group the first time a peer — rather than the
// local application — touches the key. Without a hook, unknown-key
// traffic is dropped (counted in DroppedUnknown), which the protocols
// tolerate as message loss.
//
// Dispatch is lock-free: the key table lives in an immutable snapshot
// swapped atomically by the writers (Bind, sub-Transport Close, Close,
// OnUnknownKey), so routing an inbound message costs one atomic load and
// a map lookup — no RWMutex on the per-message path, and no reader-side
// contention between receive goroutines. With the live runtime's inline
// executor those same receive goroutines run protocol code to
// completion after the lookup; see Handler's reentrancy contract.
type KeyMux struct {
	base Transport

	mu    sync.Mutex               // serializes snapshot writers
	state atomic.Pointer[muxState] // current snapshot, read by dispatch

	droppedUnknown atomic.Uint64
}

// muxState is one immutable snapshot of the mux's routing state. Writers
// copy-on-write a fresh value under mu and swap the pointer; dispatch
// reads whichever snapshot is current without locks.
type muxState struct {
	keys    map[string]*keyEndpoint
	unknown func(key string, from dme.NodeID, msg dme.Message)
	closed  bool
}

// clone copies s with a fresh keys map, ready for mutation. Callers hold
// the writer lock.
func (s *muxState) clone() *muxState {
	next := &muxState{
		keys:    make(map[string]*keyEndpoint, len(s.keys)+1),
		unknown: s.unknown,
		closed:  s.closed,
	}
	for k, ep := range s.keys {
		next.keys[k] = ep
	}
	return next
}

// NewKeyMux wraps base and takes over its handler slot.
func NewKeyMux(base Transport) *KeyMux {
	m := &KeyMux{base: base}
	m.state.Store(&muxState{keys: make(map[string]*keyEndpoint)})
	base.SetHandler(m.dispatch)
	return m
}

// OnUnknownKey installs the hook invoked (from the transport's delivery
// goroutine, without mux locks held) when a message arrives for an
// unbound key. The hook may call Bind; after it returns the mux looks
// the key up again and delivers on success. Set it before traffic flows.
func (m *KeyMux) OnUnknownKey(fn func(key string, from dme.NodeID, msg dme.Message)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	next := m.state.Load().clone()
	next.unknown = fn
	m.state.Store(next)
}

// DroppedUnknown reports how many inbound messages were discarded
// because their key was not bound and no hook resolved it.
func (m *KeyMux) DroppedUnknown() uint64 {
	return m.droppedUnknown.Load()
}

// Keys returns the currently bound keys, in no particular order.
func (m *KeyMux) Keys() []string {
	st := m.state.Load()
	out := make([]string, 0, len(st.keys))
	for k := range st.keys {
		out = append(out, k)
	}
	return out
}

// Bind creates the sub-Transport for key. Binding the empty key, an
// already-bound key or a closed mux is an error. The sub-Transport's
// Close unbinds the key only — the base transport stays up for the other
// keys; closing it is the mux's Close. A message dispatched after Bind
// returns is guaranteed to see the binding (the snapshot swap happens
// before Bind returns).
func (m *KeyMux) Bind(key string) (Transport, error) {
	if key == "" {
		return nil, errors.New("keymux: the empty key cannot be bound")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.state.Load()
	if cur.closed {
		return nil, fmt.Errorf("keymux: bind %q on a closed mux", key)
	}
	if _, ok := cur.keys[key]; ok {
		return nil, fmt.Errorf("keymux: key %q is already bound", key)
	}
	ep := &keyEndpoint{mux: m, key: key}
	next := cur.clone()
	next.keys[key] = ep
	m.state.Store(next)
	return ep, nil
}

// dispatch is the base transport's handler: route keyed messages to
// their key's endpoint and drop key-less ones. The hot path — bound key,
// handler installed — takes no locks.
func (m *KeyMux) dispatch(from dme.NodeID, msg dme.Message) {
	msg, key := wire.SplitKey(msg)
	st := m.state.Load()
	if st.closed {
		return
	}
	ep := st.keys[key]
	if ep == nil && key != "" && st.unknown != nil {
		st.unknown(key, from, msg) // may Bind(key)
		ep = m.state.Load().keys[key]
	}
	if ep == nil {
		m.droppedUnknown.Add(1)
		return
	}
	ep.deliver(from, msg)
}

// Close shuts the mux and the base transport down. Bound keys are
// released; their sub-Transports' Sends become no-ops.
func (m *KeyMux) Close() error {
	m.mu.Lock()
	cur := m.state.Load()
	if cur.closed {
		m.mu.Unlock()
		return nil
	}
	m.state.Store(&muxState{keys: make(map[string]*keyEndpoint), closed: true})
	m.mu.Unlock()
	return m.base.Close()
}

// unbind removes key if ep is still its endpoint (a later re-Bind of the
// same key must not be torn down by the old endpoint's Close).
func (m *KeyMux) unbind(key string, ep *keyEndpoint) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.state.Load()
	if got, ok := cur.keys[key]; !ok || got != ep {
		return
	}
	next := cur.clone()
	delete(next.keys, key)
	m.state.Store(next)
}

// keyEndpoint is one key's view of the mux.
type keyEndpoint struct {
	mux *KeyMux
	key string

	handler atomic.Pointer[Handler] // nil until SetHandler; read lock-free by deliver
	hmu     sync.Mutex              // guards pending and the install/flush handoff
	pending []pendingMsg            // inbound arrivals before SetHandler; flushed by it
}

type pendingMsg struct {
	from dme.NodeID
	msg  dme.Message
}

var _ Transport = (*keyEndpoint)(nil)

// Self implements Transport.
func (e *keyEndpoint) Self() dme.NodeID { return e.mux.base.Self() }

// Send implements Transport, tagging the message with the endpoint's
// key.
func (e *keyEndpoint) Send(to dme.NodeID, msg dme.Message) error {
	return e.mux.base.Send(to, wire.Wrap(msg, wire.WithKey(e.key)))
}

// SetHandler implements Transport and flushes any messages that arrived
// between Bind and SetHandler (a peer can race a key's first inbound
// message against the local node construction).
func (e *keyEndpoint) SetHandler(h Handler) {
	e.hmu.Lock()
	e.handler.Store(&h)
	pending := e.pending
	e.pending = nil
	e.hmu.Unlock()
	for _, p := range pending {
		h(p.from, p.msg)
	}
}

// deliver hands an inbound message to the key's handler, buffering it if
// the handler is not installed yet. The installed-handler path is one
// atomic load; the lock is only taken pre-installation, re-checking the
// handler under it so a message can never slip into pending after
// SetHandler's flush has drained it.
func (e *keyEndpoint) deliver(from dme.NodeID, msg dme.Message) {
	if h := e.handler.Load(); h != nil {
		(*h)(from, msg)
		return
	}
	e.hmu.Lock()
	if h := e.handler.Load(); h != nil {
		e.hmu.Unlock()
		(*h)(from, msg)
		return
	}
	e.pending = append(e.pending, pendingMsg{from, msg})
	e.hmu.Unlock()
}

// Close implements Transport: it unbinds this key only. The base
// transport is shared by every other key and is closed by KeyMux.Close.
func (e *keyEndpoint) Close() error {
	e.mux.unbind(e.key, e)
	return nil
}
