package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/telemetry"
)

// recvOn binds key on mux and collects its deliveries.
type keyRecorder struct {
	mu   sync.Mutex
	msgs []dme.Message
	from []dme.NodeID
	got  chan struct{}
}

func newKeyRecorder() *keyRecorder {
	return &keyRecorder{got: make(chan struct{}, 64)}
}

func (r *keyRecorder) handler(from dme.NodeID, msg dme.Message) {
	r.mu.Lock()
	r.msgs = append(r.msgs, msg)
	r.from = append(r.from, from)
	r.mu.Unlock()
	r.got <- struct{}{}
}

func (r *keyRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.msgs)
}

func TestKeyMuxRoutesByKey(t *testing.T) {
	net := NewMemNetwork(2, MemOptions{})
	defer net.Close()
	a := NewKeyMux(net.Endpoint(0))
	b := NewKeyMux(net.Endpoint(1))

	aOrders, err := a.Bind("orders")
	if err != nil {
		t.Fatal(err)
	}
	aUsers, err := a.Bind("users")
	if err != nil {
		t.Fatal(err)
	}
	bOrders, _ := b.Bind("orders")
	bUsers, _ := b.Bind("users")

	ro, ru := newKeyRecorder(), newKeyRecorder()
	bOrders.SetHandler(ro.handler)
	bUsers.SetHandler(ru.handler)

	if err := aOrders.Send(1, core.Request{Entry: core.QEntry{Node: 0, Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := aUsers.Send(1, core.Request{Entry: core.QEntry{Node: 0, Seq: 2}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, ro.got)
	waitFor(t, ru.got)

	for name, r := range map[string]*keyRecorder{"orders": ro, "users": ru} {
		if r.count() != 1 {
			t.Fatalf("%s got %d messages, want 1", name, r.count())
		}
	}
	ro.mu.Lock()
	req, ok := ro.msgs[0].(core.Request)
	ro.mu.Unlock()
	if !ok || req.Entry.Seq != 1 {
		t.Errorf("orders got %#v, want the seq-1 request", req)
	}
	ru.mu.Lock()
	req, ok = ru.msgs[0].(core.Request)
	ru.mu.Unlock()
	if !ok || req.Entry.Seq != 2 {
		t.Errorf("users got %#v, want the seq-2 request", req)
	}
	if n := a.DroppedUnknown() + b.DroppedUnknown(); n != 0 {
		t.Errorf("dropped %d messages on a clean route", n)
	}
}

// TestKeyMuxBareFrameDropped pins that "" is not a lock key: it cannot
// be bound, and a frame that carries no key — here from a peer sending
// on its raw endpoint — is counted as dropped without ever reaching the
// unknown-key hook, so it cannot make the hook's owner create anything.
func TestKeyMuxBareFrameDropped(t *testing.T) {
	net := NewMemNetwork(2, MemOptions{})
	defer net.Close()
	mux := NewKeyMux(net.Endpoint(0))
	var hookCalls atomic.Int64
	mux.OnUnknownKey(func(string, dme.NodeID, dme.Message) { hookCalls.Add(1) })

	if _, err := mux.Bind(""); err == nil {
		t.Error("the empty key was bound")
	}

	if err := net.Endpoint(1).Send(0, core.Probe{}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for mux.DroppedUnknown() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("bare frame not counted as dropped")
		}
		time.Sleep(time.Millisecond)
	}
	if n := hookCalls.Load(); n != 0 {
		t.Errorf("bare frame reached the unknown-key hook %d times", n)
	}
	if keys := mux.Keys(); len(keys) != 0 {
		t.Errorf("bare frame left keys %v bound", keys)
	}
}

func TestKeyMuxUnknownKeyHook(t *testing.T) {
	net := NewMemNetwork(2, MemOptions{})
	defer net.Close()
	a := NewKeyMux(net.Endpoint(0))
	b := NewKeyMux(net.Endpoint(1))

	rec := newKeyRecorder()
	var hookCalls atomic.Int64
	b.OnUnknownKey(func(key string, from dme.NodeID, msg dme.Message) {
		hookCalls.Add(1)
		// Lazily join the group, as live.Manager does, installing the
		// handler immediately; the mux re-resolves and delivers.
		ep, err := b.Bind(key)
		if err != nil {
			t.Errorf("bind %q in hook: %v", key, err)
			return
		}
		ep.SetHandler(rec.handler)
	})

	aEP, _ := a.Bind("fresh")
	if err := aEP.Send(1, core.Request{Entry: core.QEntry{Node: 0, Seq: 3}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, rec.got)
	if hookCalls.Load() != 1 {
		t.Errorf("hook ran %d times, want 1", hookCalls.Load())
	}
	if b.DroppedUnknown() != 0 {
		t.Errorf("dropped %d although the hook bound the key", b.DroppedUnknown())
	}

	// Second message: the key is known now, no more hook calls.
	if err := aEP.Send(1, core.Request{Entry: core.QEntry{Node: 0, Seq: 4}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, rec.got)
	if hookCalls.Load() != 1 {
		t.Errorf("hook re-ran for a bound key (%d calls)", hookCalls.Load())
	}
}

func TestKeyMuxUnknownKeyDropped(t *testing.T) {
	net := NewMemNetwork(2, MemOptions{})
	defer net.Close()
	a := NewKeyMux(net.Endpoint(0))
	b := NewKeyMux(net.Endpoint(1)) // no bindings, no hook

	aEP, _ := a.Bind("void")
	if err := aEP.Send(1, core.Probe{}); err != nil {
		t.Fatal(err)
	}
	// Delivery is asynchronous; poll for the drop counter.
	deadline := time.Now().Add(5 * time.Second)
	for b.DroppedUnknown() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("unknown-key message neither delivered nor counted as dropped")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestKeyMuxPendingBuffer pins the Bind/SetHandler race fix: messages
// arriving between Bind and SetHandler are buffered and flushed, in
// order, to the eventually-installed handler — a peer's first message
// for a lazily created key must not be lost while the local node is
// still being constructed.
func TestKeyMuxPendingBuffer(t *testing.T) {
	net := NewMemNetwork(2, MemOptions{FIFO: true})
	defer net.Close()
	a := NewKeyMux(net.Endpoint(0))
	b := NewKeyMux(net.Endpoint(1))

	aEP, _ := a.Bind("k")
	bEP, _ := b.Bind("k") // bound, but no handler yet

	for seq := uint64(1); seq <= 3; seq++ {
		if err := aEP.Send(1, core.Request{Entry: core.QEntry{Node: 0, Seq: seq}}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until all three are buffered inside the endpoint, then install
	// the handler and expect an in-order flush.
	deadline := time.Now().Add(5 * time.Second)
	for {
		bEP.(*keyEndpoint).hmu.Lock()
		n := len(bEP.(*keyEndpoint).pending)
		bEP.(*keyEndpoint).hmu.Unlock()
		if n == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("buffered %d messages before SetHandler, want 3", n)
		}
		time.Sleep(time.Millisecond)
	}
	rec := newKeyRecorder()
	bEP.SetHandler(rec.handler)
	for i := 0; i < 3; i++ {
		waitFor(t, rec.got)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for i, m := range rec.msgs {
		if req := m.(core.Request); req.Entry.Seq != uint64(i+1) {
			t.Errorf("flush order: message %d has seq %d", i, req.Entry.Seq)
		}
	}
}

func TestKeyMuxBindErrorsAndRebind(t *testing.T) {
	net := NewMemNetwork(1, MemOptions{})
	defer net.Close()
	m := NewKeyMux(net.Endpoint(0))

	ep, err := m.Bind("k")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Bind("k"); err == nil {
		t.Error("double Bind succeeded")
	}
	// Closing the sub-transport unbinds only the key; rebinding works and
	// the stale endpoint's Close must not tear the new binding down.
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	ep2, err := m.Bind("k")
	if err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
	_ = ep.Close() // stale close
	if got := m.Keys(); len(got) != 1 || got[0] != "k" {
		t.Errorf("keys after stale close = %v, want [k]", got)
	}
	_ = ep2.Close()

	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Bind("k"); err == nil {
		t.Error("Bind succeeded on a closed mux")
	}
	if err := m.Close(); err != nil {
		t.Error("second Close errored:", err)
	}
}

// TestKeyMuxBelowCountingAndOverTCP runs keyed traffic through the full
// production stack — KeyMux above a counting middleware above real TCP —
// and checks the demux composes with both: per-kind counting sees the
// inner message kinds (Keyed delegates Kind), and keyed envelopes
// survive the gob wire.
func TestKeyMuxBelowCountingAndOverTCP(t *testing.T) {
	factoryAlgo, err := registry.RegisterWire(registry.Core)
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[dme.NodeID]string{}
	regs := [2]*telemetry.Registry{telemetry.NewRegistry(), telemetry.NewRegistry()}
	muxes := make([]*KeyMux, 2)
	listeners := make([]*TCPTransport, 2)
	for i := range muxes {
		tcp, err := NewTCPOpt(i, map[dme.NodeID]string{i: "127.0.0.1:0"}, TCPOptions{Algo: factoryAlgo})
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = tcp
		addrs[i] = tcp.Addr().String()
	}
	for i := range muxes {
		listeners[i].SetPeers(addrs)
		muxes[i] = NewKeyMux(Chain(listeners[i], CountingMW(regs[i])))
	}
	defer muxes[0].Close()
	defer muxes[1].Close()

	send, _ := muxes[0].Bind("orders")
	recvEP, _ := muxes[1].Bind("orders")
	rec := newKeyRecorder()
	recvEP.SetHandler(rec.handler)

	want := core.Request{Entry: core.QEntry{Node: 0, Seq: 42}}
	// TCP dials lazily; retry until the listener accepts.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := send.Send(1, want); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("send over TCP: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitFor(t, rec.got)
	rec.mu.Lock()
	got, ok := rec.msgs[0].(core.Request)
	rec.mu.Unlock()
	if !ok || got.Entry.Seq != 42 {
		t.Fatalf("received %#v, want %#v", rec.msgs[0], want)
	}
	// The counting layer below the demux tallies by inner kind.
	if n := regs[0].Snapshot().Kinds["transport_sent_total"][core.KindRequest]; n != 1 {
		t.Errorf("sender counted %d %s sends, want 1", n, core.KindRequest)
	}
	if n := regs[1].Snapshot().Kinds["transport_received_total"][core.KindRequest]; n != 1 {
		t.Errorf("receiver counted %d %s receives, want 1", n, core.KindRequest)
	}
}
