package transport_test

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tokenarbiter/internal/cluster"
	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/live"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/session"
	"tokenarbiter/internal/telemetry"
	"tokenarbiter/internal/transport"
	"tokenarbiter/internal/wire"
)

func TestTCPRoundTrip(t *testing.T) {
	a, err := transport.NewTCP(0, map[dme.NodeID]string{0: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close() //nolint:errcheck
	b, err := transport.NewTCP(1, map[dme.NodeID]string{1: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close() //nolint:errcheck
	addrs := map[dme.NodeID]string{0: a.Addr().String(), 1: b.Addr().String()}
	a.SetPeers(addrs)
	b.SetPeers(addrs)

	got := make(chan dme.Message, 1)
	b.SetHandler(func(from dme.NodeID, msg dme.Message) {
		if from == 0 {
			got <- msg
		}
	})
	a.SetHandler(func(dme.NodeID, dme.Message) {})

	want := core.Request{Entry: core.QEntry{Node: 0, Seq: 42}}
	if err := a.Send(1, want); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-got:
		req, ok := msg.(core.Request)
		if !ok || req.Entry != want.Entry {
			t.Fatalf("received %#v, want %#v", msg, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message never arrived over TCP")
	}
}

// TestTCPClusterMutualExclusion passes one key's token across a 3-node
// cluster over real TCP under a counting layer: the grants never overlap
// and the verdict on the cluster's capture judged every one of them, the
// keyed frames survive the wire, and the shared counting layer and the
// key's own tally agree, by kind (a keyed frame counts as its inner
// message's kind).
func TestTCPClusterMutualExclusion(t *testing.T) {
	const key = "tcp"
	cl := cluster.Start(t, cluster.Config{N: 3, Transport: "tcp", Core: core.Options{
		Treq:              0.005,
		Tfwd:              0.005,
		RetransmitTimeout: 0.5,
	}})
	mgrs, counters := cl.Managers, cl.Counters
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var (
		inCS    atomic.Int64
		counter int64
		wg      sync.WaitGroup
	)
	const rounds = 6
	for _, m := range mgrs {
		wg.Add(1)
		go func(m *live.Manager) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := m.Lock(ctx, key); err != nil {
					t.Errorf("node %d: %v", m.ID(), err)
					return
				}
				if got := inCS.Add(1); got != 1 {
					t.Errorf("%d concurrent holders over TCP", got)
				}
				counter++
				inCS.Add(-1)
				m.Unlock(key)
			}
		}(m)
	}
	wg.Wait()
	if want := int64(len(mgrs) * rounds); counter != want {
		t.Errorf("counter = %d, want %d", counter, want)
	}
	// Compare once nothing sends any more: the registries outlive Close.
	regs := make([]*telemetry.Registry, len(mgrs))
	for i, m := range mgrs {
		regs[i] = m.Registry(key)
	}
	v, err := cl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if v.Err() != nil || v.Grants != int(counter) {
		t.Errorf("verdict %s, want no violation over the %d grants", v, counter)
	}
	for i, reg := range regs {
		shared := counters[i].SentByKind()
		if shared[core.KindRequest] == 0 {
			t.Errorf("node %d: no REQUEST counted by kind: %v", i, shared)
		}
		own := reg.Snapshot().Kinds["transport_sent_total"]
		if !reflect.DeepEqual(own, shared) {
			t.Errorf("node %d: the key's tally %v, the shared stream's %v", i, own, shared)
		}
	}
}

// TestTCPAlgorithmMismatch: a core endpoint and a peer that handshakes
// in the other wire family (the session protocol's tag — a session
// client dialing a peer port, say) must not exchange messages, in either
// direction. The endpoint refuses the handshake with a typed
// *wire.MismatchError naming both families, surfaces it through
// OnWireError, counts it, and drops the connection instead of feeding
// garbage to the protocol.
func TestTCPAlgorithmMismatch(t *testing.T) {
	errCh := make(chan error, 4)
	coreEnd, err := transport.NewTCPOpt(0, map[dme.NodeID]string{0: "127.0.0.1:0"},
		transport.TCPOptions{OnWireError: func(err error) { errCh <- err }})
	if err != nil {
		t.Fatal(err)
	}
	defer coreEnd.Close() //nolint:errcheck
	delivered := make(chan dme.Message, 1)
	coreEnd.SetHandler(func(from dme.NodeID, msg dme.Message) { delivered <- msg })

	// wantMismatch checks err is a mismatch between the two families as
	// seen from local's side by a node that talked to node from.
	wantMismatch := func(what string, err error, local, remote string, from int) {
		t.Helper()
		var mm *wire.MismatchError
		if !errors.As(err, &mm) {
			t.Fatalf("%s: error %T (%v), want *wire.MismatchError", what, err, err)
		}
		if mm.LocalAlgo != local || mm.RemoteAlgo != remote || mm.From != from {
			t.Errorf("%s: mismatch fields = %+v, want local %q remote %q from %d", what, mm, local, remote, from)
		}
	}
	reported := func(local, remote string, from int) {
		t.Helper()
		select {
		case err := <-errCh:
			wantMismatch("OnWireError", err, local, remote, from)
		case msg := <-delivered:
			t.Fatalf("cross-family message delivered to the handler: %#v", msg)
		case <-time.After(5 * time.Second):
			t.Fatal("mismatched handshake neither reported nor delivered")
		}
	}

	// Outbound: node 1 is a raw acceptor answering in the session family.
	// The mismatch surfaces at connection setup, before any frame flows,
	// so the sender learns of it at once.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close() //nolint:errcheck
	acceptorErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			acceptorErr <- err
			return
		}
		defer conn.Close() //nolint:errcheck
		_, err = wire.ServerHandshake(conn, conn, 1, session.Algo)
		acceptorErr <- err
	}()
	coreEnd.SetPeers(map[dme.NodeID]string{0: coreEnd.Addr().String(), 1: ln.Addr().String()})
	err = coreEnd.Send(1, core.Request{Entry: core.QEntry{Node: 0, Seq: 7}})
	if err == nil {
		t.Fatal("Send succeeded across a family mismatch")
	}
	wantMismatch("Send", err, registry.Core, session.Algo, 1)
	wantMismatch("raw acceptor", <-acceptorErr, session.Algo, registry.Core, 0)
	reported(registry.Core, session.Algo, 1)

	// Inbound: node 1 dials in with a session-family hello.
	conn, err := net.Dial("tcp", coreEnd.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck
	_, err = wire.ClientHandshake(conn, 1, session.Algo)
	wantMismatch("raw dialer", err, session.Algo, registry.Core, 0)
	reported(registry.Core, session.Algo, 1)

	if mism, _ := coreEnd.WireErrors(); mism != 2 {
		t.Errorf("mismatch counter = %d, want 2 (one per direction)", mism)
	}
	select {
	case msg := <-delivered:
		t.Fatalf("message delivered despite the mismatch: %#v", msg)
	default:
	}
}

// rawPeer dials tr as a wire peer claiming node id self: the handshake
// a TCPTransport would run, then an encoder on the bare connection.
func rawPeer(t *testing.T, tr *transport.TCPTransport, self int) *wire.Encoder {
	t.Helper()
	conn, err := net.Dial("tcp", tr.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if _, err := wire.ClientHandshake(conn, self, tr.Algo()); err != nil {
		t.Fatalf("handshake as node %d: %v", self, err)
	}
	return wire.BinaryCodec().NewEncoder(conn, tr.Algo())
}

// TestTCPSpoofedSender: the handshake binds a connection to the node id
// it stated. A frame on that connection claiming another sender is
// counted and surfaced as a *wire.DecodeError and never reaches the
// handler; the frames around it, and the connection, are unharmed.
func TestTCPSpoofedSender(t *testing.T) {
	errCh := make(chan error, 4)
	tr, err := transport.NewTCPOpt(0, map[dme.NodeID]string{0: "127.0.0.1:0"},
		transport.TCPOptions{OnWireError: func(err error) { errCh <- err }})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close() //nolint:errcheck
	type delivery struct {
		from dme.NodeID
		msg  dme.Message
	}
	got := make(chan delivery, 4)
	tr.SetHandler(func(from dme.NodeID, msg dme.Message) { got <- delivery{from, msg} })

	enc := rawPeer(t, tr, 9)
	request := func(seq uint64) dme.Message { return core.Request{Entry: core.QEntry{Node: 9, Seq: seq}} }
	for _, f := range []struct {
		from int
		seq  uint64
	}{{9, 1}, {5, 2}, {9, 3}} {
		if err := enc.Encode(f.from, request(f.seq)); err != nil {
			t.Fatal(err)
		}
	}
	for _, seq := range []uint64{1, 3} {
		select {
		case d := <-got:
			if d.from != 9 || !reflect.DeepEqual(d.msg, request(seq)) {
				t.Fatalf("delivered (%d, %#v), want node 9's request %d", d.from, d.msg, seq)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d never arrived", seq)
		}
	}
	select {
	case err := <-errCh:
		var de *wire.DecodeError
		if !errors.As(err, &de) || de.From != 5 {
			t.Fatalf("OnWireError got %T (%v), want a *wire.DecodeError from node 5", err, err)
		}
		if !strings.Contains(err.Error(), "node 9") {
			t.Errorf("error %q does not name the connection's node", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("spoofed frame not surfaced")
	}
	if mm, de := tr.WireErrors(); mm != 0 || de != 1 {
		t.Errorf("wire errors = %d mismatches, %d decode failures; want 0, 1", mm, de)
	}
	if len(got) != 0 || len(errCh) != 0 {
		t.Errorf("%d extra deliveries, %d extra errors", len(got), len(errCh))
	}
}

// TestTCPWrongNodeAnswers: a -peers list that gives one node another's
// address fails the Send at the handshake, naming the node that was
// meant and the node that answered, instead of feeding node 2's traffic
// to node 1.
func TestTCPWrongNodeAnswers(t *testing.T) {
	a, err := transport.NewTCP(0, map[dme.NodeID]string{0: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close() //nolint:errcheck
	b, err := transport.NewTCP(1, map[dme.NodeID]string{1: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close() //nolint:errcheck
	delivered := make(chan dme.Message, 1)
	b.SetHandler(func(_ dme.NodeID, msg dme.Message) { delivered <- msg })
	a.SetPeers(map[dme.NodeID]string{0: a.Addr().String(), 2: b.Addr().String()})

	err = a.Send(2, core.Probe{})
	if err == nil {
		t.Fatal("Send to node 2 succeeded against node 1's address")
	}
	for _, want := range []string{"node 2", "node 1", "-peers"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	select {
	case msg := <-delivered:
		t.Fatalf("node 1 was handed node 2's message: %#v", msg)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestTCPSilentDialer: the acceptor's handshake runs under the dial
// budget, so a dialer that connects and says nothing is refused — closed,
// counted once, surfaced once — instead of holding a goroutine forever.
func TestTCPSilentDialer(t *testing.T) {
	errCh := make(chan error, 2)
	tr, err := transport.NewTCPOpt(0, map[dme.NodeID]string{0: "127.0.0.1:0"},
		transport.TCPOptions{
			DialTimeout: 100 * time.Millisecond,
			OnWireError: func(err error) { errCh <- err },
		})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close() //nolint:errcheck
	conn, err := net.Dial("tcp", tr.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck
	select {
	case err := <-errCh:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("refusal %v, want a deadline error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("silent dialer never refused")
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Errorf("read on the refused connection = %v, want EOF", err)
	}
	if mm, de := tr.WireErrors(); mm != 1 || de != 0 {
		t.Errorf("wire errors = %d mismatches, %d decode failures; want 1, 0", mm, de)
	}
}

// TestTCPCodecOption: TCPOptions.Codec is a compile-compatibility field;
// every spelling of "the wire codec" is accepted and gob is an error
// that says so.
func TestTCPCodecOption(t *testing.T) {
	for _, codec := range []string{"", "auto", "binary"} {
		tr, err := transport.NewTCPOpt(0, map[dme.NodeID]string{0: "127.0.0.1:0"}, transport.TCPOptions{Codec: codec})
		if err != nil {
			t.Fatalf("Codec %q: %v", codec, err)
		}
		_ = tr.Close()
	}
	_, err := transport.NewTCPOpt(0, map[dme.NodeID]string{0: "127.0.0.1:0"}, transport.TCPOptions{Codec: "gob"})
	if err == nil || !strings.Contains(err.Error(), "gob is gone") {
		t.Errorf("Codec \"gob\": error %v, want one saying gob is gone", err)
	}
}
