package reqtrace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/transport"
	"tokenarbiter/internal/wire"
)

// loopTransport is a minimal transport for middleware tests: Send
// invokes the peer handler directly (there is only one endpoint).
type loopTransport struct {
	self    dme.NodeID
	handler transport.Handler
	sent    []dme.Message
}

func (l *loopTransport) Self() dme.NodeID { return l.self }
func (l *loopTransport) Send(to dme.NodeID, msg dme.Message) error {
	l.sent = append(l.sent, msg)
	return nil
}
func (l *loopTransport) SetHandler(h transport.Handler) { l.handler = h }
func (l *loopTransport) Close() error                   { return nil }

func TestRecorderCaptureRoundTrip(t *testing.T) {
	algo, err := registry.RegisterWire(registry.Core)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, algo, 3)
	if err != nil {
		t.Fatal(err)
	}

	// Lifecycle records plus wire traffic through the middleware.
	step := func(ev string, fence uint64) Record {
		return Record{T: Now(), Ev: ev, Node: 1, Peer: -1, Key: "orders", Trace: MakeID(1, 1), Fence: fence}
	}
	rec.Record(step(EvRequest, 0))
	base := &loopTransport{self: 1}
	tr := rec.Middleware()(base)
	tr.SetHandler(func(from dme.NodeID, msg dme.Message) {})
	msg := wire.Wrap(
		core.Request{Entry: core.QEntry{Node: 1, Seq: 1}},
		wire.WithKey("orders"),
		wire.WithTrace(uint64(MakeID(1, 1))),
	)
	if err := tr.Send(0, msg); err != nil {
		t.Fatal(err)
	}
	base.handler(0, msg) // inbound delivery through the recv tap
	rec.Record(step(EvGrant, 7))
	rec.Record(step(EvRelease, 7))

	if records, dropped := rec.Totals(); records != 5 || dropped != 0 {
		t.Fatalf("totals = (%d records, %d dropped), want (5, 0)", records, dropped)
	}

	capture, err := ReadCapture(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if capture.Header.V != CaptureVersion || capture.Header.Algo != algo || capture.Header.N != 3 {
		t.Fatalf("header %+v", capture.Header)
	}
	if len(capture.Records) != 5 {
		t.Fatalf("%d records, want 5", len(capture.Records))
	}
	wantEv := []string{EvRequest, EvSend, EvRecv, EvGrant, EvRelease}
	for i, r := range capture.Records {
		if r.Ev != wantEv[i] {
			t.Errorf("record %d ev = %q, want %q", i, r.Ev, wantEv[i])
		}
		if r.Key != "orders" {
			t.Errorf("record %d key = %q", i, r.Key)
		}
		if r.Trace != MakeID(1, 1) {
			t.Errorf("record %d trace = %#x", i, r.Trace)
		}
	}
	// Timestamps never run backwards within a capture.
	for i := 1; i < len(capture.Records); i++ {
		if capture.Records[i].T < capture.Records[i-1].T {
			t.Errorf("record %d time %v precedes record %d time %v",
				i, capture.Records[i].T, i-1, capture.Records[i-1].T)
		}
	}

	// The send record's frame decodes through the normal wire path with
	// the sender id and both wrappers intact — what replay depends on.
	send := capture.Records[1]
	if send.Fence != 0 {
		t.Errorf("send record fence = %d", send.Fence)
	}
	from, reopened, err := wire.BinaryCodec().NewDecoder(nil, algo).DecodeBody(send.Frame)
	if err != nil {
		t.Fatalf("decode captured frame: %v", err)
	}
	if from != 1 || !reflect.DeepEqual(reopened, msg) {
		t.Fatalf("captured frame decoded as (%d, %#v), want (1, %#v)", from, reopened, msg)
	}
	// And it is the frame body a connection would have carried, byte for
	// byte.
	var onWire bytes.Buffer
	if err := wire.BinaryCodec().NewEncoder(&onWire, algo).Encode(1, msg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(send.Frame, onWire.Bytes()[wire.PrefixLen:]) {
		t.Errorf("captured frame %x, wire frame body %x", send.Frame, onWire.Bytes()[wire.PrefixLen:])
	}

	// Grant record carries the fence.
	if g := capture.Records[3]; g.Fence != 7 || g.Node != 1 {
		t.Errorf("grant record %+v", g)
	}
}

// TestNilRecorder pins the disabled-recording contract: nil receivers
// no-op everywhere, and a nil middleware disappears from the chain.
func TestNilRecorder(t *testing.T) {
	var rec *Recorder
	rec.Record(Record{Ev: EvRequest, Key: "k", Trace: 1})
	if err := rec.Close(); err != nil {
		t.Errorf("nil Close() = %v", err)
	}
	if records, dropped := rec.Totals(); records != 0 || dropped != 0 {
		t.Error("nil Totals() non-zero")
	}
	if mw := rec.Middleware(); mw != nil {
		t.Error("nil recorder yielded a non-nil middleware")
	}
	base := &loopTransport{self: 0}
	chained := transport.Chain(base, rec.Middleware())
	if chained != transport.Transport(base) {
		t.Error("nil middleware altered the chain")
	}
}

func TestReadCaptureErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"future version", `{"v":99,"algo":"core","n":3}` + "\n"},
		{"zero nodes", `{"v":3,"algo":"core","n":0}` + "\n"},
		{"malformed header", "not json\n"},
		{"malformed record", `{"v":3,"algo":"core","n":3}` + "\nnot json\n"},
	}
	for _, c := range cases {
		if _, err := ReadCapture(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: ReadCapture accepted the capture", c.name)
		}
	}
	// Older captures are refused at the header, with both versions named:
	// v1 (gob-sealed envelopes) and v2 (lifecycle spelled req/rel, no
	// protocol transitions).
	_, err := ReadCapture(strings.NewReader(`{"v":1,"algo":"core","n":3}` + "\n" +
		`{"t":0.1,"ev":"recv","node":0,"peer":1,"env":{"Version":2,"Algo":"core","From":1,"Kind":"REQUEST","Payload":"AAAA"}}` + "\n"))
	if err == nil || !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "v3") {
		t.Errorf("v1 capture: error %v does not name both versions", err)
	}
	_, err = ReadCapture(strings.NewReader(`{"v":2,"algo":"core","n":3}` + "\n" +
		`{"t":0.1,"ev":"req","node":0,"peer":-1,"trace":1099511627777}` + "\n"))
	if err == nil || !strings.Contains(err.Error(), "version 2") || !strings.Contains(err.Error(), "v3") {
		t.Errorf("v2 capture: error %v does not name both versions", err)
	}
}

// TestRecorderMiddlewareUnwrap pins that the recording layer is
// transparent to transport.Find, like every other middleware.
func TestRecorderMiddlewareUnwrap(t *testing.T) {
	algo, err := registry.RegisterWire(registry.Core)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, algo, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := &loopTransport{self: 0}
	chained := transport.Chain(base, rec.Middleware())
	if found, ok := transport.Find[*loopTransport](chained); !ok || found != base {
		t.Error("Find could not see through the recording layer")
	}
}
