package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/session"
	"tokenarbiter/internal/wire"
)

// register pulls the named algorithm's types in via the registry, the
// same path the transports use.
func register(t *testing.T, name string) string {
	t.Helper()
	algo, err := registry.RegisterWire(name)
	if err != nil {
		t.Fatalf("RegisterWire(%s): %v", name, err)
	}
	return algo
}

func TestEnvelopeRoundTripCoreMessageTypes(t *testing.T) {
	algo := register(t, registry.Core)
	msgs := []dme.Message{
		core.Request{Entry: core.QEntry{Node: 3, Seq: 9}, Hops: 1, Retransmit: true},
		core.MonitorRequest{Entry: core.QEntry{Node: 1, Seq: 2}},
		core.Privilege{
			Q:       core.QList{{Node: 1, Seq: 2}, {Node: 3, Seq: 4}},
			Granted: []uint64{5, 6, 7},
			Counter: 8,
			Epoch:   9,
		},
		core.NewArbiter{Arbiter: 2, Q: core.QList{{Node: 2, Seq: 1}}, Counter: 3, Monitor: 4, Epoch: 5},
		core.Warning{Entry: core.QEntry{Node: 0, Seq: 1}},
		core.Enquiry{Round: 11},
		core.EnquiryAck{Round: 11, Status: core.StatusWaiting},
		core.Resume{Round: 11},
		core.Invalidate{Epoch: 12},
		core.Probe{},
		core.ProbeAck{},
		core.Disown{},
	}
	for _, msg := range msgs {
		out := roundTrip(t, algo, 6, msg)
		if !reflect.DeepEqual(out, msg) {
			t.Errorf("%T: payload %#v, want %#v", msg, out, msg)
		}
	}
}

func TestPrivilegeWithToMonitorFlag(t *testing.T) {
	// A token that is otherwise all zero values must still carry a set
	// flag.
	algo := register(t, registry.Core)
	out := roundTrip(t, algo, 0, core.Privilege{ToMonitor: true, Epoch: 1})
	p, ok := out.(core.Privilege)
	if !ok || !p.ToMonitor {
		t.Errorf("ToMonitor flag lost: %#v", out)
	}
}

func TestTwoAlgorithmsInOneProcess(t *testing.T) {
	// Registration is per family, not per process: core and the session
	// protocol coexist, each with its own kind-id table.
	a := register(t, registry.Core)
	session.Register()
	b := session.Algo
	if out := roundTrip(t, a, 0, core.Request{}); out.Kind() != core.KindRequest {
		t.Errorf("core request kind %q", out.Kind())
	}
	if out := roundTrip(t, b, 0, session.OpenReq{Seq: 1, TTLMillis: 2}); out.Kind() != (session.OpenReq{}).Kind() {
		t.Errorf("session open kind %q", out.Kind())
	}
	// One family's encoder refuses the other's messages.
	if err := wire.BinaryCodec().NewEncoder(&bytes.Buffer{}, a).Encode(0, session.OpenReq{}); err == nil {
		t.Error("core encoder accepted a session message")
	}
}

func TestRegisterAlgorithmIdempotent(t *testing.T) {
	// Repeats of the same algorithm are no-ops: the first call's kind
	// ids stand.
	wire.RegisterAlgorithm("idem-test", core.Request{})
	wire.RegisterAlgorithm("idem-test", core.Privilege{}, core.Request{})
	if _, ok := roundTrip(t, "idem-test", 0, core.Request{}).(core.Request); !ok {
		t.Error("the first registration's kind ids did not stand")
	}
	if err := wire.BinaryCodec().NewEncoder(&bytes.Buffer{}, "idem-test").Encode(0, core.Privilege{}); err == nil {
		t.Error("the repeated registration added a message type")
	}
}

// layoutless is a protocol message nobody wrote a binary layout for.
type layoutless struct{}

func (layoutless) Kind() string { return "LAYOUTLESS" }

// TestRegisterAlgorithmRequiresLayouts: a message without AppendWire /
// UnmarshalWire fails at registration, naming the type — not at the
// first Encode on some connection — and leaves nothing registered.
func TestRegisterAlgorithmRequiresLayouts(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("RegisterAlgorithm accepted a message with no binary layout")
		}
		if s, _ := r.(string); !strings.Contains(s, "layoutless") || !strings.Contains(s, "AppendWire") {
			t.Errorf("unhelpful panic: %v", r)
		}
		if err := wire.BinaryCodec().NewEncoder(&bytes.Buffer{}, "layoutless-test").Encode(0, core.Request{}); err == nil {
			t.Error("a failed registration left the algorithm registered")
		}
	}()
	wire.RegisterAlgorithm("layoutless-test", core.Request{}, layoutless{})
}

func TestSealUnregisteredAlgorithm(t *testing.T) {
	err := wire.BinaryCodec().NewEncoder(&bytes.Buffer{}, "no-such-algo").Encode(0, core.Request{})
	if err == nil {
		t.Fatal("Encode accepted an unregistered algorithm")
	}
}

func TestOpenAlgorithmMismatch(t *testing.T) {
	a := register(t, registry.Core)
	session.Register()
	b := session.Algo
	_, _, err := decodeBinary(encodeBinary(t, a, 3, core.Request{}), b)
	var mm *wire.MismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("Decode returned %v (%T), want *wire.MismatchError", err, err)
	}
	if mm.LocalAlgo != b || mm.RemoteAlgo != a || mm.From != 3 {
		t.Errorf("mismatch fields %+v, want local=%q remote=%q from=3", mm, b, a)
	}
	if !strings.Contains(mm.Error(), "algorithm mismatch") {
		t.Errorf("unhelpful error text: %q", mm.Error())
	}
}

// reframe wraps a frame body in a fresh consistent length prefix.
func reframe(body []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
}

func TestOpenVersionMismatch(t *testing.T) {
	algo := register(t, registry.Core)
	frame := encodeBinary(t, algo, 1, core.Privilege{})
	frame[4] = wire.FormatVersion + 1
	_, _, err := decodeBinary(frame, algo)
	var mm *wire.MismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("Decode returned %v, want *wire.MismatchError", err)
	}
	if mm.RemoteVersion != wire.FormatVersion+1 || mm.LocalVersion != wire.FormatVersion {
		t.Errorf("version fields %+v", mm)
	}
	if !strings.Contains(mm.Error(), "version mismatch") {
		t.Errorf("unhelpful error text: %q", mm.Error())
	}
}

func TestOpenCorruptPayload(t *testing.T) {
	algo := register(t, registry.Core)
	frame := encodeBinary(t, algo, 2, core.Request{Entry: core.QEntry{Node: 1, Seq: 2}})
	corrupt := reframe(append(frame[4:len(frame)-1], 0xff, 0xff, 0xff)) // an unterminated varint
	_, _, err := decodeBinary(corrupt, algo)
	var de *wire.DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("Decode returned %v (%T), want *wire.DecodeError", err, err)
	}
	if de.Kind != core.KindRequest || de.From != 2 || de.Algo != algo {
		t.Errorf("decode-error fields %+v", de)
	}
}

// TestOpenValidationOrder pins the one-error-per-frame contract: each
// failing frame is classified by exactly one check, in version →
// algorithm → payload order, so transport counters never double-report a
// single bad frame.
func TestOpenValidationOrder(t *testing.T) {
	algo := register(t, registry.Core)
	session.Register()
	other := session.Algo
	valid := encodeBinary(t, algo, 4, core.Request{Entry: core.QEntry{Node: 1, Seq: 2}})
	damaged := func(version byte, truncate int) []byte {
		body := append([]byte(nil), valid[4:len(valid)-truncate]...)
		body[0] = version
		return reframe(body)
	}

	// Wrong version AND undecodable payload: the version check wins —
	// the payload (whose layout that version may define differently) is
	// never touched.
	_, _, err := decodeBinary(damaged(wire.FormatVersion+9, 1), algo)
	var mm *wire.MismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("wrong version + corrupt payload: got %T (%v), want *wire.MismatchError", err, err)
	}
	var de *wire.DecodeError
	if errors.As(err, &de) {
		t.Fatal("one frame produced both a mismatch and a decode error")
	}
	if !strings.Contains(mm.Error(), "version mismatch") {
		t.Errorf("version should be checked before algorithm/payload: %q", mm.Error())
	}

	// Wrong version AND wrong algorithm: still reported as the version
	// disagreement — the more fundamental incompatibility.
	_, _, err = decodeBinary(damaged(wire.FormatVersion+1, 0), other)
	if !errors.As(err, &mm) || !strings.Contains(mm.Error(), "version mismatch") {
		t.Fatalf("wrong version + wrong algo: got %v, want a version MismatchError", err)
	}

	// Wrong algorithm AND undecodable payload: a mismatch, not a decode
	// error.
	_, _, err = decodeBinary(damaged(wire.FormatVersion, 1), other)
	if !errors.As(err, &mm) || !strings.Contains(mm.Error(), "algorithm mismatch") {
		t.Fatalf("wrong algo + corrupt payload: got %v, want an algorithm MismatchError", err)
	}

	// Matching version and algorithm with a corrupt payload: exactly a
	// DecodeError.
	_, _, err = decodeBinary(damaged(wire.FormatVersion, 1), algo)
	if !errors.As(err, &de) {
		t.Fatalf("corrupt payload: got %T (%v), want *wire.DecodeError", err, err)
	}
	if errors.As(err, &mm) {
		t.Fatal("corrupt payload also reported as a mismatch")
	}
}
