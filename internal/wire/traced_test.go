package wire_test

import (
	"bytes"
	"reflect"
	"testing"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/wire"
)

func TestTracedRoundTrip(t *testing.T) {
	algo := register(t, registry.Core)
	inner := core.Request{Entry: core.QEntry{Node: 2, Seq: 7}, Hops: 1}
	traces := []uint64{
		1,
		(1 << 40) | 1,    // node 0's first request under the reqtrace scheme
		(17 << 40) | 999, // mid-range node and seq
		^uint64(0),       // all bits set
	}
	for _, trace := range traces {
		out := roundTrip(t, algo, 2, wire.Traced{Trace: trace, Msg: inner})
		tr, ok := out.(wire.Traced)
		if !ok {
			t.Fatalf("trace %#x: Decode returned %T, want wire.Traced", trace, out)
		}
		if tr.Trace != trace {
			t.Errorf("trace round trip: %#x → %#x", trace, tr.Trace)
		}
		if !reflect.DeepEqual(tr.Msg, inner) {
			t.Errorf("trace %#x: inner message %#v, want %#v", trace, tr.Msg, inner)
		}
	}
}

// TestTracedZeroIsUntraced pins the 0 convention: encoding a Traced with
// the zero ID produces an untraced frame — byte for byte the bare
// message's — and Decode returns the bare message.
func TestTracedZeroIsUntraced(t *testing.T) {
	algo := register(t, registry.Core)
	inner := core.Probe{}
	out := roundTrip(t, algo, 0, wire.Traced{Trace: 0, Msg: inner})
	if _, traced := out.(wire.Traced); traced {
		t.Fatalf("zero trace returned a Traced wrapper: %#v", out)
	}
	if !reflect.DeepEqual(out, inner) {
		t.Errorf("message %#v, want %#v", out, inner)
	}
	if !bytes.Equal(encodeBinary(t, algo, 0, wire.Traced{Trace: 0, Msg: inner}), encodeBinary(t, algo, 0, inner)) {
		t.Error("a zero-traced frame differs from the bare message's frame")
	}
}

// TestKeyedTracedNesting pins the combined wrapper layering: Keyed
// outermost, Traced inside, both unwrapped by the encoder and rebuilt in
// the same order by the decoder.
func TestKeyedTracedNesting(t *testing.T) {
	algo := register(t, registry.Core)
	inner := core.Request{Entry: core.QEntry{Node: 4, Seq: 11}}
	out := roundTrip(t, algo, 4, wire.Keyed{Key: "orders", Msg: wire.Traced{Trace: 77, Msg: inner}})
	k, ok := out.(wire.Keyed)
	if !ok {
		t.Fatalf("Decode returned %T, want wire.Keyed outermost", out)
	}
	if k.Key != "orders" {
		t.Errorf("key %q, want orders", k.Key)
	}
	tr, ok := k.Msg.(wire.Traced)
	if !ok {
		t.Fatalf("Keyed wraps %T, want wire.Traced", k.Msg)
	}
	if tr.Trace != 77 || !reflect.DeepEqual(tr.Msg, inner) {
		t.Errorf("inner Traced %#v, want trace 77 over %#v", tr, inner)
	}
}

// TestTracedSealErrors: a wrapper around nothing is an encode error; a
// doubled or inverted wrapper is tolerated the way Unwrap documents it
// and arrives in the canonical Keyed-outside-Traced nesting.
func TestTracedSealErrors(t *testing.T) {
	algo := register(t, registry.Core)
	enc := wire.BinaryCodec().NewEncoder(&bytes.Buffer{}, algo)
	if err := enc.Encode(0, wire.Traced{Trace: 1}); err == nil {
		t.Error("Encode accepted a Traced with a nil inner message")
	}
	nested := wire.Traced{Trace: 1, Msg: wire.Traced{Trace: 2, Msg: core.Probe{}}}
	if out := roundTrip(t, algo, 0, nested); !reflect.DeepEqual(out, wire.Traced{Trace: 2, Msg: core.Probe{}}) {
		t.Errorf("nested Traced arrived as %#v, want the innermost trace over the bare message", out)
	}
	inverted := wire.Traced{Trace: 1, Msg: wire.Keyed{Key: "k", Msg: core.Probe{}}}
	want := wire.Keyed{Key: "k", Msg: wire.Traced{Trace: 1, Msg: core.Probe{}}}
	if out := roundTrip(t, algo, 0, inverted); !reflect.DeepEqual(out, want) {
		t.Errorf("Keyed inside Traced arrived as %#v, want %#v", out, want)
	}
}

// TestTracedDelegation pins that Kind and SizeUnits pass through to the
// inner message, so counting middleware and kind-targeted fault rules
// observe traced traffic like bare traffic.
func TestTracedDelegation(t *testing.T) {
	msg := core.Privilege{Q: core.QList{{Node: 1, Seq: 1}}, Granted: []uint64{1}}
	tr := wire.Traced{Trace: 9, Msg: msg}
	if tr.Kind() != msg.Kind() {
		t.Errorf("Kind %q, want %q", tr.Kind(), msg.Kind())
	}
	if tr.SizeUnits() != msg.SizeUnits() {
		t.Errorf("SizeUnits %d, want %d", tr.SizeUnits(), msg.SizeUnits())
	}
	if u := (wire.Traced{Trace: 9, Msg: core.Probe{}}).SizeUnits(); u != 1 {
		t.Errorf("unsized inner message SizeUnits = %d, want 1", u)
	}
}
