package wire_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/wire"
)

func TestKeyedRoundTrip(t *testing.T) {
	algo := register(t, registry.Core)
	inner := core.Request{Entry: core.QEntry{Node: 2, Seq: 7}, Hops: 1}
	keys := []string{
		"orders",
		"a/b/c:shard-9",
		strings.Repeat("k", 4096),     // long
		"\x80\xfe\xff",                // non-UTF-8
		"sp ace\nnew\tline\"quote\\_", // exposition-hostile bytes
	}
	for _, key := range keys {
		out := roundTrip(t, algo, 2, wire.Keyed{Key: key, Msg: inner})
		k, ok := out.(wire.Keyed)
		if !ok {
			t.Fatalf("key %q: Decode returned %T, want wire.Keyed", key, out)
		}
		if k.Key != key {
			t.Errorf("key round trip: %q → %q", key, k.Key)
		}
		if !reflect.DeepEqual(k.Msg, inner) {
			t.Errorf("key %q: inner message %#v, want %#v", key, k.Msg, inner)
		}
	}
}

// TestKeyedEmptyKeyIsLegacy pins the "" convention: encoding a Keyed
// with the empty key produces a key-less frame — byte for byte the bare
// message's — and Decode returns the bare message, not a Keyed wrapper.
func TestKeyedEmptyKeyIsLegacy(t *testing.T) {
	algo := register(t, registry.Core)
	inner := core.Probe{}
	out := roundTrip(t, algo, 0, wire.Keyed{Key: "", Msg: inner})
	if _, keyed := out.(wire.Keyed); keyed {
		t.Fatalf("empty key returned a Keyed wrapper: %#v", out)
	}
	if !reflect.DeepEqual(out, inner) {
		t.Errorf("message %#v, want %#v", out, inner)
	}
	if !bytes.Equal(encodeBinary(t, algo, 0, wire.Keyed{Key: "", Msg: inner}), encodeBinary(t, algo, 0, inner)) {
		t.Error("an empty-keyed frame differs from the bare message's frame")
	}
}

// TestKeyedSealErrors: a wrapper around nothing is an encode error; a
// wrapper around a wrapper is tolerated the way Unwrap documents it (the
// innermost key wins) and arrives in the canonical single nesting.
func TestKeyedSealErrors(t *testing.T) {
	algo := register(t, registry.Core)
	enc := wire.BinaryCodec().NewEncoder(&bytes.Buffer{}, algo)
	if err := enc.Encode(0, wire.Keyed{Key: "k"}); err == nil {
		t.Error("Encode accepted a Keyed with a nil inner message")
	}
	nested := wire.Keyed{Key: "outer", Msg: wire.Keyed{Key: "inner", Msg: core.Probe{}}}
	want := wire.Keyed{Key: "inner", Msg: core.Probe{}}
	if out := roundTrip(t, algo, 0, nested); !reflect.DeepEqual(out, want) {
		t.Errorf("nested Keyed arrived as %#v, want %#v", out, want)
	}
}

// TestKeyedDelegation pins that Kind and SizeUnits pass through to the
// inner message, so counting middleware and kind-targeted fault rules
// below a key demultiplexer observe keyed traffic like bare traffic.
func TestKeyedDelegation(t *testing.T) {
	msg := core.Privilege{Q: core.QList{{Node: 1, Seq: 1}, {Node: 2, Seq: 2}}, Granted: []uint64{1, 2}}
	k := wire.Keyed{Key: "x", Msg: msg}
	if k.Kind() != msg.Kind() {
		t.Errorf("Kind %q, want %q", k.Kind(), msg.Kind())
	}
	if k.SizeUnits() != msg.SizeUnits() {
		t.Errorf("SizeUnits %d, want %d", k.SizeUnits(), msg.SizeUnits())
	}
	// An unsized inner message defaults to 1 unit, like the counting layer.
	if u := (wire.Keyed{Key: "x", Msg: core.Probe{}}).SizeUnits(); u != 1 {
		t.Errorf("unsized inner message SizeUnits = %d, want 1", u)
	}
}
