package registry_test

import (
	"bytes"
	"strings"
	"testing"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/wire"
)

// TestRegisterWireOnlyCore: core registers under its own name, and any
// other name — a baseline the simulator still runs included — is refused
// with an error that names it.
func TestRegisterWireOnlyCore(t *testing.T) {
	name, err := registry.RegisterWire(registry.Core)
	if err != nil {
		t.Fatalf("RegisterWire(core): %v", err)
	}
	if name != registry.Core {
		t.Errorf("RegisterWire(core) returned %q", name)
	}
	for _, other := range []string{"raymond", "nonesuch", "Core"} {
		_, err := registry.RegisterWire(other)
		if err == nil {
			t.Errorf("RegisterWire(%q) accepted an algorithm the live runtime does not run", other)
		} else if !strings.Contains(err.Error(), `"`+other+`"`) {
			t.Errorf("RegisterWire(%q) error does not name it: %v", other, err)
		}
	}
}

// TestCoreIsBinaryCapable pins that every core message carries a
// complete binary wire layout. A new message type added without
// AppendWire / UnmarshalWire methods panics RegisterWire — there is no
// other codec to fall back to — and this test is where that panic lands
// first; it then frames one of each message and reads it back by kind.
func TestCoreIsBinaryCapable(t *testing.T) {
	algo, err := registry.RegisterWire(registry.Core)
	if err != nil {
		t.Fatal(err)
	}
	var pipe bytes.Buffer
	enc := wire.BinaryCodec().NewEncoder(&pipe, algo)
	dec := wire.BinaryCodec().NewDecoder(&pipe, algo)
	for _, m := range core.Messages() {
		if err := enc.Encode(0, m); err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		_, got, err := dec.Decode()
		if err != nil {
			t.Fatalf("decode %T: %v", m, err)
		}
		if got.Kind() != m.Kind() {
			t.Errorf("round trip: kind %q, want %q", got.Kind(), m.Kind())
		}
	}
}

// TestLiveFactoriesBuildEveryNode builds a 5-node cluster's state
// machines through the core live factory and checks identities — the
// invariant the live runtime depends on (the factory must hand node id
// its own state machine, not node 0's).
func TestLiveFactoriesBuildEveryNode(t *testing.T) {
	const n = 5
	f := registry.CoreLiveFactory(core.Options{Treq: 0.25, Tfwd: 0.125})
	for id := 0; id < n; id++ {
		nd, err := f(id, n, nil)
		if err != nil {
			t.Fatalf("factory(%d, %d): %v", id, n, err)
		}
		if nd.ID() != id {
			t.Errorf("factory built node %d, want %d", nd.ID(), id)
		}
	}
	if _, err := f(n, n, nil); err == nil {
		t.Errorf("factory accepted out-of-range id %d", n)
	}
}
