package registry_test

import (
	"bytes"
	"strings"
	"testing"

	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/wire"
)

func TestLookupNamesAndAliases(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"core", "core"},
		{"arbiter", "core"},
		{"Token-Arbiter", "core"},
		{"raymond", "raymond"},
		{"Suzuki-Kasami", "suzukikasami"},
		{"sk", "suzukikasami"},
		{"ricart_agrawala", "ricartagrawala"},
		{"ra", "ricartagrawala"},
		{"naimi-trehel", "naimitrehel"},
		{"Token Ring", "ring"},
		{"tree-quorum", "treequorum"},
		{"coordinator", "central"},
	}
	for _, c := range cases {
		e, ok := registry.Lookup(c.in)
		if !ok {
			t.Errorf("Lookup(%q) not found", c.in)
			continue
		}
		if e.Name != c.want {
			t.Errorf("Lookup(%q) = %q, want %q", c.in, e.Name, c.want)
		}
	}
	if _, ok := registry.Lookup("two-phase-commit"); ok {
		t.Error("Lookup accepted an unknown algorithm")
	}
}

func TestCatalogIsComplete(t *testing.T) {
	names := registry.Names()
	if len(names) != 11 {
		t.Fatalf("registry has %d algorithms, want 11 (core + 9 baselines + central): %v",
			len(names), names)
	}
	for _, want := range []string{
		"core", "central", "lamport", "maekawa", "naimitrehel", "raymond",
		"ricartagrawala", "ring", "singhal", "suzukikasami", "treequorum",
	} {
		if _, ok := registry.Lookup(want); !ok {
			t.Errorf("catalog is missing %q", want)
		}
	}
	for _, e := range registry.Entries() {
		if len(e.Messages) == 0 {
			t.Errorf("%s registers no wire messages", e.Name)
		}
		if e.New == nil {
			t.Errorf("%s has no algorithm constructor", e.Name)
		}
		if e.Description == "" {
			t.Errorf("%s has no description", e.Name)
		}
	}
}

// TestRegisterWireAllAlgorithms registers every cataloged algorithm's
// wire types in one process and checks the canonical name comes back
// and the wire layer knows it.
func TestRegisterWireAllAlgorithms(t *testing.T) {
	for _, e := range registry.Entries() {
		name, err := registry.RegisterWire(e.Name)
		if err != nil {
			t.Fatalf("RegisterWire(%s): %v", e.Name, err)
		}
		if name != e.Name {
			t.Errorf("RegisterWire(%s) returned %q", e.Name, name)
		}
		if !wire.Registered(e.Name) {
			t.Errorf("%s not registered with the wire layer", e.Name)
		}
	}
	if _, err := registry.RegisterWire("nonesuch"); err == nil {
		t.Error("RegisterWire accepted an unknown algorithm")
	} else if !strings.Contains(err.Error(), "unknown algorithm") {
		t.Errorf("unhelpful RegisterWire error: %v", err)
	}
}

// TestEveryAlgorithmIsBinaryCapable pins that each catalog entry's
// message set carries complete binary wire layouts. A new message type
// added without AppendWire / UnmarshalWire methods panics RegisterWire —
// there is no other codec to fall back to — and this test is where that
// panic lands first; it then frames one of each message and reads it
// back by kind.
func TestEveryAlgorithmIsBinaryCapable(t *testing.T) {
	for _, e := range registry.Entries() {
		if _, err := registry.RegisterWire(e.Name); err != nil {
			t.Fatalf("RegisterWire(%s): %v", e.Name, err)
		}
		if len(e.Messages) == 0 {
			t.Errorf("%s registers no messages", e.Name)
		}
		var pipe bytes.Buffer
		enc := wire.BinaryCodec().NewEncoder(&pipe, e.Name)
		dec := wire.BinaryCodec().NewDecoder(&pipe, e.Name)
		for _, m := range e.Messages {
			if err := enc.Encode(0, m); err != nil {
				t.Fatalf("%s: encode %T: %v", e.Name, m, err)
			}
			_, got, err := dec.Decode()
			if err != nil {
				t.Fatalf("%s: decode %T: %v", e.Name, m, err)
			}
			if got.Kind() != m.Kind() {
				t.Errorf("%s round trip: kind %q, want %q", e.Name, got.Kind(), m.Kind())
			}
		}
	}
}

// TestLiveFactoriesBuildEveryNode builds a 5-node cluster's state
// machines through each algorithm's live factory and checks identities —
// the invariant the live runtime depends on (the factory must hand node
// id its own state machine, not node 0's).
func TestLiveFactoriesBuildEveryNode(t *testing.T) {
	const n = 5
	for _, e := range registry.Entries() {
		f, err := registry.NewLiveFactory(e.Name, nil)
		if err != nil {
			t.Fatalf("NewLiveFactory(%s): %v", e.Name, err)
		}
		for id := 0; id < n; id++ {
			nd, err := f(id, n, nil)
			if err != nil {
				t.Fatalf("%s factory(%d, %d): %v", e.Name, id, n, err)
			}
			if nd == nil {
				t.Fatalf("%s factory(%d, %d) returned nil", e.Name, id, n)
			}
			if nd.ID() != id {
				t.Errorf("%s factory built node %d, want %d", e.Name, nd.ID(), id)
			}
		}
		if e.Name != registry.Core {
			if _, err := f(n, n, nil); err == nil {
				t.Errorf("%s factory accepted out-of-range id %d", e.Name, n)
			}
		}
	}
	if _, err := registry.NewLiveFactory("nonesuch", nil); err == nil {
		t.Error("NewLiveFactory accepted an unknown algorithm")
	}
}

// TestCoreFactoryHonorsParams: the params map reaches core.Options, so
// `-algo core` behaves the same through the generic path as through
// CoreLiveFactory.
func TestCoreFactoryHonorsParams(t *testing.T) {
	f, err := registry.NewLiveFactory("core", map[string]float64{"treq": 0.25, "tfwd": 0.125})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := f(0, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nd.ID() != 0 {
		t.Errorf("core factory built node %d, want 0", nd.ID())
	}
}
