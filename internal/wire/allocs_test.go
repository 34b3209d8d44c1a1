package wire_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/race"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/session"
	"tokenarbiter/internal/wire"
)

// TestDecodeBodyAllocs pins the decoder's budget: a frame whose payload
// holds no slice or string costs one allocation, the boxing of the
// decoded value into a dme.Message.
func TestDecodeBodyAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	coreAlgo := register(t, registry.Core)
	session.Register()
	cases := []struct {
		name string
		algo string
		msg  dme.Message
	}{
		{"core PRIVILEGE", coreAlgo, core.Privilege{Counter: 7, Epoch: 2, Gen: 3, Fence: 41}},
		{"session AcquireResp", session.Algo, session.AcquireResp{Seq: 9, Code: session.CodeOK, Fence: 41}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			body := encodeBinary(t, c.algo, 1, c.msg)[wire.PrefixLen:]
			dec := wire.BinaryCodec().NewDecoder(nil, c.algo)
			allocs := testing.AllocsPerRun(1000, func() {
				if _, _, err := dec.DecodeBody(body); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 1 {
				t.Errorf("DecodeBody of an unkeyed, untraced %s: %.1f allocations, want ≤ 1", c.name, allocs)
			}
		})
	}
}

// TestEncodeValueAllocs pins the generic encoder's budget: framing a
// concrete message value allocates nothing once the encoder's scratch
// has grown, since no dme.Message box is made.
func TestEncodeValueAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	session.Register()
	enc := wire.BinaryCodec().NewEncoder(io.Discard, session.Algo)
	msg := session.AcquireReq{Seq: 9, Session: 4, Key: "alloc-budget", WaitMillis: 50}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := wire.EncodeValue(enc, 0, msg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("EncodeValue of a session AcquireReq: %.1f allocations, want 0", allocs)
	}
}

// TestDecodeBorrowedAllocs pins the borrowing decoder's budget: after
// the first frame of a kind, an untagged frame allocates nothing when
// its payload holds no slice or string (an AcquireResp) or only a key
// the decoder has interned (an AcquireReq), since the message stays in
// the decoder's scratch.
func TestDecodeBorrowedAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	session.Register()
	for _, msg := range []dme.Message{
		session.AcquireResp{Seq: 9, Code: session.CodeOK, Fence: 41},
		session.AcquireReq{Seq: 9, Session: 4, Key: "alloc-budget"},
	} {
		frame := encodeBinary(t, session.Algo, 1, msg)
		var r bytes.Reader
		dec := wire.BinaryCodec().NewDecoder(&r, session.Algo)
		decode := func() {
			r.Reset(frame)
			if _, _, err := dec.DecodeBorrowed(); err != nil {
				t.Fatal(err)
			}
		}
		decode() // the kind's scratch, the frame buffer, the interned key
		if allocs := testing.AllocsPerRun(1000, decode); allocs > 0 {
			t.Errorf("DecodeBorrowed of a session %s: %.1f allocations, want 0", msg.Kind(), allocs)
		}
	}
}

// TestWrapAllocs pins the cost of a keyed engine's per-send tagging:
// keying an already-boxed message allocates only the Keyed box, and
// keying and tracing it in one call only the Traced and Keyed boxes —
// never the options.
func TestWrapAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	var msg dme.Message = core.Privilege{Q: core.QList{{Node: 1, Seq: 2}}, Counter: 7, Fence: 41}
	key := "orders"
	var trace uint64 = 99
	for _, c := range []struct {
		name string
		wrap func() dme.Message
		max  float64
	}{
		{"Wrap(msg, WithKey)", func() dme.Message { return wire.Wrap(msg, wire.WithKey(key)) }, 1},
		{"Wrap(msg, WithKey, WithTrace)", func() dme.Message { return wire.Wrap(msg, wire.WithKey(key), wire.WithTrace(trace)) }, 2},
	} {
		var out dme.Message
		allocs := testing.AllocsPerRun(1000, func() { out = c.wrap() })
		if _, got := wire.SplitKey(out); got != key {
			t.Fatalf("%s keyed the message %q, want %q", c.name, got, key)
		}
		if allocs > c.max {
			t.Errorf("%s: %.1f allocations, want ≤ %.0f (the wrapper boxes)", c.name, allocs, c.max)
		}
	}
}

// TestDecoderKeyInternCap: the key-intern table stops growing at its
// cap however many distinct keys a peer sends, and every key past the
// cap still decodes intact.
func TestDecoderKeyInternCap(t *testing.T) {
	algo := register(t, registry.Core)
	dec := wire.BinaryCodec().NewDecoder(nil, algo)
	for i := 0; i < 10_000; i++ {
		key := fmt.Sprintf("client-chosen/%d", i)
		body := encodeBinary(t, algo, 1, wire.Wrap(core.Probe{}, wire.WithKey(key)))[wire.PrefixLen:]
		_, msg, err := dec.DecodeBody(body)
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		if _, got := wire.SplitKey(msg); got != key {
			t.Fatalf("key %d decoded as %q, want %q", i, got, key)
		}
	}
	if got := dec.Interned(); got != wire.MaxInterned {
		t.Errorf("intern table holds %d keys after 10k distinct ones, want the cap %d", got, wire.MaxInterned)
	}
}
