package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/wire"
)

// FuzzEnvelopeRoundTrip builds a Privilege from arbitrary bytes and
// checks the codec round-trips it exactly — the property the TCP
// transport depends on for every token transfer.
func FuzzEnvelopeRoundTrip(f *testing.F) {
	algo, err := registry.RegisterWire(registry.Core)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(3, []byte{0x10, 0x21}, uint64(5), uint64(2), true)
	f.Add(0, []byte{}, uint64(0), uint64(0), false)
	f.Fuzz(func(t *testing.T, from int, qbytes []byte, epoch, fence uint64, toMon bool) {
		if len(qbytes) > 32 {
			qbytes = qbytes[:32]
		}
		q := make(core.QList, 0, len(qbytes))
		for _, b := range qbytes {
			q = append(q, core.QEntry{Node: int(b >> 4), Seq: uint64(b & 0x0f)})
		}
		want := core.Privilege{
			Q:         q,
			Granted:   []uint64{epoch, fence, epoch ^ fence},
			Epoch:     epoch,
			Fence:     fence,
			ToMonitor: toMon,
		}
		got, ok := roundTrip(t, algo, from, want).(core.Privilege)
		if !ok {
			t.Fatal("payload is not a core.Privilege")
		}
		// An empty Q-list and a nil one are the same list; normalize.
		if len(got.Q) == 0 && len(want.Q) == 0 {
			got.Q, want.Q = nil, nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v", want, got)
		}
	})
}

// FuzzKeyedEnvelopeRoundTrip drives arbitrary lock-key names — keys are
// uninterpreted byte strings, so empty, very long, and non-UTF-8 names
// must all survive — through the codec and checks the multiplexing
// invariants: the key and inner message round-trip exactly, and the
// empty key is no key.
func FuzzKeyedEnvelopeRoundTrip(f *testing.F) {
	algo, err := registry.RegisterWire(registry.Core)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(""), 0, uint64(0))                                 // empty key: the key-less channel
	f.Add([]byte("orders"), 3, uint64(9))                           // everyday name
	f.Add(bytes.Repeat([]byte("k"), 4096), 1, uint64(2))            // long
	f.Add([]byte{0x80, 0xfe, 0xff, 0x00, 0xc3, 0x28}, 2, uint64(7)) // non-UTF-8, embedded NUL
	f.Fuzz(func(t *testing.T, keyBytes []byte, from int, seq uint64) {
		key := string(keyBytes)
		inner := core.Request{Entry: core.QEntry{Node: from, Seq: seq}}
		msg := roundTrip(t, algo, from, wire.Keyed{Key: key, Msg: inner})
		if key == "" {
			if got, ok := msg.(core.Request); !ok || !reflect.DeepEqual(got, inner) {
				t.Fatalf("empty key: got %#v, want bare %#v", msg, inner)
			}
			return
		}
		k, ok := msg.(wire.Keyed)
		if !ok {
			t.Fatalf("got %T, want wire.Keyed", msg)
		}
		if k.Key != key {
			t.Fatalf("key %q → %q", key, k.Key)
		}
		if got, ok := k.Msg.(core.Request); !ok || !reflect.DeepEqual(got, inner) {
			t.Fatalf("inner %#v, want %#v", k.Msg, inner)
		}
	})
}

// FuzzTracedEnvelopeRoundTrip drives arbitrary trace IDs — including 0
// (the untraced convention) and all-bits-set — through the codec, alone
// and nested inside a Keyed wrapper, and checks the propagation
// invariants: trace and inner message round-trip exactly and the
// wrapper nesting comes back Keyed-outside-Traced.
func FuzzTracedEnvelopeRoundTrip(f *testing.F) {
	algo, err := registry.RegisterWire(registry.Core)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint64(0), []byte(""), 0, uint64(0))                // untraced, key-less
	f.Add(uint64(1<<40|1), []byte(""), 0, uint64(1))          // node 0 seq 1, single-lock channel
	f.Add(uint64(17<<40|999), []byte("orders"), 3, uint64(9)) // traced and keyed
	f.Add(^uint64(0), []byte{0x80, 0xfe, 0xff}, 2, uint64(7)) // hostile key, max trace
	f.Fuzz(func(t *testing.T, trace uint64, keyBytes []byte, from int, seq uint64) {
		key := string(keyBytes)
		inner := core.Request{Entry: core.QEntry{Node: from, Seq: seq}}
		got := roundTrip(t, algo, from, wire.Keyed{Key: key, Msg: wire.Traced{Trace: trace, Msg: inner}})
		if key != "" {
			k, ok := got.(wire.Keyed)
			if !ok {
				t.Fatalf("keyed frame decoded as %T", got)
			}
			if k.Key != key {
				t.Fatalf("key %q → %q", key, k.Key)
			}
			got = k.Msg
		}
		if trace != 0 {
			tr, ok := got.(wire.Traced)
			if !ok {
				t.Fatalf("traced frame decoded as %T", got)
			}
			if tr.Trace != trace {
				t.Fatalf("trace %#x → %#x", trace, tr.Trace)
			}
			got = tr.Msg
		}
		if req, ok := got.(core.Request); !ok || !reflect.DeepEqual(req, inner) {
			t.Fatalf("inner %#v, want %#v", got, inner)
		}
	})
}

// FuzzEnvelopeOpen assembles a frame body field by field — version,
// algorithm tag, kind id, sender, key and payload bytes, each arbitrary
// — and aims it at the decoder: the structured complement of
// FuzzCodecEquivalence's raw bytes, a header that parses around a
// payload that may not. It checks the receive-path contract the TCP
// read loop depends on: the decoder never panics, every failure is
// exactly one of *wire.MismatchError and *wire.DecodeError, classified
// in version → algorithm → payload order, and a success is never a nil
// message.
func FuzzEnvelopeOpen(f *testing.F) {
	algo, err := registry.RegisterWire(registry.Core)
	if err != nil {
		f.Fatal(err)
	}
	payload, err := core.Request{Entry: core.QEntry{Node: 1, Seq: 2}}.AppendWire(nil)
	if err != nil {
		f.Fatal(err)
	}
	// Seeds: a valid keyed frame, its key-less shape, a truncated
	// payload, garbage bytes, a wrong version, and a foreign algorithm
	// with an empty payload.
	f.Add(byte(wire.FormatVersion), algo, uint64(0), 1, "orders", payload)
	f.Add(byte(wire.FormatVersion), algo, uint64(0), 1, "", payload)
	f.Add(byte(wire.FormatVersion), algo, uint64(0), 1, "orders", payload[:len(payload)/2])
	f.Add(byte(wire.FormatVersion), algo, uint64(2), 0, "k", []byte{0xde, 0xad, 0xbe, 0xef})
	f.Add(byte(wire.FormatVersion+7), algo, uint64(0), 2, "\x80\xff", payload)
	f.Add(byte(wire.FormatVersion), "no-such-algo", uint64(0), 3, "k", []byte{})
	f.Fuzz(func(t *testing.T, version byte, frameAlgo string, kind uint64, from int, key string, payload []byte) {
		if len(frameAlgo) > 0xff {
			frameAlgo = frameAlgo[:0xff]
		}
		var flags byte
		if key != "" {
			flags = 1
		}
		body := append([]byte{version, flags, byte(len(frameAlgo))}, frameAlgo...)
		body = binary.AppendUvarint(body, kind)
		body = binary.AppendVarint(body, int64(from))
		if key != "" {
			body = append(binary.AppendUvarint(body, uint64(len(key))), key...)
		}
		body = append(body, payload...)

		gotFrom, msg, err := wire.BinaryCodec().NewDecoder(nil, algo).DecodeBody(body) // must not panic, whatever the input
		if err != nil {
			var mm *wire.MismatchError
			var de *wire.DecodeError
			isMM, isDE := errors.As(err, &mm), errors.As(err, &de)
			if isMM == isDE {
				t.Fatalf("error %T (%v) is not exactly one of mismatch and decode error", err, err)
			}
			switch {
			case version != wire.FormatVersion:
				if !isMM || !strings.Contains(err.Error(), "version mismatch") {
					t.Fatalf("wrong version reported as %v", err)
				}
			case frameAlgo != algo:
				if !isMM || !strings.Contains(err.Error(), "algorithm mismatch") {
					t.Fatalf("wrong algorithm reported as %v", err)
				}
			case !isDE:
				t.Fatalf("matching version and algorithm reported as %v", err)
			}
			return
		}
		if msg == nil {
			t.Fatal("DecodeBody returned (nil, nil)")
		}
		if gotFrom != from {
			t.Fatalf("from %d → %d", from, gotFrom)
		}
		if k, ok := msg.(wire.Keyed); ok != (key != "") || ok && (k.Key != key || k.Msg == nil) {
			t.Fatalf("key %q decoded as %#v", key, msg)
		}
	})
}
