package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/session"
	"tokenarbiter/internal/wire"
)

// family is one wire message family: an algorithm name and a prototype
// of every message registered under it.
type family struct {
	algo string
	msgs []dme.Message
}

// families registers and returns every message family production puts
// on a wire: core's and the session protocol's.
func families(t testing.TB) []family {
	t.Helper()
	algo, err := registry.RegisterWire(registry.Core)
	if err != nil {
		t.Fatal(err)
	}
	session.Register()
	return []family{{algo, core.Messages()}, {session.Algo, session.Messages()}}
}

// filled returns a copy of the prototype message with every exported
// field set to a deterministic non-zero value derived from seed —
// negative ints to exercise zigzag, multi-element slices, nested
// structs. It is how the differential tests cover every field of every
// registered message without a hand-written sample per type.
func filled(proto dme.Message, seed uint64) dme.Message {
	v := reflect.New(reflect.TypeOf(proto)).Elem()
	fillValue(v, &seed)
	return v.Interface().(dme.Message)
}

func fillValue(v reflect.Value, seed *uint64) {
	next := func() uint64 {
		*seed = *seed*2862933555777941757 + 3037000493
		return *seed
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillValue(v.Field(i), seed)
			}
		}
	case reflect.Slice:
		n := 2 + int(next()%3)
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			fillValue(s.Index(i), seed)
		}
		v.Set(s)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(next()%2001) - 1000)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(next() % 100000)
	case reflect.Bool:
		v.SetBool(next()%2 == 0)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", next()%97))
	default:
		panic(fmt.Sprintf("filled: unsupported field kind %s in %s", v.Kind(), v.Type()))
	}
}

// encodeBinary frames one message with the binary codec and returns the
// raw frame bytes (length prefix included).
func encodeBinary(t *testing.T, algo string, from int, msg dme.Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.BinaryCodec().NewEncoder(&buf, algo).Encode(from, msg); err != nil {
		t.Fatalf("binary encode %T: %v", msg, err)
	}
	return buf.Bytes()
}

// decodeBinary decodes one binary frame.
func decodeBinary(frame []byte, algo string) (int, dme.Message, error) {
	return wire.BinaryCodec().NewDecoder(bytes.NewReader(frame), algo).Decode()
}

// roundTrip frames msg the way a connection does, decodes the frame back
// and returns the message that arrives, having checked the sender id
// and kind survived.
func roundTrip(t *testing.T, algo string, from int, msg dme.Message) dme.Message {
	t.Helper()
	gotFrom, got, err := decodeBinary(encodeBinary(t, algo, from, msg), algo)
	if err != nil {
		t.Fatalf("decode %T: %v", msg, err)
	}
	if gotFrom != from {
		t.Errorf("%T: from = %d, want %d", msg, gotFrom, from)
	}
	if got.Kind() != msg.Kind() {
		t.Errorf("%T: Kind = %q, want %q", msg, got.Kind(), msg.Kind())
	}
	return got
}

// TestBinaryCodecRoundTrip drives a representative core message through
// the binary codec bare and under every wrapper combination, checking
// the sender id, tags, and payload all survive.
func TestBinaryCodecRoundTrip(t *testing.T) {
	algo := register(t, registry.Core)
	inner := core.Privilege{
		Q:       core.QList{{Node: 1, Seq: 41}, {Node: 3, Seq: 7}},
		Granted: []uint64{40, 41, 6},
		Counter: -3,
		Epoch:   2,
		Gen:     97,
		Fence:   188,
	}
	cases := []struct {
		name string
		msg  dme.Message
	}{
		{"bare", inner},
		{"keyed", wire.Wrap(inner, wire.WithKey("orders"))},
		{"traced", wire.Wrap(inner, wire.WithTrace(1<<40|7))},
		{"keyed+traced", wire.Wrap(inner, wire.WithKey("orders"), wire.WithTrace(1<<40|7))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			frame := encodeBinary(t, algo, 5, c.msg)
			from, got, err := decodeBinary(frame, algo)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if from != 5 {
				t.Errorf("from = %d, want 5", from)
			}
			if !reflect.DeepEqual(got, c.msg) {
				t.Errorf("round trip:\n in: %#v\nout: %#v", c.msg, got)
			}
		})
	}
}

// TestBinaryEncoderStreams pins that one encoder writes a stream a
// single decoder reads back in order — the per-connection usage — and
// that the encoder's scratch reuse does not corrupt earlier frames.
func TestBinaryEncoderStreams(t *testing.T) {
	algo := register(t, registry.Core)
	var buf bytes.Buffer
	enc := wire.BinaryCodec().NewEncoder(&buf, algo)
	msgs := []dme.Message{
		core.Request{Entry: core.QEntry{Node: 1, Seq: 1}},
		wire.Wrap(core.Warning{Entry: core.QEntry{Node: 2, Seq: 9}}, wire.WithKey("k")),
		core.Probe{},
	}
	for _, m := range msgs {
		if err := enc.Encode(4, m); err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
	}
	dec := wire.BinaryCodec().NewDecoder(&buf, algo)
	for i, want := range msgs {
		from, got, err := dec.Decode()
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if from != 4 || !reflect.DeepEqual(got, want) {
			t.Errorf("message %d: (%d, %#v), want (4, %#v)", i, from, got, want)
		}
	}
}

// TestCodecEquivalenceAllAlgorithms is the deterministic differential
// check behind FuzzCodecEquivalence: for every message family and every
// one of its message types, a zero-value and a fully populated sample
// must come out of the binary codec exactly as they went in, and equal
// to what the gob oracle makes of the same value.
func TestCodecEquivalenceAllAlgorithms(t *testing.T) {
	for _, fam := range families(t) {
		t.Run(fam.algo, func(t *testing.T) {
			for _, proto := range fam.msgs {
				for variant, inner := range map[string]dme.Message{
					"zero":   proto,
					"filled": filled(proto, 0x9e3779b97f4a7c15),
				} {
					msg := wire.Wrap(inner, wire.WithKey("orders"), wire.WithTrace(7))
					from, got, err := decodeBinary(encodeBinary(t, fam.algo, 3, msg), fam.algo)
					if err != nil {
						t.Fatalf("%s %s binary: %v", proto.Kind(), variant, err)
					}
					if from != 3 {
						t.Errorf("%s %s: from = %d, want 3", proto.Kind(), variant, from)
					}
					if !reflect.DeepEqual(got, msg) {
						t.Errorf("%s %s binary:\n in: %#v\nout: %#v", proto.Kind(), variant, msg, got)
					}
					gotInner, _, _ := wire.Unwrap(got)
					if want := gobRoundTrip(t, inner); !reflect.DeepEqual(gotInner, want) {
						t.Errorf("%s %s: binary and the gob oracle disagree:\nbinary: %#v\n   gob: %#v", proto.Kind(), variant, gotInner, want)
					}
				}
			}
		})
	}
}

// TestBinaryDecoderTruncatedFrames pins the skippability contract: every
// truncation of a frame body (with a consistent length prefix, the way a
// corrupting middlebox or faultnet presents it) is a *wire.DecodeError —
// the stream stays aligned and exactly one message is lost.
func TestBinaryDecoderTruncatedFrames(t *testing.T) {
	algo := register(t, registry.Core)
	msg := wire.Wrap(
		core.Privilege{Q: core.QList{{Node: 1, Seq: 2}}, Granted: []uint64{9}, Fence: 3},
		wire.WithKey("orders"), wire.WithTrace(12345),
	)
	frame := encodeBinary(t, algo, 2, msg)
	body := frame[4:]
	for cut := 1; cut < len(body); cut++ {
		_, got, err := decodeBinary(reframe(body[:cut]), algo)
		if err == nil {
			t.Fatalf("cut %d/%d: truncated frame decoded to %#v", cut, len(body), got)
		}
		var de *wire.DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("cut %d/%d: error %T (%v), want *wire.DecodeError", cut, len(body), err, err)
		}
	}
}

// TestBinaryDecoderCorruptFrames aims crafted hostile frames at the
// decoder and checks the error triage contract frame by frame.
func TestBinaryDecoderCorruptFrames(t *testing.T) {
	algo := register(t, registry.Core)
	session.Register()
	valid := encodeBinary(t, algo, 2, core.Request{Entry: core.QEntry{Node: 2, Seq: 5}})

	mutate := func(mut func(body []byte) []byte) []byte {
		body := append([]byte(nil), valid[4:]...)
		return reframe(mut(body))
	}

	t.Run("wrong version is a mismatch", func(t *testing.T) {
		frame := mutate(func(b []byte) []byte { b[0] = wire.FormatVersion + 1; return b })
		_, _, err := decodeBinary(frame, algo)
		var mm *wire.MismatchError
		if !errors.As(err, &mm) {
			t.Fatalf("error %T (%v), want *wire.MismatchError", err, err)
		}
		if mm.RemoteVersion != wire.FormatVersion+1 || mm.From != 2 {
			t.Errorf("mismatch %+v", mm)
		}
	})
	t.Run("wrong algorithm is a mismatch", func(t *testing.T) {
		_, _, err := decodeBinary(valid, session.Algo)
		var mm *wire.MismatchError
		if !errors.As(err, &mm) {
			t.Fatalf("error %T (%v), want *wire.MismatchError", err, err)
		}
		if mm.LocalAlgo != session.Algo || mm.RemoteAlgo != algo {
			t.Errorf("mismatch %+v", mm)
		}
	})
	t.Run("unknown flags", func(t *testing.T) {
		frame := mutate(func(b []byte) []byte { b[1] |= 0x80; return b })
		_, _, err := decodeBinary(frame, algo)
		var de *wire.DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("error %T (%v), want *wire.DecodeError", err, err)
		}
	})
	t.Run("unknown kind id", func(t *testing.T) {
		body := []byte{wire.FormatVersion, 0, byte(len(algo))}
		body = append(body, algo...)
		body = binary.AppendUvarint(body, 200) // far past the registered kinds
		body = binary.AppendVarint(body, 2)
		_, _, err := decodeBinary(reframe(body), algo)
		var de *wire.DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("error %T (%v), want *wire.DecodeError", err, err)
		}
	})
	t.Run("trailing payload bytes", func(t *testing.T) {
		frame := mutate(func(b []byte) []byte { return append(b, 0xff) })
		_, _, err := decodeBinary(frame, algo)
		var de *wire.DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("error %T (%v), want *wire.DecodeError", err, err)
		}
	})
	t.Run("zero frame length is fatal", func(t *testing.T) {
		_, _, err := decodeBinary([]byte{0, 0, 0, 0}, algo)
		if err == nil {
			t.Fatal("zero-length frame accepted")
		}
		var de *wire.DecodeError
		var mm *wire.MismatchError
		if errors.As(err, &de) || errors.As(err, &mm) {
			t.Fatalf("stream-alignment failure reported as skippable: %T (%v)", err, err)
		}
	})
	t.Run("oversized frame length is fatal", func(t *testing.T) {
		frame := []byte{0, 0, 0, 0xff} // 0xff000000 bytes: past maxFrame
		_, _, err := decodeBinary(frame, algo)
		if err == nil {
			t.Fatal("oversized frame accepted")
		}
		var de *wire.DecodeError
		if errors.As(err, &de) {
			t.Fatalf("oversized length reported as skippable: %v", err)
		}
	})
	t.Run("bit flips never panic and stay typed", func(t *testing.T) {
		for i := range valid[4:] {
			frame := mutate(func(b []byte) []byte { b[i] ^= 0xff; return b })
			_, msg, err := decodeBinary(frame, algo)
			if err == nil {
				if msg == nil {
					t.Fatalf("flip %d: (nil, nil)", i)
				}
				continue // the flip landed on a value byte and made another valid message
			}
			var de *wire.DecodeError
			var mm *wire.MismatchError
			if !errors.As(err, &de) && !errors.As(err, &mm) {
				t.Fatalf("flip %d: untyped error %T (%v)", i, err, err)
			}
		}
	})
}
