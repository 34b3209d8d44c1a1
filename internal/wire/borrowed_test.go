package wire_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/session"
	"tokenarbiter/internal/wire"
)

// encodeValue frames msg with wire.EncodeValue instantiated at its
// dynamic type: the generic path has to be named per type.
func encodeValue(e *wire.Encoder, from int, msg dme.Message) error {
	switch m := msg.(type) {
	case core.Request:
		return wire.EncodeValue(e, from, m)
	case core.MonitorRequest:
		return wire.EncodeValue(e, from, m)
	case core.Privilege:
		return wire.EncodeValue(e, from, m)
	case core.NewArbiter:
		return wire.EncodeValue(e, from, m)
	case core.Warning:
		return wire.EncodeValue(e, from, m)
	case core.Enquiry:
		return wire.EncodeValue(e, from, m)
	case core.EnquiryAck:
		return wire.EncodeValue(e, from, m)
	case core.Resume:
		return wire.EncodeValue(e, from, m)
	case core.Invalidate:
		return wire.EncodeValue(e, from, m)
	case core.Probe:
		return wire.EncodeValue(e, from, m)
	case core.ProbeAck:
		return wire.EncodeValue(e, from, m)
	case core.Disown:
		return wire.EncodeValue(e, from, m)
	case session.OpenReq:
		return wire.EncodeValue(e, from, m)
	case session.OpenResp:
		return wire.EncodeValue(e, from, m)
	case session.KeepAliveReq:
		return wire.EncodeValue(e, from, m)
	case session.KeepAliveResp:
		return wire.EncodeValue(e, from, m)
	case session.AcquireReq:
		return wire.EncodeValue(e, from, m)
	case session.AcquireResp:
		return wire.EncodeValue(e, from, m)
	case session.ReleaseReq:
		return wire.EncodeValue(e, from, m)
	case session.ReleaseResp:
		return wire.EncodeValue(e, from, m)
	case session.WatchReq:
		return wire.EncodeValue(e, from, m)
	case session.WatchResp:
		return wire.EncodeValue(e, from, m)
	case session.UnwatchReq:
		return wire.EncodeValue(e, from, m)
	case session.ByeReq:
		return wire.EncodeValue(e, from, m)
	case session.ByeResp:
		return wire.EncodeValue(e, from, m)
	case session.WatchEvent:
		return wire.EncodeValue(e, from, m)
	case session.SessionExpired:
		return wire.EncodeValue(e, from, m)
	}
	return fmt.Errorf("encodeValue has no case for %T: add one", msg)
}

// TestEncodeValueMatchesEncode: for every message of the codec's seed
// corpus, EncodeValue writes the bytes Encode writes for the same bare
// value. The corpus holds each type zero-valued and fully populated.
func TestEncodeValueMatchesEncode(t *testing.T) {
	_, seeds := codecSeeds(t)
	for _, sd := range seeds {
		inner, _, _ := wire.Unwrap(sd.msg)
		var want, got bytes.Buffer
		if err := wire.BinaryCodec().NewEncoder(&want, sd.algo).Encode(3, inner); err != nil {
			t.Fatalf("%s %T: Encode: %v", sd.algo, inner, err)
		}
		if err := encodeValue(wire.BinaryCodec().NewEncoder(&got, sd.algo), 3, inner); err != nil {
			t.Fatalf("%s %T: EncodeValue: %v", sd.algo, inner, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s %#v:\nEncodeValue % x\n     Encode % x", sd.algo, inner, got.Bytes(), want.Bytes())
		}
	}
}

// TestEncodeValueRefusesStrangers: EncodeValue checks registration like
// Encode does, per family.
func TestEncodeValueRefusesStrangers(t *testing.T) {
	algo := register(t, registry.Core)
	session.Register()
	if err := wire.EncodeValue(wire.BinaryCodec().NewEncoder(&bytes.Buffer{}, algo), 0, session.AcquireResp{}); err == nil {
		t.Error("EncodeValue framed a session message for the core family")
	}
	if err := wire.EncodeValue(wire.BinaryCodec().NewEncoder(&bytes.Buffer{}, "no-such-family"), 0, core.Probe{}); err == nil {
		t.Error("EncodeValue framed a message for an unregistered family")
	}
}

// errClass names the severity a decode error belongs to.
func errClass(err error) string {
	var de *wire.DecodeError
	var mm *wire.MismatchError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &mm):
		return "mismatch"
	case errors.As(err, &de):
		return "decode"
	}
	return "stream"
}

// TestDecodeBorrowedMatchesDecode: on every frame of the codec's seed
// corpus, and on its truncated and bit-flipped variants, DecodeBorrowed
// fails in the same class as Decode, and where both succeed it returns
// the same sender and tags and a pointer to Decode's value.
func TestDecodeBorrowedMatchesDecode(t *testing.T) {
	algos, seeds := codecSeeds(t)
	for _, sd := range seeds {
		for _, algo := range algos {
			for v, frame := range sd.variants() {
				name := fmt.Sprintf("%s frame of %s, variant %d, decoded as %s", sd.algo, sd.msg.Kind(), v, algo)
				from, msg, err := wire.BinaryCodec().NewDecoder(bytes.NewReader(frame), algo).Decode()
				bFrom, borrowed, bErr := wire.BinaryCodec().NewDecoder(bytes.NewReader(frame), algo).DecodeBorrowed()
				if errClass(err) != errClass(bErr) {
					t.Fatalf("%s: Decode error %v, DecodeBorrowed error %v", name, err, bErr)
				}
				if err != nil {
					continue
				}
				inner, key, trace := wire.Unwrap(msg)
				bInner, bKey, bTrace := wire.Unwrap(borrowed)
				if bFrom != from || bKey != key || bTrace != trace {
					t.Fatalf("%s: borrowed (%d, %q, %d), copied (%d, %q, %d)", name, bFrom, bKey, bTrace, from, key, trace)
				}
				p := reflect.ValueOf(bInner)
				if p.Kind() != reflect.Pointer || p.Type().Elem() != reflect.TypeOf(inner) {
					t.Fatalf("%s: DecodeBorrowed returned %T, want *%T", name, bInner, inner)
				}
				if got := p.Elem().Interface(); !reflect.DeepEqual(got, inner) {
					t.Fatalf("%s:\nborrowed %#v\n  copied %#v", name, got, inner)
				}
			}
		}
	}
}

// TestDecodeCopySurvivesNextFrame: a message Decode returned shares
// nothing the decoder reuses. The decoder zeroes its scratch before a
// frame decodes into it, never after, so a second PRIVILEGE on the same
// decoder leaves the first one's Q-list and Granted as they were.
func TestDecodeCopySurvivesNextFrame(t *testing.T) {
	algo := register(t, registry.Core)
	first := core.Privilege{
		Q:       core.QList{{Node: 1, Seq: 2}, {Node: 3, Seq: 4}},
		Granted: []uint64{5, 6, 7},
		Counter: 8, Epoch: 1, Fence: 9,
	}
	second := core.Privilege{
		Q:       core.QList{{Node: 7, Seq: 7}, {Node: 7, Seq: 7}, {Node: 7, Seq: 7}},
		Granted: []uint64{70, 71, 72, 73},
		Counter: 70, Epoch: 2, Fence: 77,
	}
	var stream bytes.Buffer
	stream.Write(encodeBinary(t, algo, 1, first))
	stream.Write(encodeBinary(t, algo, 2, second))
	dec := wire.BinaryCodec().NewDecoder(&stream, algo)
	_, got, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dec.Decode(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, first) {
		t.Errorf("first PRIVILEGE after a second was decoded:\n got %#v\nwant %#v", got, first)
	}
}

// TestPayloadKeysIntern: a session request's key goes through the
// decoder's key-intern table. A repeated key decodes to the interned
// string, and the table keeps its cap however many keys a client picks,
// every key past it still decoding intact.
func TestPayloadKeysIntern(t *testing.T) {
	session.Register()
	dec := wire.BinaryCodec().NewDecoder(nil, session.Algo)
	key := func(i int) string {
		body := encodeBinary(t, session.Algo, 1, session.ReleaseReq{Seq: 1, Session: 2, Key: fmt.Sprintf("client-chosen/%d", i)})
		_, msg, err := dec.DecodeBody(body[wire.PrefixLen:])
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		return msg.(session.ReleaseReq).Key
	}
	first, again := key(0), key(0)
	if first != "client-chosen/0" || unsafe.StringData(again) != unsafe.StringData(first) {
		t.Fatalf("a repeated key decoded as a fresh copy %q, want the interned %q", again, first)
	}
	for i := 1; i < 10_000; i++ {
		if got, want := key(i), fmt.Sprintf("client-chosen/%d", i); got != want {
			t.Fatalf("key %d decoded as %q, want %q", i, got, want)
		}
	}
	if got := dec.Interned(); got != wire.MaxInterned {
		t.Errorf("intern table holds %d keys after 10k distinct ones, want the cap %d", got, wire.MaxInterned)
	}
}
