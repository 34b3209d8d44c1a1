package wire_test

import (
	"bytes"
	"encoding/gob"
	"testing"

	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/wire"
)

// This file is the only place encoding/gob survives. It is the reference
// implementation the hand-written binary layouts are compared against
// (TestCodecEquivalenceAllAlgorithms, FuzzCodecEquivalence): gob's
// reflective struct encoding shares no code with AppendWire /
// UnmarshalWire, so a field one of them forgets, reorders or truncates
// shows up as a disagreement. It also reproduces the byte stream of a
// build from before the single-codec format, for the stranger tests.

// gobBox is the gob top-level value; the interface field is what makes
// gob carry the concrete message type.
type gobBox struct{ M dme.Message }

// gobRoundTrip pushes a bare message value through gob and returns what
// comes out the other end.
func gobRoundTrip(t testing.TB, msg dme.Message) dme.Message {
	t.Helper()
	gob.Register(msg)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&gobBox{M: msg}); err != nil {
		t.Fatalf("gob oracle: encode %T: %v", msg, err)
	}
	var out gobBox
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("gob oracle: decode %T: %v", msg, err)
	}
	return out.M
}

// gobEnvelopeStream is what a peer from before the "TAW3" handshake wrote
// when it opened a connection without a hello: a gob stream of sealed
// envelopes, each carrying its message as a nested gob payload.
func gobEnvelopeStream(t testing.TB, algo string, from int, msgs ...dme.Message) []byte {
	t.Helper()
	type envelope struct {
		Version int
		Algo    string
		From    int
		Kind    string
		Payload []byte
	}
	var stream bytes.Buffer
	enc := gob.NewEncoder(&stream)
	for _, msg := range msgs {
		gob.Register(msg)
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(&gobBox{M: msg}); err != nil {
			t.Fatalf("gob oracle: encode %T: %v", msg, err)
		}
		env := envelope{Version: wire.FormatVersion, Algo: algo, From: from, Kind: msg.Kind(), Payload: payload.Bytes()}
		if err := enc.Encode(&env); err != nil {
			t.Fatalf("gob oracle: encode envelope: %v", err)
		}
	}
	return stream.Bytes()
}
