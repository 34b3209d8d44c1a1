package session_test

import (
	"bytes"
	"reflect"
	"testing"

	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/session"
	"tokenarbiter/internal/wire"
)

// protoMessages is one exemplar per session message type with every
// field populated, plus zero-value variants. (The differential check of
// the layouts against the gob oracle lives with every other family's, in
// internal/wire's TestCodecEquivalenceAllAlgorithms.)
func protoMessages() []dme.Message {
	return []dme.Message{
		session.OpenReq{Seq: 1, TTLMillis: 15000},
		session.OpenReq{},
		session.OpenResp{Seq: 2, Code: session.CodeOK, Session: 77, TTLMillis: 10000},
		session.OpenResp{Seq: 3, Code: session.CodeOverloaded},
		session.KeepAliveReq{Seq: 4, Session: 77},
		session.KeepAliveResp{Seq: 5, Code: session.CodeUnknownSession},
		session.AcquireReq{Seq: 6, Session: 77, Key: "orders/eu-1", WaitMillis: 2500},
		session.AcquireReq{Seq: 7, Session: 77},
		session.AcquireResp{Seq: 8, Code: session.CodeOK, Fence: 901},
		session.AcquireResp{Seq: 9, Code: session.CodeTimeout},
		session.ReleaseReq{Seq: 10, Session: 77, Key: "orders/eu-1"},
		session.ReleaseResp{Seq: 11, Code: session.CodeNotHeld},
		session.WatchReq{Seq: 12, Session: 77, Key: "k"},
		session.WatchResp{Seq: 13, Code: session.CodeOK},
		session.UnwatchReq{Seq: 14, Session: 77, Key: "k"},
		session.ByeReq{Seq: 15, Session: 77},
		session.ByeResp{Seq: 16, Code: session.CodeOK},
		session.WatchEvent{Session: 77, Key: "k", Fence: 901, Reason: session.ReasonExpired},
		session.WatchEvent{},
		session.SessionExpired{Session: 77, Code: session.CodeExpired},
	}
}

// TestProtoRoundTrip checks every session message survives the wire
// unchanged.
func TestProtoRoundTrip(t *testing.T) {
	session.Register()
	var pipe bytes.Buffer
	enc := wire.BinaryCodec().NewEncoder(&pipe, session.Algo)
	dec := wire.BinaryCodec().NewDecoder(&pipe, session.Algo)
	for _, msg := range protoMessages() {
		if err := enc.Encode(3, msg); err != nil {
			t.Fatalf("encode %T: %v", msg, err)
		}
		from, got, err := dec.Decode()
		if err != nil {
			t.Fatalf("decode %T: %v", msg, err)
		}
		if from != 3 || !reflect.DeepEqual(got, msg) {
			t.Errorf("round-trip of %T:\n got (%d, %+v)\nwant (3, %+v)", msg, from, got, msg)
		}
	}
}

// TestProtoBinaryCapable: every message type the server or client can
// send is in the registered family — Register would have panicked on one
// without a layout, and an unregistered one fails its first Encode on a
// live connection — and Messages lists one prototype of each.
func TestProtoBinaryCapable(t *testing.T) {
	session.Register()
	kinds := map[string]bool{}
	for _, proto := range session.Messages() {
		kinds[proto.Kind()] = true
	}
	for _, msg := range protoMessages() {
		if !kinds[msg.Kind()] {
			t.Errorf("%T is not in session.Messages()", msg)
		}
	}
	if len(kinds) != len(session.Messages()) {
		t.Errorf("%d prototypes share %d kinds", len(session.Messages()), len(kinds))
	}
}

// TestProtoRejectsTrailingGarbage: each binary layout must consume its
// payload exactly.
func TestProtoRejectsTrailingGarbage(t *testing.T) {
	session.Register()
	msg := session.AcquireReq{Seq: 1, Session: 2, Key: "k", WaitMillis: 3}
	b, err := msg.AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out session.AcquireReq
	if err := out.UnmarshalWire(append(b, 0xff)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if err := out.UnmarshalWire(b[:len(b)-1]); err == nil {
		t.Fatal("truncated payload accepted")
	}
}
