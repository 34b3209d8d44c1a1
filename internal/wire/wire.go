// Package wire defines the on-the-wire representation shared by the live
// transports, the session protocol and the flight recorder: one
// length-prefixed binary frame per protocol message (binary.go), behind
// one connection handshake (handshake.go).
//
// Two message families cross a wire: the paper's arbiter protocol
// between lock-service peers ("core", registered by internal/registry)
// and the session protocol between clients and servers ("session",
// registered by internal/session). Each registers its concrete message
// types under its name with RegisterAlgorithm; registration is
// idempotent per family, and both coexist in one process. Every frame
// and handshake carries the family's name, and peers must agree on both
// the wire format version and the family; a disagreement surfaces as a
// typed *MismatchError from the handshake or the decoder rather than a
// garbage decode.
//
// A message crosses the codec in one of two shapes. Encoder.Encode and
// Decoder.Decode move a dme.Message, Wrap'd with a key and a trace or
// bare, which is what a transport carries; each frame then costs a box
// at both ends. EncodeValue and DecodeBorrowed move a concrete message
// instead: EncodeValue frames a value passed through a type parameter,
// and DecodeBorrowed returns a pointer into the decoder's per-kind
// scratch that stays valid only until the decoder's next call. The
// bytes on the wire are the same either way. The session tier uses the
// second shape at both ends, since its reader loops finish with each
// frame before they read the next. The TCP transport keeps the first:
// core holds an inbound message in the live executor's queue after the
// read loop has moved on, so a borrowed message would be overwritten
// under it.
package wire

import (
	"fmt"
	"reflect"
	"sync"

	"tokenarbiter/internal/dme"
)

// FormatVersion is the frame format generation, carried in every frame
// and every handshake. Version 1 was the untagged single-algorithm
// envelope; version 2 added the algorithm tag.
const FormatVersion = 2

// Keyed tags a protocol message with the lock key of the DME group it
// belongs to. A multiplexed transport stack passes Keyed values between
// the key router (the live Manager) and the wire: the encoder
// unwraps a Keyed into the frame's key field (the payload is the inner
// message) and the decoder re-wraps a keyed frame's message on the way
// in. Keys are arbitrary byte strings — never interpreted, only matched
// — so very long and non-UTF-8 names round-trip; the empty key means no
// key at all. Kind and SizeUnits delegate to the inner message, so
// counting and fault-injection middleware below the demux observe keyed
// traffic identically to key-less traffic.
type Keyed struct {
	Key string
	Msg dme.Message
}

// Kind implements dme.Message by delegating to the inner message.
func (k Keyed) Kind() string { return k.Msg.Kind() }

// SizeUnits implements dme.Sized: the inner message's payload volume, or
// 1 when the inner message is unsized (the same default the accounting
// layer applies to bare messages).
func (k Keyed) SizeUnits() int {
	if s, ok := k.Msg.(dme.Sized); ok {
		return s.SizeUnits()
	}
	return 1
}

// Traced tags a protocol message with the end-to-end trace ID of the
// request it serves (reqtrace.ID as a raw uint64; 0 means untraced),
// propagating trace context across the wire: the encoder unwraps a
// Traced into the frame's trace field and the decoder re-wraps on the
// way in. In a multiplexed stack the Keyed wrapper is outermost —
// Keyed{Key, Traced{Trace, Msg}} — matching the layering of the
// transport stack (the key demultiplexer sits above the tracing
// runtime). Kind and SizeUnits delegate to the inner message, so
// accounting and fault-injection layers observe traced traffic
// identically to untraced traffic.
type Traced struct {
	Trace uint64
	Msg   dme.Message
}

// Kind implements dme.Message by delegating to the inner message.
func (t Traced) Kind() string { return t.Msg.Kind() }

// SizeUnits implements dme.Sized: the inner message's payload volume, or
// 1 when the inner message is unsized.
func (t Traced) SizeUnits() int {
	if s, ok := t.Msg.(dme.Sized); ok {
		return s.SizeUnits()
	}
	return 1
}

// MismatchError reports a frame or a handshake from a peer speaking a
// different wire format version or a different algorithm.
type MismatchError struct {
	From          int    // sender node id, as the frame or handshake claims it
	LocalAlgo     string // algorithm this process runs
	RemoteAlgo    string // algorithm the peer tagged
	LocalVersion  int
	RemoteVersion int
}

// Error implements error.
func (e *MismatchError) Error() string {
	if e.LocalVersion != e.RemoteVersion {
		return fmt.Sprintf(
			"wire: version mismatch with node %d: local format v%d, remote sent v%d (upgrade both peers to the same build)",
			e.From, e.LocalVersion, e.RemoteVersion)
	}
	return fmt.Sprintf(
		"wire: algorithm mismatch with node %d: this node runs %q, peer sent %q (a peer port and a session port crossed?)",
		e.From, e.LocalAlgo, e.RemoteAlgo)
}

// DecodeError reports a frame that could not be decoded even though its
// version and algorithm matched — a corrupted body or a message type
// the local build does not know.
type DecodeError struct {
	From int
	Algo string
	Kind string
	Err  error
}

// Error implements error.
func (e *DecodeError) Error() string {
	return fmt.Sprintf("wire: node %d sent undecodable %s message (kind %q): %v",
		e.From, e.Algo, e.Kind, e.Err)
}

// Unwrap exposes the underlying decode failure.
func (e *DecodeError) Unwrap() error { return e.Err }

// algoSet is everything registered for one algorithm: the kind names
// for diagnostics, and the concrete-type tables the codec dispatches
// on. The index of a type in types is its wire kind id, so the
// RegisterAlgorithm call order is wire protocol (core.Messages and
// session.Messages fix it per family).
type algoSet struct {
	kinds  []string
	types  []reflect.Type
	byType map[reflect.Type]int
}

var (
	regMu sync.Mutex
	// algos maps a registered algorithm name to its message set, in
	// registration order.
	algos = map[string]*algoSet{}
)

// RegisterAlgorithm records an algorithm's concrete protocol message
// types under the given registry name. Every message must carry a binary
// layout — WireAppender on the value, WireUnmarshaler on the pointer —
// and one that does not panics here, at registration, rather than
// failing the first Encode: the message sets are static lists, so a
// missing layout is a programming error. It is idempotent per algorithm
// — repeated calls for the same name are no-ops — and any number of
// distinct algorithms may register in one process; registration order
// does not matter across algorithms, but within one algorithm it fixes
// the wire kind ids. Transports call it (via internal/registry) when
// they are constructed; we deliberately avoid init().
func RegisterAlgorithm(name string, msgs ...dme.Message) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, ok := algos[name]; ok {
		return
	}
	set := &algoSet{byType: make(map[reflect.Type]int, len(msgs))}
	for i, m := range msgs {
		rt := reflect.TypeOf(m)
		if _, ok := m.(WireAppender); !ok {
			panic(fmt.Sprintf("wire: %s message %s has no AppendWire method", name, rt))
		}
		if _, ok := reflect.New(rt).Interface().(WireUnmarshaler); !ok {
			panic(fmt.Sprintf("wire: %s message *%s has no UnmarshalWire method", name, rt))
		}
		set.kinds = append(set.kinds, m.Kind())
		set.types = append(set.types, rt)
		set.byType[rt] = i
	}
	algos[name] = set
}

// algoFor returns the registered message set for name, or nil.
func algoFor(name string) *algoSet {
	regMu.Lock()
	defer regMu.Unlock()
	return algos[name]
}
