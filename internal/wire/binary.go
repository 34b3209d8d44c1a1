package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"reflect"

	"tokenarbiter/internal/binenc"
	"tokenarbiter/internal/dme"
)

// WireAppender is the encode half of a message's binary layout: append
// the payload encoding of the receiver to b and return the extended
// slice, encoding.BinaryAppender-style.
//
// These are deliberately NOT the standard encoding.BinaryAppender /
// encoding.BinaryUnmarshaler interfaces: encoding/gob special-cases
// types implementing the stdlib encoding interfaces (routing them
// through MarshalBinary/UnmarshalBinary instead of struct encoding),
// which would make the test suite's gob oracle compare the binary layout
// against itself. Repo-specific method names keep the layout invisible
// to gob.
type WireAppender interface {
	AppendWire(b []byte) ([]byte, error)
}

// WireUnmarshaler is the decode half of a message's binary layout,
// implemented on the message's pointer type: decode the payload bytes
// into the receiver, rejecting trailing garbage. Implementations must
// copy any bytes they keep — the codec reuses its frame buffer.
type WireUnmarshaler interface {
	UnmarshalWire(data []byte) error
}

// InternUnmarshaler is an optional decode half for a layout that
// carries lock keys. The decoder calls it in place of UnmarshalWire and
// passes intern, which makes a key's string from its bytes (they alias
// the frame buffer) through the decoder's key-intern table, the one
// frame keys go through: a key the connection has sent before decodes
// without a copy. binenc.Reader.InternedString reads a key this way.
type InternUnmarshaler interface {
	UnmarshalWireInterned(data []byte, intern func([]byte) string) error
}

// Every message travels as one frame:
//
//	u32 little-endian body length, then the body:
//	  [0]      format version (FormatVersion)
//	  [1]      flags: bit 0 = key present, bit 1 = trace present
//	  [2]      algorithm name length, followed by the name bytes
//	  uvarint  kind id — the message type's index in the algorithm's
//	           RegisterAlgorithm call, which is why registration order
//	           is wire protocol for binary-capable algorithms
//	  varint   sender node id (zigzag)
//	  (key)    uvarint byte length + key bytes, when flag bit 0 is set
//	  (trace)  uvarint trace id, when flag bit 1 is set
//	  payload  the message's AppendWire layout, to end of body
//
// The explicit length prefix is what makes a bad frame skippable: the
// decoder always consumes exactly one frame before looking inside it, so
// a corrupt payload costs one message, not the connection.

// PrefixLen is the size of the length prefix ahead of every frame body.
const PrefixLen = 4

const (
	flagKey   = 1 << 0
	flagTrace = 1 << 1

	// maxFrame bounds a frame body so a corrupt length prefix cannot
	// drive an allocation of arbitrary size. The largest real message is
	// a PRIVILEGE token with an O(n) Q-list — kilobytes, not megabytes.
	maxFrame = 16 << 20
)

// Codec is the wire encoding — there is one. It is stateless; the
// per-connection state (scratch buffers, interned keys) lives in the
// Encoder and Decoder it constructs.
type Codec struct{}

// BinaryCodec returns the wire codec.
func BinaryCodec() Codec { return Codec{} }

// NewEncoder returns an encoder framing messages for the given
// algorithm onto w. Encoders are not safe for concurrent use; the
// transport serializes access per connection.
func (Codec) NewEncoder(w io.Writer, algo string) *Encoder {
	return &Encoder{algo: algo, set: algoFor(algo), w: w}
}

// NewDecoder returns a decoder reading the peer's frames for the given
// algorithm from r; r may be nil for a decoder used only through
// DecodeBody.
func (Codec) NewDecoder(r io.Reader, algo string) *Decoder {
	d := &Decoder{algo: algo, set: algoFor(algo), r: r, keys: map[string]string{}}
	d.intern = d.internKey
	return d
}

// Encoder frames protocol messages onto one connection.
type Encoder struct {
	algo string
	set  *algoSet
	w    io.Writer
	// buf is the frame scratch, reused across Encode calls (the
	// transport serializes encoder access per connection); after warmup
	// it makes the steady-state encode path allocation-free.
	buf []byte
}

// Frame is what EncodeValue accepts: a registered message type, passed
// by value through a type parameter so that framing it boxes nothing.
type Frame interface {
	dme.Message
	WireAppender
}

// Encode writes one frame. It accepts bare or Wrap'd messages; key and
// trace tags travel in the frame header.
func (e *Encoder) Encode(from int, msg dme.Message) error {
	inner, key, trace := Unwrap(msg)
	if inner == nil {
		return fmt.Errorf("wire: nil message for algorithm %q", e.algo)
	}
	b, kind, err := e.header(from, reflect.TypeOf(inner), key, trace)
	if err != nil {
		return err
	}
	b, err = inner.(WireAppender).AppendWire(b)
	return e.finish(b, kind, err)
}

// EncodeValue writes one untagged frame for a concrete registered
// message: the bytes Encode writes for the same value, without the
// conversion to dme.Message that costs Encode's caller an allocation
// per frame. The session tier frames its own messages this way.
func EncodeValue[T Frame](e *Encoder, from int, msg T) error {
	b, kind, err := e.header(from, reflect.TypeFor[T](), "", 0)
	if err != nil {
		return err
	}
	b, err = msg.AppendWire(b)
	return e.finish(b, kind, err)
}

// header starts a frame in the encoder's scratch: the length prefix
// (patched by finish), the envelope and the tags. It returns the
// message type's kind id.
func (e *Encoder) header(from int, typ reflect.Type, key string, trace uint64) ([]byte, int, error) {
	if e.set == nil {
		return nil, 0, fmt.Errorf("wire: algorithm %q is not registered", e.algo)
	}
	if len(e.algo) > 0xff {
		return nil, 0, fmt.Errorf("wire: algorithm name %q exceeds 255 bytes", e.algo)
	}
	kind, ok := e.set.byType[typ]
	if !ok {
		return nil, 0, fmt.Errorf("wire: %v is not a registered %s message", typ, e.algo)
	}
	b := append(e.buf[:0], 0, 0, 0, 0) // length prefix, patched by finish
	b = append(b, FormatVersion)
	var flags byte
	if key != "" {
		flags |= flagKey
	}
	if trace != 0 {
		flags |= flagTrace
	}
	b = append(b, flags, byte(len(e.algo)))
	b = append(b, e.algo...)
	b = binary.AppendUvarint(b, uint64(kind))
	b = binary.AppendVarint(b, int64(from))
	if key != "" {
		b = binenc.AppendString(b, key)
	}
	if trace != 0 {
		b = binary.AppendUvarint(b, trace)
	}
	return b, kind, nil
}

// finish checks the frame the payload completed (err is the payload's
// AppendWire error), patches its length prefix and writes it.
func (e *Encoder) finish(b []byte, kind int, err error) error {
	if err != nil {
		return fmt.Errorf("wire: encode %s %q payload: %w", e.algo, e.set.kinds[kind], err)
	}
	if len(b)-PrefixLen > maxFrame {
		return fmt.Errorf("wire: %s %q frame of %d bytes exceeds the %d-byte limit",
			e.algo, e.set.kinds[kind], len(b)-PrefixLen, maxFrame)
	}
	binary.LittleEndian.PutUint32(b[:PrefixLen], uint32(len(b)-PrefixLen))
	e.buf = b
	_, err = e.w.Write(b)
	return err
}

// Decoder reads framed messages off one connection. Decoders are not
// safe for concurrent use; each connection's reader owns its own.
//
// Decode and DecodeBody return a message the caller owns. DecodeBorrowed
// returns a pointer into the decoder's scratch instead (*AcquireReq for
// a session acquire, say), valid only until the decoder's next call:
// the next frame of the same kind decodes into the same value. That
// saves the one allocation a frame otherwise costs, the copy of the
// decoded value into a dme.Message, and suits a reader that is done
// with each message before it reads the next. The session tier's two
// read loops are such readers. The TCP transport is not: the live
// executor keeps an inbound message queued after the read loop moves
// on, so it decodes with Decode.
type Decoder struct {
	algo string
	set  *algoSet
	r    io.Reader
	hdr  [PrefixLen]byte
	// buf holds one frame body, reused across frames: UnmarshalWire
	// implementations copy what they keep, per the interface contract.
	buf []byte
	// keys interns lock keys so steady-state keyed traffic does not
	// allocate a fresh key string per message. It holds at most
	// maxInterned entries: a peer choosing keys (a session client does)
	// must not grow it without bound, so keys past the cap are copied
	// per frame instead.
	keys   map[string]string
	intern func([]byte) string // internKey, bound once for InternUnmarshaler
	// scratch holds, per kind id, a reusable *T the payload decodes
	// into: the value DecodeBorrowed lends out, and the one Decode
	// copies. Created on a kind's first frame; zeroed before each.
	scratch []reflect.Value
}

// maxInterned caps a Decoder's key-intern table. A node's own traffic
// uses a handful of lock keys, so 256 covers every steady-state key.
const maxInterned = 256

// Decode reads one frame. Errors come in three severities, and callers
// dispatch on type:
//
//   - *MismatchError: the peer speaks a different format version or
//     algorithm; the connection is misconfigured and should be dropped.
//   - *DecodeError: one frame was undecodable but the stream is still
//     aligned on a frame boundary; the caller may skip it and continue.
//   - anything else: an I/O or framing failure; the stream position is
//     unknown and the connection is dead.
func (d *Decoder) Decode() (int, dme.Message, error) {
	body, err := d.next()
	if err != nil {
		return 0, nil, err
	}
	return d.decodeBody(body, false)
}

// DecodeBorrowed reads one frame like Decode, with the same errors, but
// the message it returns (inside its Keyed and Traced tags, when the
// frame has them) is a pointer to the decoder's scratch value for the
// frame's kind: *T where Decode returns T. It stays valid until the
// decoder's next call; a caller that keeps the message past that must
// copy the pointee. After its first frame of a kind, an untagged frame
// allocates nothing when its payload holds no slice and no string but
// an interned key (see InternUnmarshaler).
func (d *Decoder) DecodeBorrowed() (int, dme.Message, error) {
	body, err := d.next()
	if err != nil {
		return 0, nil, err
	}
	return d.decodeBody(body, true)
}

// next reads one frame off the stream and returns its body, which lives
// in the decoder's buffer until the next read.
func (d *Decoder) next() ([]byte, error) {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(d.hdr[:])
	if n == 0 || n > maxFrame {
		// The length prefix itself is untrustworthy, so the frame
		// boundary is lost: fatal, unlike the in-body errors below.
		return nil, fmt.Errorf("wire: binary frame length %d out of range (0, %d]", n, maxFrame)
	}
	if cap(d.buf) < int(n) {
		d.buf = make([]byte, n)
	}
	body := d.buf[:n]
	if _, err := io.ReadFull(d.r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// DecodeBody interprets one complete frame body — what follows the
// length prefix. Decode has consumed an exact frame off the stream
// whatever this returns, so every error here is per-message:
// *MismatchError for version/algorithm disagreement, *DecodeError for
// anything malformed. Callers holding a body outside a stream (a
// flight-recorder capture, an injected corruption) call it directly.
func (d *Decoder) DecodeBody(body []byte) (int, dme.Message, error) {
	return d.decodeBody(body, false)
}

// decodeBody is DecodeBody; borrow returns the scratch pointer in place
// of a copy of its value.
func (d *Decoder) decodeBody(body []byte, borrow bool) (int, dme.Message, error) {
	corrupt := func(from int, kind string, err error) (int, dme.Message, error) {
		return from, nil, &DecodeError{From: from, Algo: d.algo, Kind: kind, Err: err}
	}
	if len(body) < 3 {
		return corrupt(-1, "", fmt.Errorf("frame body of %d bytes is shorter than the fixed header", len(body)))
	}
	version := int(body[0])
	flags := body[1]
	algoLen := int(body[2])
	if 3+algoLen > len(body) {
		return corrupt(-1, "", fmt.Errorf("algorithm name overruns the frame"))
	}
	algoBytes := body[3 : 3+algoLen]
	r := binenc.NewReader(body[3+algoLen:])
	kind := r.Uvarint()
	from := r.Int()
	if r.Err() != nil {
		return corrupt(-1, "", r.Err())
	}
	// Validation is strictly ordered — version, then algorithm, then
	// payload — and exactly one error is returned per frame, so each
	// failure is counted once by exactly one transport counter: a
	// wrong-version frame is a mismatch before its payload (whose layout
	// that version may define differently) is ever looked at.
	if version != FormatVersion || string(algoBytes) != d.algo {
		return from, nil, &MismatchError{
			From:          from,
			LocalAlgo:     d.algo,
			RemoteAlgo:    string(algoBytes),
			LocalVersion:  FormatVersion,
			RemoteVersion: version,
		}
	}
	if flags&^(flagKey|flagTrace) != 0 {
		return corrupt(from, "", fmt.Errorf("unknown envelope flags %#x", flags))
	}
	var key string
	if flags&flagKey != 0 {
		key = r.InternedString(d.intern)
	}
	var trace uint64
	if flags&flagTrace != 0 {
		trace = r.Uvarint()
	}
	if r.Err() != nil {
		return corrupt(from, "", r.Err())
	}
	if d.set == nil || kind >= uint64(len(d.set.types)) {
		return corrupt(from, "", fmt.Errorf("unknown kind id %d", kind))
	}
	pv, err := d.decodePayload(int(kind), r.Rest())
	if err != nil {
		return corrupt(from, d.set.kinds[kind], err)
	}
	var msg dme.Message
	if borrow {
		msg = pv.Interface().(dme.Message)
	} else {
		msg = pv.Elem().Interface().(dme.Message) // the frame's one allocation
	}
	if trace != 0 {
		msg = Traced{Trace: trace, Msg: msg}
	}
	if key != "" {
		msg = Keyed{Key: key, Msg: msg}
	}
	return from, msg, nil
}

// decodePayload decodes one kind's payload into the decoder's scratch
// value for that kind and returns the scratch pointer. The scratch is
// zeroed first, so every decode starts from the zero value (as a fresh
// reflect.New would) and no slice decoded into it is reused: a copy
// Decode returned keeps its slices, and a borrowed pointee stays intact
// until the next call.
func (d *Decoder) decodePayload(kind int, data []byte) (reflect.Value, error) {
	if d.scratch == nil {
		d.scratch = make([]reflect.Value, len(d.set.types))
	}
	pv := d.scratch[kind]
	if !pv.IsValid() {
		pv = reflect.New(d.set.types[kind])
		d.scratch[kind] = pv
	}
	pv.Elem().SetZero()
	var err error
	if iu, ok := pv.Interface().(InternUnmarshaler); ok {
		err = iu.UnmarshalWireInterned(data, d.intern)
	} else {
		err = pv.Interface().(WireUnmarshaler).UnmarshalWire(data)
	}
	if err != nil {
		return reflect.Value{}, err
	}
	return pv, nil
}

// internKey returns the decoder's interned string for a key's bytes,
// interning a new key while the table is under its cap.
func (d *Decoder) internKey(b []byte) string {
	if key, ok := d.keys[string(b)]; ok {
		return key
	}
	key := string(b)
	if len(d.keys) < maxInterned {
		d.keys[key] = key
	}
	return key
}
