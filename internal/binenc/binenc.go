// Package binenc is the tiny append/cursor toolkit behind the binary
// wire codec's message layouts: varint append helpers mirroring
// encoding/binary, and a sticky-error Reader that keeps hand-written
// UnmarshalBinary implementations to one line per field.
//
// The package sits below internal/wire and the two message families
// that cross a wire (internal/core and internal/session) so all of them
// can share one encoding vocabulary without an import cycle: binenc
// imports only the standard library.
//
// Conventions, shared by every message layout in the repository:
//
//   - unsigned fields are unsigned varints (binary.AppendUvarint);
//   - signed ints (node ids and counters that could in principle go
//     negative) are zigzag varints (binary.AppendVarint);
//   - bools are one byte, 0 or 1;
//   - slices are a uvarint element count followed by the elements, and
//     decode to nil when empty so a binary round-trip is value-identical
//     to a gob round-trip (gob decodes empty slices as nil);
//   - strings are a uvarint byte length followed by the raw bytes.
package binenc

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// AppendInt appends v as a zigzag varint.
func AppendInt(dst []byte, v int) []byte {
	return binary.AppendVarint(dst, int64(v))
}

// AppendBool appends b as one byte.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendString appends s as a uvarint length followed by its bytes.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendUvarints appends a uvarint element count followed by each value.
func AppendUvarints(dst []byte, vs []uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = binary.AppendUvarint(dst, v)
	}
	return dst
}

// AppendInts appends a uvarint element count followed by each value as a
// zigzag varint.
func AppendInts(dst []byte, vs []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = binary.AppendVarint(dst, int64(v))
	}
	return dst
}

// ErrCorrupt is the sticky error a Reader reports for any malformed
// input: a varint that overflows, a length that exceeds the remaining
// bytes, or a read past the end of the buffer.
var ErrCorrupt = errors.New("binenc: corrupt or truncated value")

// Reader is a cursor over an encoded buffer with a sticky error: after
// the first malformed field every subsequent read returns zero values,
// so decoders read all fields unconditionally and check Err (or Close)
// once at the end. The zero Reader over a nil buffer is valid and
// immediately exhausted.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader positioned at the start of buf.
func NewReader(buf []byte) Reader { return Reader{buf: buf} }

// Err returns the sticky error, if any.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// Close checks that the buffer was consumed exactly: it returns the
// sticky error if one occurred, or ErrCorrupt if unread bytes remain.
// Message decoders end with it so a frame with trailing garbage is
// rejected instead of silently accepted.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) fail() {
	if r.err == nil {
		r.err = ErrCorrupt
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Int reads a zigzag varint.
func (r *Reader) Int() int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return int(v)
}

// Bool reads a one-byte bool; any value other than 0 or 1 is corrupt.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.buf) || r.buf[r.off] > 1 {
		r.fail()
		return false
	}
	b := r.buf[r.off] == 1
	r.off++
	return b
}

// String reads a uvarint-length-prefixed string.
func (r *Reader) String() string {
	return string(r.Take(r.Count()))
}

// InternedString reads a string like String, but has intern make it
// from the string's bytes, which alias the reader's buffer: intern
// returns a string it already holds for those bytes, or copies them.
func (r *Reader) InternedString(intern func([]byte) string) string {
	b := r.Take(r.Count())
	if r.err != nil {
		return ""
	}
	return intern(b)
}

// Take consumes the next n bytes and returns them as a view into the
// underlying buffer — the caller must copy if it retains them. A
// negative n or one past the end of the buffer is corrupt.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Len() {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Rest consumes and returns every unread byte as a view into the
// underlying buffer.
func (r *Reader) Rest() []byte { return r.Take(r.Len()) }

// Count reads a slice element count for a caller decoding a composite
// slice itself, validated like the built-in slice readers: a count
// exceeding the remaining bytes (every element is at least one byte) is
// corrupt, which bounds the allocation a hostile count can demand.
func (r *Reader) Count() int {
	n, ok := r.count()
	if !ok {
		return 0
	}
	return n
}

// count validates a slice element count against the remaining bytes
// (every element is at least one byte), bounding allocation on corrupt
// or adversarial input.
func (r *Reader) count() (int, bool) {
	n := r.Uvarint()
	if r.err != nil {
		return 0, false
	}
	if n > uint64(r.Len()) {
		r.fail()
		return 0, false
	}
	return int(n), true
}

// Uvarints reads a uvarint-counted slice of unsigned varints; an empty
// slice decodes as nil.
func (r *Reader) Uvarints() []uint64 {
	n, ok := r.count()
	if !ok || n == 0 {
		return nil
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = r.Uvarint()
	}
	if r.err != nil {
		return nil
	}
	return vs
}

// Ints reads a uvarint-counted slice of zigzag varints; an empty slice
// decodes as nil.
func (r *Reader) Ints() []int {
	n, ok := r.count()
	if !ok || n == 0 {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = r.Int()
	}
	if r.err != nil {
		return nil
	}
	return vs
}
