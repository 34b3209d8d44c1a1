package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// The handshake is one round trip at connection setup, before any frame
// flows. The dialer states its identity, format version and algorithm;
// the acceptor answers with its own, or rejects with a reason the dialer
// can turn into the same typed error a bad frame would have produced.
//
//	hello (dialer → acceptor), 10+len(algo) bytes:
//	  magic "TAW3" | version u8 | node id i32 LE | algo length u8 | algo bytes
//	reply (acceptor → dialer), 11+len(algo) bytes:
//	  magic "TAW3" | status u8 | version u8 | node id i32 LE |
//	  algo length u8 | algo bytes
//
// The magic is what refuses a stranger — an HTTP client, a port scanner,
// a build from before the single-codec format (those said "TAW2" or
// opened a gob stream) — at the first four bytes instead of mis-parsing
// it.

// Magic is the first four bytes of every hello and reply.
var Magic = [4]byte{'T', 'A', 'W', '3'}

// Handshake reply statuses.
const (
	hsOK              = 0
	hsVersionMismatch = 1
	hsAlgoMismatch    = 2
)

// appendIdentity appends the version | node id | algo tail both handshake
// messages end with.
func appendIdentity(b []byte, self int, algo string) []byte {
	b = append(b, FormatVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(self)))
	b = append(b, byte(len(algo)))
	return append(b, algo...)
}

// readMessage reads one handshake message in two reads: its fixed part —
// the magic, whatever the caller's buffer leaves room for after it (a
// reply's status), and the six fixed bytes of the identity tail — then
// the algorithm name. what names the message in errors.
func readMessage(r io.Reader, what string, fixed []byte) (version, peer int, algo string, err error) {
	if _, err := io.ReadFull(r, fixed); err != nil {
		return 0, -1, "", fmt.Errorf("wire: read handshake %s: %w", what, err)
	}
	if !bytes.Equal(fixed[:4], Magic[:]) {
		return 0, -1, "", fmt.Errorf("wire: peer is not a wire endpoint of this format (%s began %q, want %q)", what, fixed[:4], Magic[:])
	}
	tail := fixed[len(fixed)-6:]
	peer = int(int32(binary.LittleEndian.Uint32(tail[1:5])))
	name := make([]byte, tail[5])
	if _, err := io.ReadFull(r, name); err != nil {
		return 0, peer, "", fmt.Errorf("wire: read handshake %s: %w", what, err)
	}
	return int(tail[0]), peer, string(name), nil
}

// ClientHandshake runs the dialer's half of the handshake on a fresh
// connection and returns the acceptor's node id. A version or algorithm
// rejection from the acceptor comes back as *MismatchError — the same
// type a mismatched frame produces — so the transport's mismatch
// accounting covers handshake failures too.
func ClientHandshake(rw io.ReadWriter, self int, algo string) (peer int, err error) {
	if len(algo) == 0 || len(algo) > 0xff {
		return -1, fmt.Errorf("wire: handshake algorithm name %q must be 1..255 bytes", algo)
	}
	hello := append(make([]byte, 0, 10+len(algo)), Magic[:]...)
	hello = appendIdentity(hello, self, algo)
	if _, err := rw.Write(hello); err != nil {
		return -1, fmt.Errorf("wire: send handshake: %w", err)
	}

	var fixed [11]byte // magic | status | identity
	peerVersion, peer, peerAlgo, err := readMessage(rw, "reply", fixed[:])
	if err != nil {
		return peer, err
	}
	switch status := fixed[4]; status {
	case hsOK:
		return peer, nil
	case hsVersionMismatch, hsAlgoMismatch:
		return peer, &MismatchError{
			From:          peer,
			LocalAlgo:     algo,
			RemoteAlgo:    peerAlgo,
			LocalVersion:  FormatVersion,
			RemoteVersion: peerVersion,
		}
	default:
		return peer, fmt.Errorf("wire: peer %d sent unknown handshake status %d", peer, status)
	}
}

// ServerHandshake runs the acceptor's half: it reads the dialer's hello
// from r, replies on w, and returns the dialer's node id. A hello that
// does not begin with Magic is refused unanswered (the dialer is not a
// wire peer and would not understand a reply); a version or algorithm
// disagreement is answered with the refusal before *MismatchError is
// returned. The caller drops the connection on any error.
func ServerHandshake(r io.Reader, w io.Writer, self int, algo string) (peer int, err error) {
	var fixed [10]byte // magic | identity
	peerVersion, peer, peerAlgo, err := readMessage(r, "hello", fixed[:])
	if err != nil {
		return peer, err
	}

	status := byte(hsOK)
	switch {
	case peerVersion != FormatVersion:
		status = hsVersionMismatch
	case peerAlgo != algo:
		status = hsAlgoMismatch
	}
	reply := append(make([]byte, 0, 11+len(algo)), Magic[:]...)
	reply = appendIdentity(append(reply, status), self, algo)
	_, werr := w.Write(reply)
	if status != hsOK {
		return peer, &MismatchError{
			From:          peer,
			LocalAlgo:     algo,
			RemoteAlgo:    peerAlgo,
			LocalVersion:  FormatVersion,
			RemoteVersion: peerVersion,
		}
	}
	if werr != nil {
		return peer, fmt.Errorf("wire: send handshake reply: %w", werr)
	}
	return peer, nil
}
