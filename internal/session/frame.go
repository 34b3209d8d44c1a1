package session

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"tokenarbiter/internal/wire"
)

// A session connection opens with the wire handshake every peer
// connection opens with, for the "session" algorithm, after which both
// directions carry wire frames of the session message family. The
// handshake rejects strangers (an arbiter-protocol peer or a stray HTTP
// client dialing the session port) with the same typed refusal the peer
// port gives them, instead of a codec desync.

// endpointID is the node id session endpoints state in the handshake:
// clients and servers are not cluster nodes.
const endpointID = -1

// handshakeTimeout bounds the handshake on a fresh connection, on either
// side — the transport's dial budget. A dialer that connects and says
// nothing costs the server one goroutine for this long, not forever.
const handshakeTimeout = 2 * time.Second

// framed is one side's encoder/decoder pair over a buffered connection.
// Encode paths must hold their own serialization (the client's write
// mutex, the server's single writer goroutine) and flush after a batch.
type framed struct {
	enc *wire.Encoder
	dec *wire.Decoder
	bw  *bufio.Writer
}

// handshake runs one side of the wire handshake under handshakeTimeout
// and builds the frame pair.
func handshake(conn net.Conn, server bool) (framed, error) {
	Register()
	_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
	var err error
	if server {
		_, err = wire.ServerHandshake(conn, conn, endpointID, Algo)
	} else {
		_, err = wire.ClientHandshake(conn, endpointID, Algo)
	}
	if err != nil {
		return framed{}, fmt.Errorf("session: %w", err)
	}
	_ = conn.SetDeadline(time.Time{})
	bw := bufio.NewWriter(conn)
	return framed{
		enc: wire.BinaryCodec().NewEncoder(bw, Algo),
		dec: wire.BinaryCodec().NewDecoder(bufio.NewReader(conn), Algo),
		bw:  bw,
	}, nil
}
