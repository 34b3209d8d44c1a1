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

// handshake runs one side of the wire handshake under handshakeTimeout
// and returns the decoder for the peer's frames. Each side encodes its
// own frames with wire.EncodeValue: the client straight onto the
// connection under its write mutex, the server into a connection's
// outbox (see srvConn).
func handshake(conn net.Conn, server bool) (*wire.Decoder, error) {
	Register()
	_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
	var err error
	if server {
		_, err = wire.ServerHandshake(conn, conn, endpointID, Algo)
	} else {
		_, err = wire.ClientHandshake(conn, endpointID, Algo)
	}
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	_ = conn.SetDeadline(time.Time{})
	return wire.BinaryCodec().NewDecoder(bufio.NewReader(conn), Algo), nil
}
