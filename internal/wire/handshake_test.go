package wire_test

import (
	"errors"
	"net"
	"strings"
	"testing"

	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/session"
	"tokenarbiter/internal/wire"
)

// runHandshake drives both halves of the handshake over an in-memory
// pipe, the dialer as node 3 and the acceptor as node 7, and returns
// what each side learned.
func runHandshake(t *testing.T, clientAlgo, serverAlgo string) (acceptor int, clientErr error, dialer int, serverErr error) {
	t.Helper()
	c, s := net.Pipe()
	defer c.Close()
	defer s.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		dialer, serverErr = wire.ServerHandshake(s, s, 7, serverAlgo)
	}()
	acceptor, clientErr = wire.ClientHandshake(c, 3, clientAlgo)
	<-done
	return
}

// TestHandshakeExchangesIdentity: peers that agree on version and
// algorithm each come away with the other's node id — what the
// transport binds the connection to.
func TestHandshakeExchangesIdentity(t *testing.T) {
	algo := register(t, registry.Core)
	acceptor, clientErr, dialer, serverErr := runHandshake(t, algo, algo)
	if clientErr != nil || serverErr != nil {
		t.Fatalf("client err %v, server err %v", clientErr, serverErr)
	}
	if acceptor != 7 || dialer != 3 {
		t.Errorf("dialer saw node %d (want 7), acceptor saw node %d (want 3)", acceptor, dialer)
	}
}

// TestHandshakeAlgorithmMismatch pins that a family disagreement (a
// session client dialing a peer port, say) surfaces as
// *wire.MismatchError on both ends, naming both families so either
// side's logs identify the misconfiguration.
func TestHandshakeAlgorithmMismatch(t *testing.T) {
	register(t, registry.Core)
	session.Register()
	_, clientErr, _, serverErr := runHandshake(t, "core", session.Algo)

	var mm *wire.MismatchError
	if !errors.As(clientErr, &mm) {
		t.Fatalf("client error %T (%v), want *wire.MismatchError", clientErr, clientErr)
	}
	if mm.LocalAlgo != "core" || mm.RemoteAlgo != session.Algo || mm.From != 7 {
		t.Errorf("client mismatch %+v", mm)
	}
	if !errors.As(serverErr, &mm) {
		t.Fatalf("server error %T (%v), want *wire.MismatchError", serverErr, serverErr)
	}
	if mm.LocalAlgo != session.Algo || mm.RemoteAlgo != "core" || mm.From != 3 {
		t.Errorf("server mismatch %+v", mm)
	}
}

// craftedHello plays a hand-written hello at an acceptor and returns the
// acceptor's error and whatever it answered.
func craftedHello(t *testing.T, algo string, hello []byte) (serverErr error, reply []byte) {
	t.Helper()
	c, s := net.Pipe()
	defer c.Close()
	errCh := make(chan error, 1)
	go func() {
		_, err := wire.ServerHandshake(s, s, 7, algo)
		s.Close()
		errCh <- err
	}()
	_, _ = c.Write(hello) // an acceptor that refuses early stops reading mid-hello
	reply = make([]byte, 64)
	n, _ := c.Read(reply)
	return <-errCh, reply[:n]
}

// TestHandshakeVersionMismatch hand-crafts a hello from a build one
// format generation ahead and checks the acceptor refuses it as a
// *wire.MismatchError carrying both versions, having answered with a
// refusal the dialer can read.
func TestHandshakeVersionMismatch(t *testing.T) {
	algo := register(t, registry.Core)
	hello := append([]byte{}, wire.Magic[:]...)
	hello = append(hello, wire.FormatVersion+1, 3, 0, 0, 0, byte(len(algo)))
	hello = append(hello, algo...)
	err, reply := craftedHello(t, algo, hello)
	var mm *wire.MismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("server error %T (%v), want *wire.MismatchError", err, err)
	}
	if mm.RemoteVersion != wire.FormatVersion+1 || mm.LocalVersion != wire.FormatVersion || mm.From != 3 {
		t.Errorf("mismatch %+v", mm)
	}
	if len(reply) != 11+len(algo) || string(reply[:4]) != string(wire.Magic[:]) || reply[4] == 0 {
		t.Errorf("refusal %q is not a magic-led non-OK reply", reply)
	}
}

// TestHandshakeRefusesOldMagic: a hello from the build before this
// format ("TAW2", with a codec bitmask this build would mis-parse as
// part of the node id) is refused at the magic, unanswered, with an
// error that shows what arrived.
func TestHandshakeRefusesOldMagic(t *testing.T) {
	algo := register(t, registry.Core)
	hello := append([]byte("TAW2"), wire.FormatVersion, 0b110, 3, 0, 0, 0, byte(len(algo)))
	hello = append(hello, algo...)
	err, reply := craftedHello(t, algo, hello)
	if err == nil {
		t.Fatal("acceptor took a TAW2 hello")
	}
	var mm *wire.MismatchError
	if errors.As(err, &mm) {
		t.Errorf("a stranger was typed as a wire peer: %v", err)
	}
	if !strings.Contains(err.Error(), "TAW2") || !strings.Contains(err.Error(), "TAW3") {
		t.Errorf("error %q does not show both magics", err)
	}
	if len(reply) != 0 {
		t.Errorf("acceptor answered a stranger with %q", reply)
	}
}
