package wire_test

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/session"
	"tokenarbiter/internal/transport"
	"tokenarbiter/internal/wire"
)

// tally counts events from any goroutine, whichever way they arrive: as
// log records (it is an slog.Handler) or as lock calls (it is a
// session.Backend).
type tally struct{ n atomic.Int64 }

func (c *tally) inc()     { c.n.Add(1) }
func (c *tally) get() int { return int(c.n.Load()) }

func (c *tally) Handle(context.Context, slog.Record) error         { c.inc(); return nil }
func (c *tally) Enabled(context.Context, slog.Level) bool          { return true }
func (c *tally) WithAttrs([]slog.Attr) slog.Handler                { return c }
func (c *tally) WithGroup(string) slog.Handler                     { return c }
func (c *tally) LockFence(context.Context, string) (uint64, error) { c.inc(); return 0, nil }
func (c *tally) Unlock(string)                                     { c.inc() }

// port is one listening wire endpoint as a stranger test sees it: where
// to dial, how many connections it has refused (its counter), how many
// refusals it has surfaced (callback or log line), and how much traffic
// has reached whatever sits behind it.
type port struct {
	addr                       string
	counted, surfaced, reached func() int
}

func peerPort(t *testing.T) port {
	algo := register(t, registry.Core)
	var surfaced, reached tally
	tr, err := transport.NewTCPOpt(0, map[dme.NodeID]string{0: "127.0.0.1:0"},
		transport.TCPOptions{Algo: algo, OnWireError: func(error) { surfaced.inc() }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	tr.SetHandler(func(dme.NodeID, dme.Message) { reached.inc() })
	return port{
		addr: tr.Addr().String(),
		counted: func() int {
			mm, de := tr.WireErrors()
			return int(mm + de)
		},
		surfaced: surfaced.get,
		reached:  reached.get,
	}
}

func sessionPort(t *testing.T) port {
	var surfaced, reached tally
	srv, err := session.NewServer(session.Config{Backend: &reached, Logger: slog.New(&surfaced)})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return port{
		addr: ln.Addr().String(),
		counted: func() int {
			return int(srv.Metrics().Snapshot().Counters["session_handshake_rejects_total"])
		},
		surfaced: surfaced.get,
		reached: func() int {
			return reached.get() + int(srv.Metrics().Snapshot().Counters["session_opens_total"])
		},
	}
}

// TestStrangersRefused throws byte streams that are not a wire hello at
// both listening ports: the stream a build from before the "TAW3"
// handshake opened its connections with, an HTTP request, and a hello
// cut short. Each is refused the same way everywhere — nothing reaches
// the handler, the connection is closed without an answer, and the
// refusal is counted once and surfaced once.
func TestStrangersRefused(t *testing.T) {
	algo := register(t, registry.Core)
	strangers := []struct {
		name  string
		bytes []byte
	}{
		{"gob envelope stream", gobEnvelopeStream(t, algo, 1,
			core.Request{Entry: core.QEntry{Node: 1, Seq: 1}}, core.Probe{})},
		{"http request", []byte("GET / HTTP/1.1\r\nHost: lock\r\n\r\n")},
		{"truncated hello", append(wire.Magic[:], wire.FormatVersion, 1, 0)},
	}
	for _, p := range []struct {
		name   string
		listen func(*testing.T) port
	}{{"peer port", peerPort}, {"session port", sessionPort}} {
		t.Run(p.name, func(t *testing.T) {
			port := p.listen(t)
			for i, s := range strangers {
				conn, err := net.Dial("tcp", port.addr)
				if err != nil {
					t.Fatal(err)
				}
				_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
				if _, err := conn.Write(s.bytes); err != nil {
					t.Fatalf("%s: write: %v", s.name, err)
				}
				_ = conn.(*net.TCPConn).CloseWrite()
				// A reset instead of a clean EOF is the kernel noting the
				// stranger's unread bytes; either way the port hung up.
				if answer, err := io.ReadAll(conn); len(answer) != 0 || err != nil && !errors.Is(err, syscall.ECONNRESET) {
					t.Errorf("%s: port answered %q (err %v), want a bare close", s.name, answer, err)
				}
				_ = conn.Close()
				if c, sf := port.counted(), port.surfaced(); c != i+1 || sf != i+1 {
					t.Errorf("%s: %d refusals counted, %d surfaced; want %d of each", s.name, c, sf, i+1)
				}
			}
			if n := port.reached(); n != 0 {
				t.Errorf("%d stranger messages reached the handler", n)
			}
		})
	}
}
