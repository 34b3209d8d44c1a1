package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/wire"
)

// TCPOptions tunes a TCPTransport beyond the address map.
type TCPOptions struct {
	// Algo names the wire family this endpoint carries; it is stamped on
	// every outgoing frame and required on every inbound one. Core
	// (registry.Core) is the only one, and empty means it. NewTCPOpt
	// registers core's wire types itself and rejects any other name.
	Algo string
	// Codec is a compile-compatibility field: there is one wire codec, so
	// "", "auto" and "binary" all mean it and anything else is an error.
	//
	// Deprecated: leave it unset.
	Codec string
	// DialTimeout bounds each outbound connection attempt, including
	// the handshake, and each inbound handshake; zero means 2 s.
	DialTimeout time.Duration
	// OnWireError, when non-nil, receives every inbound frame error —
	// *wire.MismatchError when a peer runs a different algorithm or wire
	// format, *wire.DecodeError when a frame fails to decode or names a
	// sender other than the node its connection handshook as — and the
	// error of every refused handshake (a plain error when the dialer is
	// not a wire peer at all). Called from receive goroutines; must be
	// safe for concurrent use. The errors are also counted (see
	// WireErrors) regardless.
	OnWireError func(error)
}

// TCPTransport moves protocol messages between cluster nodes over TCP.
// One endpoint per process: it listens on its own address and dials
// peers lazily, caching one outbound connection per peer and redialling
// once on failure. Each connection opens with the wire handshake (see
// package wire), which fixes the format version, the algorithm and the
// two node ids for the connection's life. Outbound frames are buffered
// and flushed by their sender; senders contending for one connection
// share flushes — the paper's T_req batch dispatch is exactly such a
// burst. Delivery is best-effort — if a peer is unreachable the message
// is dropped, which the arbiter protocol tolerates by design (§6 of the
// paper).
type TCPTransport struct {
	self  dme.NodeID
	algo  string
	onErr func(error)
	addrs map[dme.NodeID]string
	ln    net.Listener

	hmu     sync.RWMutex
	handler Handler

	cmu   sync.Mutex
	conns map[dme.NodeID]*outConn

	imu     sync.Mutex
	inbound map[net.Conn]struct{}

	wg     sync.WaitGroup
	quit   chan struct{}
	closed sync.Once

	// Wire-byte totals (framed bytes incl. handshakes), kept always — the
	// cost is one atomic add per I/O call.
	bytesOut atomic.Uint64
	bytesIn  atomic.Uint64

	// Write-coalescing totals: envelopes encoded vs. syscall-level
	// flushes; frames/flushes is the mean batch depth.
	frames  atomic.Uint64
	flushes atomic.Uint64

	// Inbound rejections, by class.
	wireMismatches atomic.Uint64
	wireDecodeErrs atomic.Uint64

	// DialTimeout bounds each outbound connection attempt.
	DialTimeout time.Duration
}

// Algo returns the wire family this endpoint carries: registry.Core.
func (t *TCPTransport) Algo() string { return t.algo }

// WireErrors reports how many inbound frames and handshakes were
// rejected: mismatches (the peer speaks another wire family or version,
// or is not a wire peer at all) and decode failures (corrupted or unknown
// payloads, frames from a sender other than the connection's). Nonzero
// mismatches almost always mean something other than a peer node — a
// session client, a build of another wire version — dialed the peer
// port.
func (t *TCPTransport) WireErrors() (mismatches, decodeErrs uint64) {
	return t.wireMismatches.Load(), t.wireDecodeErrs.Load()
}

// WireBytes reports the bytes written to and read from peer connections;
// it implements the WireByteser interface used by NewCountingIn.
func (t *TCPTransport) WireBytes() (sent, received uint64) {
	return t.bytesOut.Load(), t.bytesIn.Load()
}

// CoalesceStats reports how many envelopes were encoded onto outbound
// connections and how many buffer flushes (write syscalls) carried them;
// frames/flushes is the mean number of envelopes per syscall.
func (t *TCPTransport) CoalesceStats() (frames, flushes uint64) {
	return t.frames.Load(), t.flushes.Load()
}

// countingWriter and countingReader tap a connection's byte flow into an
// atomic total.
type countingWriter struct {
	w io.Writer
	n *atomic.Uint64
}

func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n.Add(uint64(n))
	return n, err
}

type countingReader struct {
	r io.Reader
	n *atomic.Uint64
}

func (cr countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n.Add(uint64(n))
	return n, err
}

// outConn is one established outbound connection: the encoder writing
// into a buffered writer that senders flush themselves (see send). mu
// serializes encoder and buffer access between senders.
type outConn struct {
	c       net.Conn
	flushes *atomic.Uint64

	mu    sync.Mutex
	bw    *bufio.Writer
	enc   *wire.Encoder
	dirty bool
	dead  bool

	once sync.Once
}

// send encodes one frame into the connection's buffer and flushes it
// inline: the token handoff is a strictly serialized chain of single
// frames, and handing the syscall to another goroutine would add a
// park/unpark to every hop for coalescing that never happens. Dropping
// the lock between encode and flush keeps the batching that does happen
// under contention — a sender that arrives while another holds the flush
// finds dirty already cleared and skips its own.
func (oc *outConn) send(from dme.NodeID, msg dme.Message) error {
	oc.mu.Lock()
	if oc.dead {
		oc.mu.Unlock()
		return net.ErrClosed
	}
	err := oc.enc.Encode(int(from), msg)
	if err == nil {
		oc.dirty = true
	}
	oc.mu.Unlock()
	if err != nil {
		return err
	}
	oc.mu.Lock()
	if oc.dirty {
		oc.flushes.Add(1)
		err = oc.bw.Flush()
		oc.dirty = false
	}
	oc.mu.Unlock()
	return err
}

// closeFlushTimeout bounds the final drain in close: long enough for a
// healthy peer to take the last buffered envelopes, short enough that a
// stalled peer cannot wedge teardown.
const closeFlushTimeout = 250 * time.Millisecond

// close tears the connection down exactly once. It drains what is
// already buffered before closing: Close is not a
// promise of delivery, but losing an encoded envelope for want of one
// write would be gratuitous. The write deadline set first bounds both an
// in-flight flush (so the mutex is acquirable) and the final one.
func (oc *outConn) close() {
	oc.once.Do(func() {
		_ = oc.c.SetWriteDeadline(time.Now().Add(closeFlushTimeout))
		oc.mu.Lock()
		if oc.dirty {
			_ = oc.bw.Flush()
			oc.dirty = false
		}
		oc.dead = true
		oc.mu.Unlock()
		_ = oc.c.Close()
	})
}

var _ Transport = (*TCPTransport)(nil)

// NewTCP creates the endpoint for node self, listening on addrs[self],
// carrying the core arbiter protocol. Call SetHandler immediately
// afterwards, before peers start sending.
func NewTCP(self dme.NodeID, addrs map[dme.NodeID]string) (*TCPTransport, error) {
	return NewTCPOpt(self, addrs, TCPOptions{})
}

// NewTCPOpt is NewTCP with explicit options.
func NewTCPOpt(self dme.NodeID, addrs map[dme.NodeID]string, opts TCPOptions) (*TCPTransport, error) {
	name := opts.Algo
	if name == "" {
		name = registry.Core
	}
	algo, err := registry.RegisterWire(name)
	if err != nil {
		return nil, fmt.Errorf("tcp: %w", err)
	}
	switch opts.Codec {
	case "", "auto", "binary":
	default:
		return nil, fmt.Errorf("tcp: unknown codec %q: the binary frame is the only wire codec (gob is gone); leave TCPOptions.Codec unset", opts.Codec)
	}
	addr, ok := addrs[self]
	if !ok {
		return nil, fmt.Errorf("tcp: no address for self node %d", self)
	}
	dialTimeout := opts.DialTimeout
	if dialTimeout <= 0 {
		dialTimeout = 2 * time.Second
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcp: listen %s: %w", addr, err)
	}
	t := &TCPTransport{
		self:        self,
		algo:        algo,
		onErr:       opts.OnWireError,
		addrs:       addrs,
		ln:          ln,
		conns:       make(map[dme.NodeID]*outConn),
		inbound:     make(map[net.Conn]struct{}),
		quit:        make(chan struct{}),
		DialTimeout: dialTimeout,
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the listener's actual address (useful with ":0" ports).
func (t *TCPTransport) Addr() net.Addr { return t.ln.Addr() }

// SetPeers replaces the peer address map. Use it when nodes bind
// OS-assigned ports first and exchange real addresses afterwards; call it
// before the first Send to the affected peers.
func (t *TCPTransport) SetPeers(addrs map[dme.NodeID]string) {
	t.cmu.Lock()
	defer t.cmu.Unlock()
	merged := make(map[dme.NodeID]string, len(addrs))
	for id, a := range addrs {
		merged[id] = a
	}
	t.addrs = merged
}

// Self implements Transport.
func (t *TCPTransport) Self() dme.NodeID { return t.self }

// SetHandler implements Transport.
func (t *TCPTransport) SetHandler(h Handler) {
	t.hmu.Lock()
	defer t.hmu.Unlock()
	t.handler = h
}

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.quit:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		t.imu.Lock()
		t.inbound[conn] = struct{}{}
		t.imu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *TCPTransport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		t.imu.Lock()
		delete(t.inbound, conn)
		t.imu.Unlock()
		_ = conn.Close()
	}()
	br := bufio.NewReaderSize(countingReader{conn, &t.bytesIn}, 64<<10)
	// A dialer that connects and then says nothing, or something else
	// entirely, costs this goroutine the dial budget, not its life.
	_ = conn.SetDeadline(time.Now().Add(t.DialTimeout))
	peer, err := wire.ServerHandshake(br, countingWriter{conn, &t.bytesOut}, int(t.self), t.algo)
	if err != nil {
		select {
		case <-t.quit: // our own Close cut the handshake short
		default:
			t.wireMismatches.Add(1)
			t.reportWireError(fmt.Errorf("tcp: handshake from %s refused: %w", conn.RemoteAddr(), err))
		}
		return
	}
	_ = conn.SetDeadline(time.Time{})
	dec := wire.BinaryCodec().NewDecoder(br, t.algo)
	for {
		from, msg, err := dec.Decode()
		if err == nil && from != peer {
			// The handshake bound this connection to one node; a frame
			// claiming another sender is as undeliverable as a corrupt
			// one, and like a corrupt one it costs the frame, not the
			// connection.
			err = &wire.DecodeError{From: from, Algo: t.algo, Kind: msg.Kind(),
				Err: fmt.Errorf("sender %d on a connection that handshook as node %d", from, peer)}
		}
		if err != nil {
			var mm *wire.MismatchError
			var de *wire.DecodeError
			switch {
			case errors.As(err, &mm):
				// The peer speaks another wire family or format;
				// every frame on this connection will be rejected, so
				// count it, surface it, and drop the connection.
				t.wireMismatches.Add(1)
				t.reportWireError(err)
				return
			case errors.As(err, &de):
				// A single undeliverable frame: the stream is still
				// aligned on a frame boundary, so skip the message and
				// keep the connection.
				t.wireDecodeErrs.Add(1)
				t.reportWireError(err)
				continue
			default:
				// I/O failure or broken framing: position unknown,
				// connection dead.
				return
			}
		}
		t.hmu.RLock()
		h := t.handler
		t.hmu.RUnlock()
		if h != nil {
			// Invoked with no transport locks held: under the live
			// runtime's inline executor this call runs the protocol step —
			// possibly through to granting a Lock — on this read goroutine
			// (see Handler's reentrancy contract).
			h(dme.NodeID(from), msg)
		}
	}
}

func (t *TCPTransport) reportWireError(err error) {
	if t.onErr != nil {
		t.onErr(err)
	}
}

// Send implements Transport. Self-sends loop back synchronously through
// the handler; remote sends are encoded onto the peer's connection and
// flushed before Send returns.
func (t *TCPTransport) Send(to dme.NodeID, msg dme.Message) error {
	if to == t.self {
		t.hmu.RLock()
		h := t.handler
		t.hmu.RUnlock()
		if h != nil {
			h(t.self, msg)
		}
		return nil
	}
	oc, err := t.conn(to)
	if err != nil {
		return err
	}
	if err := oc.send(t.self, msg); err == nil {
		t.frames.Add(1)
		return nil
	}
	// The cached connection went bad: drop it and retry once on a fresh
	// connection; a second failure drops the message (best-effort).
	t.dropConn(to, oc)
	oc, err = t.conn(to)
	if err != nil {
		return err
	}
	if err := oc.send(t.self, msg); err != nil {
		t.dropConn(to, oc)
		return fmt.Errorf("tcp: send to node %d: %w", to, err)
	}
	t.frames.Add(1)
	return nil
}

func (t *TCPTransport) conn(to dme.NodeID) (*outConn, error) {
	t.cmu.Lock()
	defer t.cmu.Unlock()
	if oc, ok := t.conns[to]; ok {
		return oc, nil
	}
	addr, ok := t.addrs[to]
	if !ok {
		return nil, fmt.Errorf("tcp: no address for node %d", to)
	}
	c, err := net.DialTimeout("tcp", addr, t.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("tcp: dial node %d (%s): %w", to, addr, err)
	}
	// The handshake shares the dial budget; a peer that accepts but
	// never answers should fail the Send, not hang it.
	_ = c.SetDeadline(time.Now().Add(t.DialTimeout))
	peer, err := wire.ClientHandshake(struct {
		io.Reader
		io.Writer
	}{countingReader{c, &t.bytesIn}, countingWriter{c, &t.bytesOut}}, int(t.self), t.algo)
	if err == nil && peer != int(to) {
		err = fmt.Errorf("node %d answered (check -peers: the address listed for node %d belongs to node %d)", peer, to, peer)
	}
	if err != nil {
		_ = c.Close()
		var mm *wire.MismatchError
		if errors.As(err, &mm) {
			t.wireMismatches.Add(1)
			t.reportWireError(err)
		}
		return nil, fmt.Errorf("tcp: handshake with node %d (%s): %w", to, addr, err)
	}
	_ = c.SetDeadline(time.Time{})
	bw := bufio.NewWriterSize(countingWriter{c, &t.bytesOut}, 64<<10)
	oc := &outConn{
		c:       c,
		flushes: &t.flushes,
		bw:      bw,
		enc:     wire.BinaryCodec().NewEncoder(bw, t.algo),
	}
	t.conns[to] = oc
	return oc, nil
}

func (t *TCPTransport) dropConn(to dme.NodeID, oc *outConn) {
	t.cmu.Lock()
	if cur, ok := t.conns[to]; ok && cur == oc {
		delete(t.conns, to)
	}
	t.cmu.Unlock()
	oc.close()
}

// Close implements Transport.
func (t *TCPTransport) Close() error {
	var err error
	t.closed.Do(func() {
		close(t.quit)
		err = t.ln.Close()
		t.cmu.Lock()
		outs := make([]*outConn, 0, len(t.conns))
		for to, oc := range t.conns {
			outs = append(outs, oc)
			delete(t.conns, to)
		}
		t.cmu.Unlock()
		for _, oc := range outs {
			oc.close()
		}
		t.imu.Lock()
		for conn := range t.inbound {
			_ = conn.Close()
		}
		t.imu.Unlock()
		t.wg.Wait()
	})
	return err
}
