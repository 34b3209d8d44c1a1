package session

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"tokenarbiter/internal/wire"
)

// ErrClientClosed reports an operation on a closed or failed client.
var ErrClientClosed = errors.New("session: client closed")

// ErrSessionDead reports an operation on an expired or ended session.
var ErrSessionDead = errors.New("session: session expired")

// Options parameterizes a Client.
type Options struct {
	// Clock drives keepalive scheduling; nil means WallClock.
	Clock Clock
	// NoKeepAlive disables the automatic keepalive loop; the caller
	// renews (or deliberately lets leases lapse) itself. Lease
	// lifecycle tests use this to step expiry by hand.
	NoKeepAlive bool
	// EventBuffer is each session's watch-event buffer; events beyond
	// it are dropped (watches are level hints, not a reliable log).
	// 0 means 16.
	EventBuffer int
}

// Client is one connection to a session server, multiplexing any number
// of sessions over it. All methods are safe for concurrent use.
type Client struct {
	conn  net.Conn
	clock Clock
	opts  Options

	wmu sync.Mutex // serializes writes; enc writes each frame to conn
	enc *wire.Encoder
	dec *wire.Decoder

	mu       sync.Mutex
	err      error
	pending  map[uint64]chan reply
	sessions map[uint64]*Session
	nextSeq  uint64
	// replies are response channels ready for reuse. A channel returns
	// here only after its caller received the one response sent on it:
	// it is then empty and no longer in pending, so nothing else can
	// send on it. Abandoned calls (ctx gave up, session died) never
	// return theirs, since a late response may still land in it.
	replies []chan reply

	readerDone chan struct{}
}

// reply is a response as its caller reads it: the kind that answered,
// its code, and the numbers the kind carries. Reply channels carry it
// by value, so handing a response over allocates nothing.
type reply struct {
	kind    string
	code    Code
	session uint64 // OpenResp
	ttl     uint64 // OpenResp's TTLMillis
	fence   uint64 // AcquireResp
}

// check returns an error for a reply of another kind than want (a
// confused server), and else the reply's code as an error.
func (r reply) check(op, want string) error {
	if r.kind != want {
		return fmt.Errorf("session: %s got %s", op, r.kind)
	}
	return r.code.Err()
}

// Dial connects to a session server over TCP.
func Dial(addr string, opts Options) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c, err := NewClient(conn, opts)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	return c, nil
}

// NewClient runs the handshake over an existing connection and starts
// the client's reader. The client owns the connection from here on.
func NewClient(conn net.Conn, opts Options) (*Client, error) {
	dec, err := handshake(conn, false)
	if err != nil {
		return nil, err
	}
	if opts.Clock == nil {
		opts.Clock = WallClock{}
	}
	if opts.EventBuffer <= 0 {
		opts.EventBuffer = 16
	}
	c := &Client{
		conn:       conn,
		clock:      opts.Clock,
		opts:       opts,
		enc:        wire.BinaryCodec().NewEncoder(conn, Algo),
		dec:        dec,
		pending:    make(map[uint64]chan reply),
		sessions:   make(map[uint64]*Session),
		readerDone: make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

// Close tears the connection down. Sessions opened on it stop renewing
// and die server-side by TTL; call Session.End first for a clean Bye.
func (c *Client) Close() error {
	c.fail(ErrClientClosed)
	return nil
}

// Err returns the terminal connection error, or nil while healthy.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// fail makes err terminal: wakes every pending call, kills every
// session handle, and closes the connection.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = err
	pending := c.pending
	c.pending = map[uint64]chan reply{}
	sessions := make([]*Session, 0, len(c.sessions))
	for _, s := range c.sessions {
		sessions = append(sessions, s)
	}
	c.mu.Unlock()
	_ = c.conn.Close()
	for _, ch := range pending {
		close(ch)
	}
	for _, s := range sessions {
		s.markDead()
	}
}

// write frames one request onto the connection, by value.
func write[T wire.Frame](c *Client, msg T) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return wire.EncodeValue(c.enc, 0, msg)
}

// seq allocates a request sequence number and its response channel.
func (c *Client) seq() (uint64, chan reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, nil, c.err
	}
	c.nextSeq++
	var ch chan reply
	if n := len(c.replies); n > 0 {
		ch = c.replies[n-1]
		c.replies[n-1] = nil
		c.replies = c.replies[:n-1]
	} else {
		ch = make(chan reply, 1)
	}
	c.pending[c.nextSeq] = ch
	return c.nextSeq, ch, nil
}

// recycle returns a response channel its caller has received on.
func (c *Client) recycle(ch chan reply) {
	c.mu.Lock()
	c.replies = append(c.replies, ch)
	c.mu.Unlock()
}

// forget abandons a pending call (ctx gave up before the response).
func (c *Client) forget(seq uint64) {
	c.mu.Lock()
	delete(c.pending, seq)
	c.mu.Unlock()
}

// call performs one request/response exchange: build makes the request
// for the sequence number the call was given.
func call[T wire.Frame](ctx context.Context, c *Client, build func(seq uint64) T) (reply, error) {
	seq, ch, err := c.seq()
	if err != nil {
		return reply{}, err
	}
	if err := write(c, build(seq)); err != nil {
		c.forget(seq)
		c.fail(err)
		return reply{}, err
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			return reply{}, c.Err()
		}
		c.recycle(ch)
		return resp, nil
	case <-ctx.Done():
		c.forget(seq)
		return reply{}, ctx.Err()
	}
}

// readLoop dispatches inbound frames: responses to their pending call,
// pushes to their session.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	for {
		// The frame is borrowed from the decoder: everything kept from
		// it is copied out before the next read.
		_, msg, err := c.dec.DecodeBorrowed()
		if err != nil {
			var de *wire.DecodeError
			if errors.As(err, &de) {
				continue
			}
			c.fail(fmt.Errorf("session: connection lost: %w", err))
			return
		}
		switch m := msg.(type) {
		case *OpenResp:
			c.deliver(m.Seq, reply{kind: m.Kind(), code: m.Code, session: m.Session, ttl: m.TTLMillis})
		case *KeepAliveResp:
			c.deliver(m.Seq, reply{kind: m.Kind(), code: m.Code})
		case *AcquireResp:
			c.deliver(m.Seq, reply{kind: m.Kind(), code: m.Code, fence: m.Fence})
		case *ReleaseResp:
			c.deliver(m.Seq, reply{kind: m.Kind(), code: m.Code})
		case *WatchResp:
			c.deliver(m.Seq, reply{kind: m.Kind(), code: m.Code})
		case *ByeResp:
			c.deliver(m.Seq, reply{kind: m.Kind(), code: m.Code})
		case *WatchEvent:
			c.mu.Lock()
			s := c.sessions[m.Session]
			c.mu.Unlock()
			if s != nil {
				select {
				case s.events <- *m:
				default: // watcher not draining; drop
				}
			}
		case *SessionExpired:
			c.mu.Lock()
			s := c.sessions[m.Session]
			c.mu.Unlock()
			if s != nil {
				s.markDead()
			}
		}
	}
}

// deliver routes a response to its caller.
func (c *Client) deliver(seq uint64, r reply) {
	c.mu.Lock()
	ch := c.pending[seq]
	delete(c.pending, seq)
	c.mu.Unlock()
	if ch != nil {
		ch <- r
	}
}

// Session is a client-side lease handle.
type Session struct {
	c   *Client
	id  uint64
	ttl time.Duration

	events chan WatchEvent
	done   chan struct{}

	deadOnce sync.Once

	kmu     sync.Mutex
	katimer ClockTimer
}

// Open creates a session with the given lease TTL (0 asks for the
// server default). Unless Options.NoKeepAlive is set, the client renews
// the lease automatically at a jittered fraction of the TTL until the
// session ends.
func (c *Client) Open(ctx context.Context, ttl time.Duration) (*Session, error) {
	resp, err := call(ctx, c, func(seq uint64) OpenReq {
		return OpenReq{Seq: seq, TTLMillis: uint64(ttl / time.Millisecond)}
	})
	if err != nil {
		return nil, err
	}
	if err := resp.check("open", (OpenResp{}).Kind()); err != nil {
		return nil, err
	}
	s := &Session{
		c:      c,
		id:     resp.session,
		ttl:    time.Duration(resp.ttl) * time.Millisecond,
		events: make(chan WatchEvent, c.opts.EventBuffer),
		done:   make(chan struct{}),
	}
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return nil, c.Err()
	}
	c.sessions[s.id] = s
	c.mu.Unlock()
	if !c.opts.NoKeepAlive {
		s.armKeepAlive()
	}
	return s, nil
}

// ID returns the server-assigned session id.
func (s *Session) ID() uint64 { return s.id }

// TTL returns the granted lease TTL.
func (s *Session) TTL() time.Duration { return s.ttl }

// Done is closed when the session ends — lease expiry, server
// shutdown, End, or connection loss.
func (s *Session) Done() <-chan struct{} { return s.done }

// Expired reports whether the session has ended.
func (s *Session) Expired() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// Events delivers this session's watch events. Undrained events beyond
// the buffer are dropped.
func (s *Session) Events() <-chan WatchEvent { return s.events }

// markDead ends the session handle.
func (s *Session) markDead() {
	s.deadOnce.Do(func() {
		s.kmu.Lock()
		if s.katimer != nil {
			s.katimer.Stop()
		}
		s.kmu.Unlock()
		s.c.mu.Lock()
		delete(s.c.sessions, s.id)
		s.c.mu.Unlock()
		close(s.done)
	})
}

// keepAliveInterval is the session's renewal period: a deterministic
// per-session point in [TTL/4, TTL/2), jittered by session id so a
// cohort of sessions opened together does not renew in lockstep.
func (s *Session) keepAliveInterval() time.Duration {
	quarter := s.ttl / 4
	if quarter <= 0 {
		quarter = time.Millisecond
	}
	frac := splitmix64(s.id) % 1024
	return quarter + quarter*time.Duration(frac)/1024
}

// splitmix64 is the SplitMix64 mixer — a cheap, well-distributed hash
// for deriving per-session jitter from the id.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// armKeepAlive schedules the next renewal.
func (s *Session) armKeepAlive() {
	s.kmu.Lock()
	defer s.kmu.Unlock()
	if s.Expired() {
		return
	}
	s.katimer = s.c.clock.AfterFunc(s.keepAliveInterval(), s.keepAliveTick)
}

// keepAliveTick renews the lease and re-arms. The round trip runs
// inside the timer callback, so under a FakeClock each Advance
// serializes renewal against lease expiry deterministically.
func (s *Session) keepAliveTick() {
	if s.Expired() {
		return
	}
	resp, err := call(context.Background(), s.c, func(seq uint64) KeepAliveReq {
		return KeepAliveReq{Seq: seq, Session: s.id}
	})
	if err != nil || resp.check("keepalive", (KeepAliveResp{}).Kind()) != nil {
		s.markDead()
		return
	}
	s.armKeepAlive()
}

// KeepAlive renews the lease once, explicitly. Callers running with
// NoKeepAlive use it to control renewal from a test clock.
func (s *Session) KeepAlive(ctx context.Context) error {
	if s.Expired() {
		return ErrSessionDead
	}
	resp, err := call(ctx, s.c, func(seq uint64) KeepAliveReq {
		return KeepAliveReq{Seq: seq, Session: s.id}
	})
	if err != nil {
		return err
	}
	if resp.kind == (KeepAliveResp{}).Kind() && resp.code != CodeOK {
		s.markDead()
	}
	return resp.check("keepalive", (KeepAliveResp{}).Kind())
}

// Acquire takes the named lock, waiting in the server's FIFO queue as
// long as ctx (and the optional server-side wait bound — see
// AcquireWait) allows, and returns the grant's fencing token. If ctx
// gives up while the request is queued, a grant that was already in
// flight is released automatically.
func (s *Session) Acquire(ctx context.Context, key string) (uint64, error) {
	return s.acquire(ctx, key, 0)
}

// AcquireWait is Acquire with a server-side bound on queue time: past
// it the server answers CodeTimeout. The bound is evaluated on the
// server's clock, so it composes with a FakeClock in tests.
func (s *Session) AcquireWait(ctx context.Context, key string, wait time.Duration) (uint64, error) {
	return s.acquire(ctx, key, wait)
}

func (s *Session) acquire(ctx context.Context, key string, wait time.Duration) (uint64, error) {
	if s.Expired() {
		return 0, ErrSessionDead
	}
	seq, ch, err := s.c.seq()
	if err != nil {
		return 0, err
	}
	req := AcquireReq{Seq: seq, Session: s.id, Key: key,
		WaitMillis: uint64(wait / time.Millisecond)}
	if err := write(s.c, req); err != nil {
		s.c.forget(seq)
		s.c.fail(err)
		return 0, err
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			return 0, s.c.Err()
		}
		s.c.recycle(ch)
		if err := resp.check("acquire", (AcquireResp{}).Kind()); err != nil {
			return 0, err
		}
		return resp.fence, nil
	case <-ctx.Done():
		// Stay registered for the response: if the grant already won
		// the race it must be released, not leaked until lease expiry.
		// The channel stays with this goroutine and is never recycled.
		go func() {
			resp, ok := <-ch
			if !ok {
				return
			}
			if resp.check("acquire", (AcquireResp{}).Kind()) == nil {
				_ = s.Release(key)
			}
		}()
		return 0, ctx.Err()
	case <-s.done:
		s.c.forget(seq)
		return 0, ErrSessionDead
	}
}

// Release gives the named lock back.
func (s *Session) Release(key string) error {
	resp, err := call(context.Background(), s.c, func(seq uint64) ReleaseReq {
		return ReleaseReq{Seq: seq, Session: s.id, Key: key}
	})
	if err != nil {
		return err
	}
	return resp.check("release", (ReleaseResp{}).Kind())
}

// Watch subscribes the session to the key: each grant ending on it
// (release or expiry) arrives on Events until Unwatch or session end.
func (s *Session) Watch(ctx context.Context, key string) error {
	return s.watchOp(ctx, key, true)
}

// Unwatch drops the session's watch on the key.
func (s *Session) Unwatch(ctx context.Context, key string) error {
	return s.watchOp(ctx, key, false)
}

func (s *Session) watchOp(ctx context.Context, key string, watch bool) error {
	if s.Expired() {
		return ErrSessionDead
	}
	var resp reply
	var err error
	if watch {
		resp, err = call(ctx, s.c, func(seq uint64) WatchReq {
			return WatchReq{Seq: seq, Session: s.id, Key: key}
		})
	} else {
		resp, err = call(ctx, s.c, func(seq uint64) UnwatchReq {
			return UnwatchReq{Seq: seq, Session: s.id, Key: key}
		})
	}
	if err != nil {
		return err
	}
	return resp.check("watch", (WatchResp{}).Kind())
}

// End closes the session cleanly: held locks are released, queued
// acquires canceled, watches dropped. The handle is dead afterwards.
func (s *Session) End(ctx context.Context) error {
	if s.Expired() {
		return nil
	}
	resp, err := call(ctx, s.c, func(seq uint64) ByeReq {
		return ByeReq{Seq: seq, Session: s.id}
	})
	s.markDead()
	if err != nil {
		return err
	}
	if resp.kind == (ByeResp{}).Kind() && resp.code != CodeUnknownSession {
		return resp.code.Err()
	}
	return nil
}
