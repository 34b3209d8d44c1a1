package session

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"sync"
	"time"

	"tokenarbiter/internal/live"
	"tokenarbiter/internal/telemetry"
	"tokenarbiter/internal/wire"
)

// Backend is the per-key lock provider the session server multiplexes
// its clients onto — *live.Manager in production, a scripted fake in
// service-layer tests. Every key sees at most grantSlots (D = 4)
// outstanding requests and one holder from one server at a time:
// LockFence must be safe to call concurrently for one key, each call
// that returns a grant is paired with exactly one Unlock (or one
// Invalidate) before the key's next grant is used, and a grant whose
// waiter gave up meanwhile is unlocked at once. A backend that also has
// *live.Manager's LockFunc (grantCaller) is sent its requests there
// instead, and parks no goroutine per request. However many clients
// pile up behind it, the server therefore occupies at most D entries of
// a Q-list batch. The fairness consequence: requests are served in
// arrival order at the arbiter, so ordering is FIFO per client on one
// server and a busy server gets up to D turns per batch where an idle
// peer's lone client gets one — per-client, not per-node, fairness.
type Backend interface {
	// LockFence blocks until the key's lock is granted and returns its
	// fencing token.
	LockFence(ctx context.Context, key string) (uint64, error)
	// Unlock releases the key's lock; the caller must hold it.
	Unlock(key string)
}

// grantCaller is the optional Backend extension that takes a request
// and hands its grant to a callback (live.Manager.LockFunc), instead of
// blocking a LockFence call until the grant.
type grantCaller interface {
	LockFunc(key string, grant live.GrantFunc)
}

// keyRestarter is the optional Backend extension that lets lease expiry
// invalidate an expired holder's fence through the protocol:
// *live.Manager's RestartKey crash-restarts the key's local DME
// participant, so the rest of the group detects the lost token and runs
// the §6 invalidation/regeneration path — the expired fence dies
// cluster-wide, exactly as a real holder crash would.
type keyRestarter interface {
	RestartKey(key string) (*live.Node, error)
}

// Lease TTL defaults; Config can override each.
const (
	DefaultMinTTL     = 500 * time.Millisecond
	DefaultTTL        = 10 * time.Second
	DefaultMaxTTL     = 5 * time.Minute
	DefaultWriteQueue = 256
)

// Config parameterizes a session Server.
type Config struct {
	// Backend is the lock provider; required.
	Backend Backend
	// Clock is the lease/wait time source; nil means WallClock.
	Clock Clock
	// Metrics receives the session metrics; nil builds a private
	// registry (exposed by Handler's /metrics either way).
	Metrics *telemetry.Registry
	// Logger, when non-nil, receives session lifecycle logs.
	Logger *slog.Logger
	// MaxSessions is the admission-control bound on concurrent
	// sessions; opens beyond it are refused with CodeOverloaded.
	// 0 means unlimited.
	MaxSessions int
	// MaxWaitersPerKey bounds one key's wait queue; acquires beyond it
	// are refused with CodeOverloaded. 0 means unlimited.
	MaxWaitersPerKey int
	// MinTTL, DefaultTTL, and MaxTTL clamp requested lease TTLs
	// (zero-value fields take the package defaults). An OpenReq with
	// TTLMillis 0 gets DefaultTTL.
	MinTTL, DefaultTTL, MaxTTL time.Duration
	// WriteQueue bounds the frames queued for one connection while its
	// writer is busy with the previous write. A connection that lets
	// it fill — a consumer slower than its responses and watch events
	// — is disconnected (backpressure by eviction, not by blocking the
	// server). 0 means DefaultWriteQueue.
	WriteQueue int
	// Invalidate overrides how an expired holder's key is invalidated.
	// Nil uses the Backend's RestartKey when it has one (the §6 path:
	// crash the key's local participant so the group invalidates the
	// fence and regenerates the token), else falls back to a plain
	// Unlock — correct for algorithms without a recovery protocol, but
	// only locally: the fence is not invalidated cluster-wide.
	Invalidate func(key string) error
}

// Server fronts one live node with the session protocol: it owns the
// session table (TTL leases), the per-key wait queues and their
// outstanding requests, the watch registrations, and the connections.
// All methods are safe for concurrent use.
type Server struct {
	cfg        Config
	clock      Clock
	reg        *telemetry.Registry
	logger     *slog.Logger
	invalidate func(key string) error
	// lockFunc is the Backend's LockFunc, when it has one (grantCaller);
	// nil sends each request through a LockFence goroutine.
	lockFunc func(key string, grant live.GrantFunc)

	ctx    context.Context // cancels outstanding LockFence calls on Close
	cancel context.CancelFunc

	mu        sync.Mutex
	closed    bool
	sessions  map[uint64]*sessionState
	keys      map[string]*keyQueue
	conns     map[*srvConn]struct{}
	listeners map[net.Listener]struct{}
	nextID    uint64
	spare     []*waiter // recycled waiters (see recycleLocked)

	wg sync.WaitGroup

	m serverMetrics
}

type serverMetrics struct {
	opens         *telemetry.Counter
	expiries      *telemetry.Counter
	byes          *telemetry.Counter
	renewals      *telemetry.Counter
	rejects       *telemetry.Counter
	acquires      *telemetry.Counter
	grants        *telemetry.Counter
	releases      *telemetry.Counter
	waitTimeouts  *telemetry.Counter
	watchEvents   *telemetry.Counter
	invalidations *telemetry.Counter
	lostGrants    *telemetry.Counter
	slowCloses    *telemetry.Counter
	writes        *telemetry.Counter
	framesWritten *telemetry.Counter
	hsRejects     *telemetry.Counter
	active        *telemetry.Gauge
	waiters       *telemetry.Gauge
	connsActive   *telemetry.Gauge
	acquireWait   *telemetry.Histogram
}

// sessionState is one lease: identity, deadline, what it holds, and
// where its pushes go. Guarded by Server.mu.
type sessionState struct {
	id       uint64
	ttl      time.Duration
	deadline time.Time
	timer    ClockTimer
	conn     *srvConn
	held     map[string]uint64 // key → fence, exactly while s.keys[key].holder is this session
	waiting  map[*waiter]struct{}
	watches  map[string]struct{}
}

// NewServer builds a Server. It does not listen; pair it with Serve
// and/or ServeConn.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, errors.New("session: config needs a Backend")
	}
	Register()
	clock := cfg.Clock
	if clock == nil {
		clock = WallClock{}
	}
	if cfg.MinTTL <= 0 {
		cfg.MinTTL = DefaultMinTTL
	}
	if cfg.DefaultTTL <= 0 {
		cfg.DefaultTTL = DefaultTTL
	}
	if cfg.MaxTTL <= 0 {
		cfg.MaxTTL = DefaultMaxTTL
	}
	if cfg.WriteQueue <= 0 {
		cfg.WriteQueue = DefaultWriteQueue
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		clock:      clock,
		reg:        reg,
		logger:     cfg.Logger,
		invalidate: cfg.Invalidate,
		ctx:        ctx,
		cancel:     cancel,
		sessions:   make(map[uint64]*sessionState),
		keys:       make(map[string]*keyQueue),
		conns:      make(map[*srvConn]struct{}),
		listeners:  make(map[net.Listener]struct{}),
		m: serverMetrics{
			opens: reg.Counter("session_opens_total",
				"sessions opened"),
			expiries: reg.Counter("session_expiries_total",
				"sessions reaped by lease expiry"),
			byes: reg.Counter("session_byes_total",
				"sessions ended cleanly by the client"),
			renewals: reg.Counter("session_renewals_total",
				"keepalives that renewed a lease"),
			rejects: reg.Counter("session_rejects_total",
				"opens and acquires refused by admission control (CodeOverloaded)"),
			acquires: reg.Counter("session_acquires_total",
				"acquire requests accepted into a wait queue"),
			grants: reg.Counter("session_grants_total",
				"acquires granted"),
			releases: reg.Counter("session_releases_total",
				"locks released by their session"),
			waitTimeouts: reg.Counter("session_wait_timeouts_total",
				"queued acquires that hit their wait bound (CodeTimeout)"),
			watchEvents: reg.Counter("session_watch_events_total",
				"watch events pushed to watchers"),
			invalidations: reg.Counter("session_expiry_invalidations_total",
				"expired holders whose key was crash-restarted into §6 recovery"),
			lostGrants: reg.Counter("session_lost_grants_total",
				"releases of grants the backend no longer recognized (key restarted under the holder)"),
			slowCloses: reg.Counter("session_slow_consumer_closes_total",
				"connections dropped because their write queue overflowed"),
			writes: reg.Counter("session_writes_total",
				"writes to session connections; each carries every frame queued since the last"),
			framesWritten: reg.Counter("session_frames_written_total",
				"frames written to session connections (÷ session_writes_total = frames per write)"),
			hsRejects: reg.Counter("session_handshake_rejects_total",
				"connections refused at the wire handshake (not a session client, or one of another format version)"),
			active: reg.Gauge("sessions_active",
				"sessions currently leased"),
			waiters: reg.Gauge("session_queue_waiters",
				"acquires currently queued across all keys"),
			connsActive: reg.Gauge("session_conns_active",
				"session protocol connections currently open"),
			acquireWait: reg.Histogram("session_acquire_wait_seconds",
				"accepted acquire to grant, including queue time",
				telemetry.DefLatencyBuckets),
		},
	}
	if g, ok := cfg.Backend.(grantCaller); ok {
		s.lockFunc = g.LockFunc
	}
	if s.invalidate == nil {
		if r, ok := cfg.Backend.(keyRestarter); ok {
			s.invalidate = func(key string) error {
				_, err := r.RestartKey(key)
				return err
			}
		}
	}
	return s, nil
}

// Metrics returns the server's telemetry registry.
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

// clampTTL applies the configured lease bounds.
func (s *Server) clampTTL(req time.Duration) time.Duration {
	switch {
	case req <= 0:
		return s.cfg.DefaultTTL
	case req < s.cfg.MinTTL:
		return s.cfg.MinTTL
	case req > s.cfg.MaxTTL:
		return s.cfg.MaxTTL
	}
	return req
}

// Serve accepts session connections on ln until the listener or the
// server closes. It always returns a non-nil error; after Close it
// returns ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ln.Close()
		return ErrServerClosed
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.listeners, ln)
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.ServeConn(conn)
	}
}

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("session: server closed")

// ServeConn adopts one connection: it runs the handshake and starts the
// connection's reader and writer goroutines, returning immediately. The
// connection is closed when the server closes, when its peer hangs up,
// or when its write queue overflows. Sessions opened on it outlive it —
// only the lease TTL ends a session whose connection died.
func (s *Server) ServeConn(conn net.Conn) {
	c := &srvConn{
		s:    s,
		conn: conn,
		kick: make(chan struct{}, 1),
		quit: make(chan struct{}),
	}
	c.enc = wire.BinaryCodec().NewEncoder(&c.out, Algo)
	// The connection is tracked before it has said anything, so Close
	// reaches a dialer that never completes the handshake.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = conn.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.m.connsActive.Add(1)
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		dec, err := handshake(conn, true)
		if err != nil {
			s.m.hsRejects.Inc()
			s.logf("handshake refused", "remote", conn.RemoteAddr(), "err", err)
			c.close()
			s.dropConn(c)
			return
		}
		c.dec = dec
		s.wg.Add(1) // the writer; the reader runs on this goroutine
		go c.writeLoop()
		c.readLoop()
	}()
}

// dropConn unregisters a connection after its loops exit.
func (s *Server) dropConn(c *srvConn) {
	s.mu.Lock()
	if _, ok := s.conns[c]; ok {
		delete(s.conns, c)
		s.m.connsActive.Add(-1)
	}
	s.mu.Unlock()
}

// Close shuts the server down: listeners stop accepting, queued
// acquires are answered CodeShuttingDown, held grants are taken from
// their holders and unlocked (watchers hear nothing), blocked LockFence
// calls are cancelled, lease timers stop, and every connection is
// closed. A request still outstanding in the backend is left there: its
// grant, when it lands, finds no waiter and is declined, so the backend
// releases it at once. The Backend is not closed — its owner does that,
// afterwards.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for _, sess := range s.sessions {
		if sess.timer != nil {
			sess.timer.Stop()
		}
	}
	var held []string
	for key, kq := range s.keys {
		s.failQueueLocked(kq)
		if kq.holder != nil {
			s.takeGrantLocked(kq)
			held = append(held, key)
		}
	}
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	listeners := make([]net.Listener, 0, len(s.listeners))
	for ln := range s.listeners {
		listeners = append(listeners, ln)
	}
	s.mu.Unlock()

	s.cancel()
	for _, key := range held {
		s.unlock(key)
	}
	for _, ln := range listeners {
		_ = ln.Close()
	}
	for _, c := range conns {
		c.close()
	}
	s.wg.Wait()
	return nil
}

// logf logs through the configured logger, if any.
func (s *Server) logf(msg string, args ...any) {
	if s.logger != nil {
		s.logger.Info(msg, args...)
	}
}

// --- request handlers (called from connection reader goroutines) ---

func (s *Server) handleOpen(c *srvConn, m OpenReq) {
	ttl := s.clampTTL(time.Duration(m.TTLMillis) * time.Millisecond)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		send(c, OpenResp{Seq: m.Seq, Code: CodeShuttingDown})
		return
	}
	if s.cfg.MaxSessions > 0 && len(s.sessions) >= s.cfg.MaxSessions {
		s.m.rejects.Inc()
		s.mu.Unlock()
		send(c, OpenResp{Seq: m.Seq, Code: CodeOverloaded})
		return
	}
	s.nextID++
	id := s.nextID
	sess := &sessionState{
		id:       id,
		ttl:      ttl,
		deadline: s.clock.Now().Add(ttl),
		conn:     c,
		held:     make(map[string]uint64),
		waiting:  make(map[*waiter]struct{}),
		watches:  make(map[string]struct{}),
	}
	s.sessions[id] = sess
	sess.timer = s.clock.AfterFunc(ttl, func() { s.leaseTimer(id) })
	s.m.opens.Inc()
	s.m.active.Add(1)
	s.mu.Unlock()
	send(c, OpenResp{Seq: m.Seq, Code: CodeOK, Session: id, TTLMillis: uint64(ttl / time.Millisecond)})
}

func (s *Server) handleKeepAlive(c *srvConn, m KeepAliveReq) {
	s.mu.Lock()
	sess, ok := s.sessions[m.Session]
	if !ok {
		s.mu.Unlock()
		send(c, KeepAliveResp{Seq: m.Seq, Code: CodeUnknownSession})
		return
	}
	sess.deadline = s.clock.Now().Add(sess.ttl)
	s.m.renewals.Inc()
	s.mu.Unlock()
	send(c, KeepAliveResp{Seq: m.Seq, Code: CodeOK})
}

// leaseTimer fires at (or after) a session's deadline. A keepalive may
// have pushed the deadline out since the timer was armed; in that case
// the timer re-arms for the remainder instead of expiring — the
// deadline is the source of truth, the timer just a wakeup.
func (s *Server) leaseTimer(id uint64) {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if !ok {
		s.mu.Unlock()
		return
	}
	now := s.clock.Now()
	if now.Before(sess.deadline) {
		sess.timer = s.clock.AfterFunc(sess.deadline.Sub(now), func() { s.leaseTimer(id) })
		s.mu.Unlock()
		return
	}
	s.m.expiries.Inc()
	after := s.endSessionLocked(sess, true)
	s.mu.Unlock()
	after()
}

func (s *Server) handleBye(c *srvConn, m ByeReq) {
	s.mu.Lock()
	sess, ok := s.sessions[m.Session]
	if !ok {
		s.mu.Unlock()
		send(c, ByeResp{Seq: m.Seq, Code: CodeUnknownSession})
		return
	}
	s.m.byes.Inc()
	after := s.endSessionLocked(sess, false)
	s.mu.Unlock()
	after()
	send(c, ByeResp{Seq: m.Seq, Code: CodeOK})
}

// endSessionLocked removes a session and detaches everything it owns,
// returning the actions to run after the server lock is released. An
// expired session is a lease death — held locks are invalidated through
// the §6 path and the client is pushed a SessionExpired — otherwise it
// is a clean Bye that releases held locks normally and pushes nothing.
// Queued acquires are answered CodeExpired either way.
func (s *Server) endSessionLocked(sess *sessionState, expired bool) func() {
	delete(s.sessions, sess.id)
	s.m.active.Add(-1)
	if sess.timer != nil {
		sess.timer.Stop()
	}
	type resp struct {
		c *srvConn
		m AcquireResp
	}
	var resps []resp
	for w := range sess.waiting {
		if s.dequeueLocked(w) {
			resps = append(resps, resp{w.conn, AcquireResp{Seq: w.seq, Code: CodeExpired}})
		}
	}
	type grant struct {
		kq    *keyQueue
		fence uint64
	}
	var ends []grant
	for key := range sess.held {
		kq := s.keys[key]
		ends = append(ends, grant{kq, s.takeGrantLocked(kq)})
	}
	for key := range sess.watches {
		if kq := s.keys[key]; kq != nil {
			delete(kq.watchers, sess.id)
		}
	}
	conn := sess.conn
	id := sess.id
	return func() {
		for _, r := range resps {
			send(r.c, r.m)
		}
		for _, g := range ends {
			s.endGrant(g.kq, g.fence, expired)
		}
		if expired {
			send(conn, SessionExpired{Session: id, Code: CodeExpired})
		}
	}
}

func (s *Server) handleRelease(c *srvConn, m ReleaseReq) {
	s.mu.Lock()
	sess, ok := s.sessions[m.Session]
	if !ok {
		s.mu.Unlock()
		send(c, ReleaseResp{Seq: m.Seq, Code: CodeUnknownSession})
		return
	}
	if _, held := sess.held[m.Key]; !held {
		s.mu.Unlock()
		send(c, ReleaseResp{Seq: m.Seq, Code: CodeNotHeld})
		return
	}
	kq := s.keys[m.Key]
	fence := s.takeGrantLocked(kq)
	s.m.releases.Inc()
	s.mu.Unlock()
	send(c, ReleaseResp{Seq: m.Seq, Code: CodeOK})
	s.endGrant(kq, fence, false)
}

func (s *Server) handleWatch(c *srvConn, m WatchReq) {
	s.mu.Lock()
	sess, ok := s.sessions[m.Session]
	if !ok {
		s.mu.Unlock()
		send(c, WatchResp{Seq: m.Seq, Code: CodeUnknownSession})
		return
	}
	kq := s.keyQueueLocked(m.Key)
	kq.watchers[sess.id] = c
	sess.watches[m.Key] = struct{}{}
	s.mu.Unlock()
	send(c, WatchResp{Seq: m.Seq, Code: CodeOK})
}

func (s *Server) handleUnwatch(c *srvConn, m UnwatchReq) {
	s.mu.Lock()
	sess, ok := s.sessions[m.Session]
	if !ok {
		s.mu.Unlock()
		send(c, WatchResp{Seq: m.Seq, Code: CodeUnknownSession})
		return
	}
	if kq := s.keys[m.Key]; kq != nil {
		delete(kq.watchers, sess.id)
	}
	delete(sess.watches, m.Key)
	s.mu.Unlock()
	send(c, WatchResp{Seq: m.Seq, Code: CodeOK})
}
