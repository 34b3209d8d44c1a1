package session

import (
	"errors"
	"net"
	"sync"
	"time"

	"tokenarbiter/internal/wire"
)

// Per-key wait queues and their grant slots. A key's waiters sit in one
// FIFO; the lock is fetched for them by up to grantSlots goroutines,
// each looping: block in Backend.LockFence, and when it returns pop the
// *current* head of the FIFO — the waiter is bound at grant time, so
// grant order is exactly queue order whatever order the slots ran in —
// hand it the grant, and go back for another or retire. A held grant
// occupies no slot: the grant is owned by kq.holder, and whoever takes
// it from the holder under Server.mu ends it (endGrant) on its own
// goroutine — Release and Bye unlock it, lease expiry crash-restarts the
// key's local participant so the fence dies through §6 recovery (see
// Config.Invalidate), a superseding grant finds the lock already gone,
// and Close unlocks it.
//
// Several slots exist so that several of this server's clients can have
// requests in the DME group at once: requests that are outstanding
// while the arbiter's collection window is open are stamped into one
// Q-list and share one window and one NEW-ARBITER broadcast, which is
// where the protocol's economy is. One request at a time — the pump
// this replaces — meant two clients of one node could never share a
// batch. A slot is started when queued waiters exceed the slots already
// requesting, and goes back for another grant only while that still
// holds, so the backend never sees more requests than there are waiters
// to use them (a waiter that gives up while its request is in flight
// leaves a grant nobody wants, which is unlocked at once). The lock
// itself serializes holders, so a key still has one holder at a time.

// grantSlots is D, the bound on one key's outstanding Backend.LockFence
// calls. Four lets a node's clients fill a batch without letting one
// node's backlog crowd the Q-list: a node occupies at most D entries of
// a batch, and across nodes requests are served in arrival order at the
// arbiter — so fairness is FIFO per client, not per node.
const grantSlots = 4

// waiter is one queued acquire. Granted waiters are recycled through
// Server.spare (see recycleLocked).
type waiter struct {
	sess       *sessionState
	conn       *srvConn
	kq         *keyQueue
	seq        uint64
	queued     bool       // in the queue, cancelable; guarded by Server.mu
	timer      ClockTimer // wait bound, when the acquire set one
	enqueuedAt time.Time
}

// keyQueue is one key's waiters, grant slots, holder, and watchers.
// Guarded by Server.mu.
type keyQueue struct {
	key         string
	q           []*waiter // FIFO from q[head]; canceled waiters stay until popped
	head        int       // index of the FIFO's first entry in q
	live        int       // waiters in q still queued
	requesting  int       // slot goroutines in (or headed into) LockFence, at most grantSlots
	holder      *sessionState
	holderFence uint64
	watchers    map[uint64]*srvConn // watching session id → its conn
	// run starts one grant slot on this key; bound once, so starting a
	// slot allocates no closure.
	run func()
}

// keyQueueLocked returns (creating if needed) the key's queue; the
// caller holds Server.mu.
func (s *Server) keyQueueLocked(key string) *keyQueue {
	kq := s.keys[key]
	if kq == nil {
		kq = &keyQueue{key: key, watchers: make(map[uint64]*srvConn)}
		kq.run = func() { s.slot(kq) }
		s.keys[key] = kq
	}
	return kq
}

func (s *Server) handleAcquire(c *srvConn, m AcquireReq) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		send(c, AcquireResp{Seq: m.Seq, Code: CodeShuttingDown})
		return
	}
	sess, ok := s.sessions[m.Session]
	if !ok {
		s.mu.Unlock()
		send(c, AcquireResp{Seq: m.Seq, Code: CodeUnknownSession})
		return
	}
	if m.Key == "" {
		s.mu.Unlock()
		send(c, AcquireResp{Seq: m.Seq, Code: CodeBadRequest})
		return
	}
	if _, already := sess.held[m.Key]; already {
		// One lock per (session, key); a re-acquire while holding is a
		// client bug, not a queueing request.
		s.mu.Unlock()
		send(c, AcquireResp{Seq: m.Seq, Code: CodeBadRequest})
		return
	}
	kq := s.keyQueueLocked(m.Key)
	if s.cfg.MaxWaitersPerKey > 0 && kq.live >= s.cfg.MaxWaitersPerKey {
		s.m.rejects.Inc()
		s.mu.Unlock()
		send(c, AcquireResp{Seq: m.Seq, Code: CodeOverloaded})
		return
	}
	w := s.newWaiterLocked()
	*w = waiter{
		sess:       sess,
		conn:       c,
		kq:         kq,
		seq:        m.Seq,
		queued:     true,
		enqueuedAt: s.clock.Now(),
	}
	kq.push(w)
	kq.live++
	sess.waiting[w] = struct{}{}
	s.m.acquires.Inc()
	s.m.waiters.Add(1)
	if m.WaitMillis > 0 {
		d := time.Duration(m.WaitMillis) * time.Millisecond
		w.timer = s.clock.AfterFunc(d, func() { s.waiterTimeout(w) })
	}
	if kq.requesting < grantSlots && kq.live > kq.requesting {
		kq.requesting++
		s.wg.Add(1)
		go kq.run()
	}
	s.mu.Unlock()
}

// newWaiterLocked returns a recycled waiter, or a new one. Caller holds
// mu.
func (s *Server) newWaiterLocked() *waiter {
	if n := len(s.spare); n > 0 {
		w := s.spare[n-1]
		s.spare[n-1] = nil
		s.spare = s.spare[:n-1]
		return w
	}
	return &waiter{}
}

// recycleLocked returns a granted waiter for reuse. Only a waiter that
// nothing else can still reach qualifies: one that left the queue, the
// session's waiting set and kq.q, with no wait-bound callback that
// could still fire on it (its timer never armed, or stopped before it
// ran). Caller holds mu and reads nothing of w afterwards.
func (s *Server) recycleLocked(w *waiter) {
	if w.timer != nil {
		return
	}
	*w = waiter{}
	s.spare = append(s.spare, w)
}

// push appends w to the FIFO, reusing the slice's dead prefix once the
// backing array is full.
func (kq *keyQueue) push(w *waiter) {
	if kq.head > 0 && len(kq.q) == cap(kq.q) {
		n := copy(kq.q, kq.q[kq.head:])
		clear(kq.q[n:])
		kq.q = kq.q[:n]
		kq.head = 0
	}
	kq.q = append(kq.q, w)
}

// pop removes and returns the FIFO's first entry, or nil when it is
// empty. A drained queue rewinds to the start of its backing array, so
// the next push does not reallocate.
func (kq *keyQueue) pop() *waiter {
	if kq.head == len(kq.q) {
		return nil
	}
	w := kq.q[kq.head]
	kq.q[kq.head] = nil
	kq.head++
	if kq.head == len(kq.q) {
		kq.reset()
	}
	return w
}

// reset empties the FIFO, keeping its backing array.
func (kq *keyQueue) reset() {
	clear(kq.q)
	kq.q = kq.q[:0]
	kq.head = 0
}

// dequeueLocked takes w out of contention — answered by the caller, or
// about to be granted — reporting false if something else already did.
// The entry itself stays in kq.q until a slot pops past it. A wait-bound
// timer stopped before it fired is dropped, which is what lets
// recycleLocked reuse w. Caller holds mu.
func (s *Server) dequeueLocked(w *waiter) bool {
	if !w.queued {
		return false
	}
	w.queued = false
	if w.timer != nil && w.timer.Stop() {
		w.timer = nil
	}
	delete(w.sess.waiting, w)
	w.kq.live--
	s.m.waiters.Add(-1)
	return true
}

// waiterTimeout fires a queued acquire's wait bound.
func (s *Server) waiterTimeout(w *waiter) {
	s.mu.Lock()
	ok := s.dequeueLocked(w)
	s.mu.Unlock()
	if ok {
		s.m.waitTimeouts.Inc()
		send(w.conn, AcquireResp{Seq: w.seq, Code: CodeTimeout})
	}
}

// failQueueLocked answers every queued waiter of the key
// CodeShuttingDown and empties the queue. Caller holds mu (send never
// blocks).
func (s *Server) failQueueLocked(kq *keyQueue) {
	for _, w := range kq.q[kq.head:] {
		if s.dequeueLocked(w) {
			send(w.conn, AcquireResp{Seq: w.seq, Code: CodeShuttingDown})
		}
	}
	kq.reset()
}

// slotContinuesLocked decides whether a slot that has handed out its
// grant goes back for another: only while queued waiters exceed the
// slots already requesting. Otherwise the slot is retired.
func (s *Server) slotContinuesLocked(kq *keyQueue) bool {
	if kq.live > kq.requesting {
		kq.requesting++
		return true
	}
	if kq.live == 0 {
		kq.reset() // only canceled entries remain
	}
	return false
}

// slot is one of a key's grant loops. It enters counted in
// kq.requesting and stays counted only while it is in, or headed back
// into, LockFence: once a grant is handed to its waiter the slot owns
// nothing of it.
func (s *Server) slot(kq *keyQueue) {
	defer s.wg.Done()
	for {
		fence, err := s.cfg.Backend.LockFence(s.ctx, kq.key)

		s.mu.Lock()
		kq.requesting--
		if err != nil {
			// The server is closing (our ctx) or the backend is gone;
			// either way this key grants nothing more, so every queued
			// waiter hears it now instead of sitting there until some
			// later acquire starts a slot that rediscovers the failure.
			s.failQueueLocked(kq)
			s.mu.Unlock()
			return
		}
		var w *waiter
		for w == nil {
			head := kq.pop()
			if head == nil {
				break
			}
			if s.dequeueLocked(head) {
				w = head
			}
		}
		var conn *srvConn
		var seq, lost uint64
		superseded := false
		if w != nil {
			// The lock serializes holders, so a grant arriving while
			// another is still out means the backend dropped that one:
			// the key's participant was restarted under its holder (an
			// operator, chaos injection) and the lock now belongs to this
			// grant. Take the key from the old holder — its fence is
			// dead, and its release must not unlock what is ours.
			if kq.holder != nil {
				superseded = true
				lost = s.takeGrantLocked(kq)
			}
			w.sess.held[kq.key] = fence
			kq.holder = w.sess
			kq.holderFence = fence
			s.m.grants.Inc()
			s.m.acquireWait.Observe(s.clock.Now().Sub(w.enqueuedAt).Seconds())
			conn, seq = w.conn, w.seq
			s.recycleLocked(w)
		}
		again := s.slotContinuesLocked(kq)
		s.mu.Unlock()

		if conn == nil {
			// Whoever this request was made for gave up meanwhile (wait
			// bound, session death — answered already) or the server is
			// closing: give the lock straight back. The grant existed,
			// so watchers still hear about it.
			s.endGrant(kq, fence, false)
		} else {
			if superseded {
				s.m.lostGrants.Inc()
				s.logf("grant superseded: the backend granted the key again under its holder",
					"key", kq.key, "fence", lost)
				s.notifyWatchers(kq, lost, ReasonExpired)
			}
			send(conn, AcquireResp{Seq: seq, Code: CodeOK, Fence: fence})
		}
		if !again {
			return
		}
	}
}

// takeGrantLocked takes the key's grant from its holder, returning the
// grant's fence. Whoever takes it owns its ending. Caller holds mu and
// has checked kq.holder is non-nil.
func (s *Server) takeGrantLocked(kq *keyQueue) uint64 {
	delete(kq.holder.held, kq.key)
	kq.holder = nil
	return kq.holderFence
}

// endGrant ends a grant its caller took from the holder (or that nobody
// took up): the lock goes back through the backend — through §6
// invalidation when the holder's lease expired — and watchers hear it.
// Caller does not hold mu.
func (s *Server) endGrant(kq *keyQueue, fence uint64, expired bool) {
	reason := ReasonReleased
	if expired {
		s.invalidateKey(kq.key)
		reason = ReasonExpired
	} else {
		s.unlock(kq.key)
	}
	s.notifyWatchers(kq, fence, reason)
}

// invalidateKey kills an expired holder's grant. With an Invalidate
// hook (Manager.RestartKey by default) the key's local DME participant
// is crash-restarted: the group loses the token, runs the §6
// invalidation round, and regenerates it at a higher epoch with the
// fence watermark carried forward — the expired fence is dead
// cluster-wide, and the slots' LockFence calls — the ones in flight
// included — rejoin through the new incarnation. Without a hook the
// lock is released locally, which keeps liveness but trusts the expired
// client to stop using its fence.
func (s *Server) invalidateKey(key string) {
	if s.invalidate == nil {
		s.unlock(key)
		return
	}
	if err := s.invalidate(key); err != nil {
		s.logf("expiry invalidation failed", "key", key, "err", err)
		return
	}
	s.m.invalidations.Inc()
}

// unlock releases a grant through the backend, tolerating a grant the
// backend no longer recognizes: if the key's instance was crash-
// restarted out from under the holder (an operator restart, chaos
// injection), the lock already died with the old incarnation and §6
// recovered it cluster-wide — the release is then a no-op, not a panic
// out of whichever goroutine ended the grant.
func (s *Server) unlock(key string) {
	defer func() {
		if r := recover(); r != nil {
			s.m.lostGrants.Inc()
			s.logf("released a grant the backend no longer holds", "key", key, "cause", r)
		}
	}()
	s.cfg.Backend.Unlock(key)
}

// notifyWatchers pushes one WatchEvent per watcher of the key.
func (s *Server) notifyWatchers(kq *keyQueue, fence uint64, reason uint8) {
	s.mu.Lock()
	type target struct {
		sid  uint64
		conn *srvConn
	}
	targets := make([]target, 0, len(kq.watchers))
	for sid, conn := range kq.watchers {
		targets = append(targets, target{sid, conn})
	}
	s.mu.Unlock()
	for _, t := range targets {
		send(t.conn, WatchEvent{Session: t.sid, Key: kq.key, Fence: fence, Reason: reason})
		s.m.watchEvents.Inc()
	}
}

// --- connection plumbing ---

// srvConn is one client connection: a reader goroutine dispatching
// requests (which may block on Server.mu but never on the network),
// and a writer goroutine sending what the handlers, grant slots, lease
// timers and watch pushes queue for it. Frames are encoded as they are
// queued, into out; the writer takes out whole and writes it in one
// call outside the lock, so frames that become ready while a write is
// in flight leave together in the next one.
type srvConn struct {
	s    *Server
	conn net.Conn
	dec  *wire.Decoder

	mu     sync.Mutex
	enc    *wire.Encoder // frames into out; guarded by mu
	out    outbox        // encoded frames the writer has not taken yet
	queued int           // frames in out, at most Config.WriteQueue

	kick      chan struct{} // the writer's wakeup, capacity 1
	quit      chan struct{}
	closeOnce sync.Once
}

// outbox is the connection encoder's writer: it appends each frame to
// the batch awaiting the writer goroutine.
type outbox struct{ b []byte }

func (o *outbox) Write(p []byte) (int, error) {
	o.b = append(o.b, p...)
	return len(p), nil
}

// send queues one frame for the connection's writer, dropping the
// connection instead of blocking when Config.WriteQueue frames already
// wait: a consumer that cannot keep up with its own responses and watch
// events is evicted, and its sessions die by TTL like any other orphan.
// The frame is encoded here, by value, so queueing it allocates nothing.
func send[T wire.Frame](c *srvConn, msg T) {
	select {
	case <-c.quit:
		return
	default:
	}
	c.mu.Lock()
	if c.queued >= c.s.cfg.WriteQueue {
		c.mu.Unlock()
		c.s.m.slowCloses.Inc()
		c.s.logf("dropping slow consumer")
		c.close()
		return
	}
	err := wire.EncodeValue(c.enc, 0, msg)
	if err == nil {
		c.queued++
	}
	c.mu.Unlock()
	if err != nil {
		c.close()
		return
	}
	select {
	case c.kick <- struct{}{}:
	default: // a wakeup is already pending
	}
}

// close tears the connection down once; safe from any goroutine.
func (c *srvConn) close() {
	c.closeOnce.Do(func() {
		close(c.quit)
		_ = c.conn.Close()
	})
}

// writeLoop writes the queued frames, each batch in one call.
func (c *srvConn) writeLoop() {
	defer c.s.wg.Done()
	var batch []byte
	for {
		select {
		case <-c.kick:
		case <-c.quit:
			return
		}
		c.mu.Lock()
		batch, c.out.b = c.out.b, batch[:0]
		n := c.queued
		c.queued = 0
		c.mu.Unlock()
		if n == 0 {
			continue
		}
		if _, err := c.conn.Write(batch); err != nil {
			c.close()
			return
		}
		c.s.m.writes.Inc()
		c.s.m.framesWritten.Add(uint64(n))
	}
}

// readLoop decodes and dispatches requests until the connection dies.
// Each frame is borrowed from the decoder, and every handler takes its
// request by value before the next frame is read.
func (c *srvConn) readLoop() {
	defer func() {
		c.close()
		c.s.dropConn(c)
	}()
	for {
		_, msg, err := c.dec.DecodeBorrowed()
		if err != nil {
			var de *wire.DecodeError
			if errors.As(err, &de) {
				continue // one bad frame; the stream is still aligned
			}
			return
		}
		switch m := msg.(type) {
		case *OpenReq:
			c.s.handleOpen(c, *m)
		case *KeepAliveReq:
			c.s.handleKeepAlive(c, *m)
		case *AcquireReq:
			c.s.handleAcquire(c, *m)
		case *ReleaseReq:
			c.s.handleRelease(c, *m)
		case *WatchReq:
			c.s.handleWatch(c, *m)
		case *UnwatchReq:
			c.s.handleUnwatch(c, *m)
		case *ByeReq:
			c.s.handleBye(c, *m)
		default:
			// A response or push type from a confused peer: ignore.
		}
	}
}
