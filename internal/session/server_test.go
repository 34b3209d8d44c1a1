package session_test

// Service-layer tests: a session Server over a scripted in-memory
// Backend, driven entirely by a FakeClock — the httptest-style harness
// the issue asks for. No test here sleeps to "wait for" a lease; time
// moves only when Advance is called, and the handful of genuinely
// asynchronous effects (grant slots, client-side push processing)
// are observed by condition polling with a deadline.

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"tokenarbiter/internal/session"
)

// fakeBackend is a scripted Backend: per-key binary semaphores with
// monotonic fences, recording every unlock and invalidation. Unlock of
// an unheld key panics, matching *live.Manager. The server keeps
// several LockFence calls outstanding per key, so LockFence is safe to
// call concurrently and the fake counts how many are blocked at once.
type fakeBackend struct {
	mu       sync.Mutex
	toks     map[string]chan struct{}
	fences   map[string]uint64
	unlocks  map[string]int
	invalids map[string]int
	blocked  map[string]int // LockFence calls currently waiting
	peak     map[string]int // high-water mark of blocked
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{
		toks:     make(map[string]chan struct{}),
		fences:   make(map[string]uint64),
		unlocks:  make(map[string]int),
		invalids: make(map[string]int),
		blocked:  make(map[string]int),
		peak:     make(map[string]int),
	}
}

func (b *fakeBackend) tok(key string) chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	ch := b.toks[key]
	if ch == nil {
		ch = make(chan struct{}, 1)
		ch <- struct{}{}
		b.toks[key] = ch
	}
	return ch
}

func (b *fakeBackend) LockFence(ctx context.Context, key string) (uint64, error) {
	b.mu.Lock()
	b.blocked[key]++
	if b.blocked[key] > b.peak[key] {
		b.peak[key] = b.blocked[key]
	}
	b.mu.Unlock()
	var err error
	select {
	case <-b.tok(key):
	case <-ctx.Done():
		err = ctx.Err()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.blocked[key]--
	if err != nil {
		return 0, err
	}
	b.fences[key]++
	return b.fences[key], nil
}

// waiting reports how many LockFence calls are blocked on key now and
// the most that ever were.
func (b *fakeBackend) waiting(key string) (now, peak int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.blocked[key], b.peak[key]
}

func (b *fakeBackend) Unlock(key string) {
	select {
	case b.tok(key) <- struct{}{}:
	default:
		panic("fakeBackend: unlock of unheld key " + key)
	}
	b.mu.Lock()
	b.unlocks[key]++
	b.mu.Unlock()
}

// invalidate is wired as Config.Invalidate: it frees the key like a
// crash-restart would and records that the §6 path was taken.
func (b *fakeBackend) invalidate(key string) error {
	select {
	case b.tok(key) <- struct{}{}:
	default:
		return errors.New("invalidate of unheld key " + key)
	}
	b.mu.Lock()
	b.invalids[key]++
	b.mu.Unlock()
	return nil
}

// restart frees the key as a crash-restart of its participant by an
// operator would: the server did not ask for it, so nothing is recorded.
func (b *fakeBackend) restart(key string) {
	select {
	case b.tok(key) <- struct{}{}:
	default:
		panic("fakeBackend: restart of unheld key " + key)
	}
}

func (b *fakeBackend) unlocked(key string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.unlocks[key]
}

func (b *fakeBackend) invalidated(key string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.invalids[key]
}

// rig is one server under test plus its scripted backend and clock.
type rig struct {
	t   *testing.T
	fb  *fakeBackend
	clk *session.FakeClock
	srv *session.Server
}

func newRig(t *testing.T, tweak func(*session.Config)) *rig {
	t.Helper()
	fb := newFakeBackend()
	clk := session.NewFakeClock()
	cfg := session.Config{
		Backend:    fb,
		Clock:      clk,
		MinTTL:     time.Millisecond,
		DefaultTTL: 100 * time.Millisecond,
		Invalidate: fb.invalidate,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	srv, err := session.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return &rig{t: t, fb: fb, clk: clk, srv: srv}
}

// dial connects a NoKeepAlive client over an in-process pipe; lease
// renewal in these tests is always explicit.
func (r *rig) dial() *session.Client {
	r.t.Helper()
	return r.dialOpts(session.Options{NoKeepAlive: true})
}

func (r *rig) dialOpts(opts session.Options) *session.Client {
	r.t.Helper()
	if opts.Clock == nil {
		opts.Clock = r.clk
	}
	cli, srv := net.Pipe()
	r.srv.ServeConn(srv)
	c, err := session.NewClient(cli, opts)
	if err != nil {
		r.t.Fatalf("dial: %v", err)
	}
	r.t.Cleanup(func() { _ = c.Close() })
	return c
}

// counter reads one of the server's metrics by name.
func (r *rig) counter(name string) uint64 {
	return r.srv.Metrics().Counter(name, "").Value()
}

func (r *rig) gauge(name string) int64 {
	return r.srv.Metrics().Gauge(name, "").Value()
}

// waitUntil polls cond until it holds or the deadline passes — the
// pattern for observing effects that cross a real goroutine (grant slots,
// client push processing). It never gates on a fixed sleep.
func waitUntil(t *testing.T, desc string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", desc)
		}
		time.Sleep(time.Millisecond)
	}
}

// codeOf extracts the response code from a client error, or 255.
func codeOf(err error) session.Code {
	var ce *session.CodeError
	if errors.As(err, &ce) {
		return ce.Code
	}
	return session.Code(255)
}

func ctxT(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestCloseReachesSilentDialer: a connection is tracked from the moment
// it is adopted, not from the end of its handshake, so Close closes a
// dialer that never said hello and returns, instead of waiting behind a
// read nobody will satisfy.
func TestCloseReachesSilentDialer(t *testing.T) {
	r := newRig(t, nil)
	cli, srv := net.Pipe()
	defer cli.Close() //nolint:errcheck
	r.srv.ServeConn(srv)
	done := make(chan struct{})
	go func() {
		_ = r.srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Close still blocked after 1 s behind a dialer that sent nothing")
	}
}

// TestLeaseLifecycle drives lease grant, renewal, and expiry through a
// step table on the fake clock — the timer re-arm path (a renewal
// pushing the deadline past an already-armed timer) falls out of the
// renew-then-advance cases.
func TestLeaseLifecycle(t *testing.T) {
	type step struct {
		advance time.Duration
		renew   bool
	}
	adv := func(d time.Duration) step { return step{advance: d} }
	renew := step{renew: true}

	cases := []struct {
		name      string
		ttl       time.Duration
		steps     []step
		wantAlive bool
	}{
		{"expires-at-deadline", 100 * time.Millisecond,
			[]step{adv(100 * time.Millisecond)}, false},
		{"alive-before-deadline", 100 * time.Millisecond,
			[]step{adv(99 * time.Millisecond)}, true},
		{"renewal-extends", 100 * time.Millisecond,
			[]step{adv(50 * time.Millisecond), renew, adv(99 * time.Millisecond)}, true},
		{"renewal-then-lapse", 100 * time.Millisecond,
			[]step{adv(50 * time.Millisecond), renew, adv(100 * time.Millisecond)}, false},
		{"repeated-renewals-outlive-many-ttls", 100 * time.Millisecond,
			[]step{
				adv(80 * time.Millisecond), renew,
				adv(80 * time.Millisecond), renew,
				adv(80 * time.Millisecond), renew,
				adv(99 * time.Millisecond),
			}, true},
		{"zero-ttl-takes-server-default", 0,
			[]step{adv(99 * time.Millisecond)}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, nil)
			c := r.dial()
			sess, err := c.Open(ctxT(t), tc.ttl)
			if err != nil {
				t.Fatal(err)
			}
			if tc.ttl == 0 && sess.TTL() != 100*time.Millisecond {
				t.Fatalf("default TTL = %v, want 100ms", sess.TTL())
			}
			for i, st := range tc.steps {
				if st.renew {
					if err := sess.KeepAlive(ctxT(t)); err != nil {
						t.Fatalf("step %d: renew: %v", i, err)
					}
					continue
				}
				r.clk.Advance(st.advance)
			}
			if tc.wantAlive {
				if got := r.gauge("sessions_active"); got != 1 {
					t.Fatalf("sessions_active = %d, want 1", got)
				}
				if got := r.counter("session_expiries_total"); got != 0 {
					t.Fatalf("expiries = %d, want 0", got)
				}
				// The lease is genuinely renewable, not just still listed.
				if err := sess.KeepAlive(ctxT(t)); err != nil {
					t.Fatalf("keepalive on live lease: %v", err)
				}
			} else {
				if got := r.gauge("sessions_active"); got != 0 {
					t.Fatalf("sessions_active = %d, want 0", got)
				}
				if got := r.counter("session_expiries_total"); got != 1 {
					t.Fatalf("expiries = %d, want 1", got)
				}
				waitUntil(t, "client handle to learn of expiry", sess.Expired)
				if err := sess.KeepAlive(ctxT(t)); err != session.ErrSessionDead {
					t.Fatalf("keepalive on dead lease: %v, want ErrSessionDead", err)
				}
			}
		})
	}
}

// TestTTLClamp checks the Min/Default/Max lease bounds.
func TestTTLClamp(t *testing.T) {
	r := newRig(t, func(cfg *session.Config) {
		cfg.MinTTL = 50 * time.Millisecond
		cfg.DefaultTTL = 100 * time.Millisecond
		cfg.MaxTTL = 200 * time.Millisecond
	})
	c := r.dial()
	for _, tc := range []struct {
		ask, want time.Duration
	}{
		{0, 100 * time.Millisecond},
		{10 * time.Millisecond, 50 * time.Millisecond},
		{150 * time.Millisecond, 150 * time.Millisecond},
		{time.Hour, 200 * time.Millisecond},
	} {
		sess, err := c.Open(ctxT(t), tc.ask)
		if err != nil {
			t.Fatalf("open ttl %v: %v", tc.ask, err)
		}
		if sess.TTL() != tc.want {
			t.Fatalf("open ttl %v: granted %v, want %v", tc.ask, sess.TTL(), tc.want)
		}
		if err := sess.End(ctxT(t)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAutoKeepAlive runs the client's jittered keepalive loop on the
// fake clock across many TTLs of fake time: the lease must survive, and
// every renewal round trip happens inside Advance — zero real waiting.
func TestAutoKeepAlive(t *testing.T) {
	r := newRig(t, nil)
	c := r.dialOpts(session.Options{}) // keepalive on
	sess, err := c.Open(ctxT(t), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		r.clk.Advance(100 * time.Millisecond) // one full TTL per step
	}
	if sess.Expired() {
		t.Fatal("session with keepalive expired")
	}
	if got := r.gauge("sessions_active"); got != 1 {
		t.Fatalf("sessions_active = %d, want 1", got)
	}
	if got := r.counter("session_renewals_total"); got < 10 {
		t.Fatalf("renewals = %d, want >= 10 over 10 TTLs", got)
	}
	// Stop renewing: the lease must die exactly by TTL.
	if err := sess.End(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(time.Second)
	if got := r.gauge("sessions_active"); got != 0 {
		t.Fatalf("after End, sessions_active = %d, want 0", got)
	}
}

// TestExpiryDuringCSInvalidatesFence is the §6 integration contract at
// the service layer: a holder whose lease lapses mid-critical-section
// loses its lock through the invalidation hook (the protocol path), NOT
// through a plain unlock. (What watchers hear is TestGrantEndings'.)
func TestExpiryDuringCSInvalidatesFence(t *testing.T) {
	r := newRig(t, nil)
	holderC := r.dial()
	otherC := r.dial()

	holder, err := holderC.Open(ctxT(t), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	fence, err := holder.Acquire(ctxT(t), "k")
	if err != nil {
		t.Fatal(err)
	}
	if fence != 1 {
		t.Fatalf("first fence = %d, want 1", fence)
	}

	r.clk.Advance(100 * time.Millisecond)

	waitUntil(t, "expiry invalidation", func() bool { return r.fb.invalidated("k") == 1 })
	if got := r.fb.unlocked("k"); got != 0 {
		t.Fatalf("expiry used plain Unlock %d times; must go through Invalidate", got)
	}
	if got := r.counter("session_expiry_invalidations_total"); got != 1 {
		t.Fatalf("session_expiry_invalidations_total = %d, want 1", got)
	}
	waitUntil(t, "holder handle to learn of expiry", holder.Expired)

	// The key is free again and the next grant's fence is higher.
	sess2, err := otherC.Open(ctxT(t), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	fence2, err := sess2.Acquire(ctxT(t), "k")
	if err != nil {
		t.Fatal(err)
	}
	if fence2 <= fence {
		t.Fatalf("post-invalidation fence %d not above expired fence %d", fence2, fence)
	}
}

// TestExpiryCancelsQueuedWaiters: a queued acquire dies with its session.
func TestExpiryCancelsQueuedWaiters(t *testing.T) {
	r := newRig(t, nil)
	c := r.dial()
	a, err := c.Open(ctxT(t), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Acquire(ctxT(t), "k"); err != nil {
		t.Fatal(err)
	}
	b, err := c.Open(ctxT(t), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := b.Acquire(context.Background(), "k")
		got <- err
	}()
	waitUntil(t, "waiter to queue", func() bool {
		return r.counter("session_acquires_total") == 2
	})
	r.clk.Advance(100 * time.Millisecond) // b's lease lapses while queued
	select {
	case err := <-got:
		if codeOf(err) != session.CodeExpired {
			t.Fatalf("queued acquire after expiry: %v, want CodeExpired", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued acquire not answered after session expiry")
	}
	// a still holds; the queue is clean.
	if err := a.Release("k"); err != nil {
		t.Fatal(err)
	}
}

// TestWaitBound: AcquireWait's server-side queue-time bound fires on the
// server clock and answers CodeTimeout; the lock itself is unaffected.
func TestWaitBound(t *testing.T) {
	r := newRig(t, nil)
	c := r.dial()
	a, err := c.Open(ctxT(t), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Acquire(ctxT(t), "k"); err != nil {
		t.Fatal(err)
	}
	b, err := c.Open(ctxT(t), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := b.AcquireWait(context.Background(), "k", 50*time.Millisecond)
		got <- err
	}()
	waitUntil(t, "waiter to queue", func() bool {
		return r.counter("session_acquires_total") == 2
	})
	r.clk.Advance(50 * time.Millisecond)
	select {
	case err := <-got:
		if codeOf(err) != session.CodeTimeout {
			t.Fatalf("bounded acquire: %v, want CodeTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("bounded acquire not answered at its wait bound")
	}
	if got := r.counter("session_wait_timeouts_total"); got != 1 {
		t.Fatalf("wait timeouts = %d, want 1", got)
	}
	// After a release, the key grants normally again.
	if err := a.Release("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Acquire(ctxT(t), "k"); err != nil {
		t.Fatalf("acquire after timeout: %v", err)
	}
}

// TestByeHandsOff: ending a session releases its lock and the next
// waiter is granted with a higher fence.
func TestByeHandsOff(t *testing.T) {
	r := newRig(t, nil)
	c := r.dial()
	a, err := c.Open(ctxT(t), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := a.Acquire(ctxT(t), "k")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Open(ctxT(t), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	type res struct {
		fence uint64
		err   error
	}
	got := make(chan res, 1)
	go func() {
		f, err := b.Acquire(context.Background(), "k")
		got <- res{f, err}
	}()
	waitUntil(t, "waiter to queue", func() bool {
		return r.counter("session_acquires_total") == 2
	})
	if err := a.End(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	select {
	case rr := <-got:
		if rr.err != nil {
			t.Fatalf("queued acquire after Bye: %v", rr.err)
		}
		if rr.fence <= f1 {
			t.Fatalf("handed-off fence %d not above %d", rr.fence, f1)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not granted after holder's Bye")
	}
	if got := r.fb.unlocked("k"); got != 1 {
		t.Fatalf("unlocks = %d, want 1 (the Bye's release)", got)
	}
}

// TestAdmissionControl: MaxSessions and MaxWaitersPerKey refuse excess
// load with CodeOverloaded instead of queueing unboundedly.
func TestAdmissionControl(t *testing.T) {
	r := newRig(t, func(cfg *session.Config) {
		cfg.MaxSessions = 2
		cfg.MaxWaitersPerKey = 1
	})
	c := r.dial()
	a, err := c.Open(ctxT(t), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Open(ctxT(t), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open(ctxT(t), 10*time.Second); codeOf(err) != session.CodeOverloaded {
		t.Fatalf("third open: %v, want CodeOverloaded", err)
	}
	if got := r.counter("session_rejects_total"); got != 1 {
		t.Fatalf("rejects = %d, want 1", got)
	}

	// Fill the key: a holds, b queues (limit 1), the next acquire bounces.
	if _, err := a.Acquire(ctxT(t), "k"); err != nil {
		t.Fatal(err)
	}
	bdone := make(chan error, 1)
	go func() {
		_, err := b.Acquire(context.Background(), "k")
		bdone <- err
	}()
	waitUntil(t, "waiter to queue", func() bool {
		return r.gauge("session_queue_waiters") == 1
	})
	if _, err := a.Acquire(ctxT(t), "k2"); err != nil {
		t.Fatal(err) // other keys unaffected
	}
	if _, err := b.Acquire(ctxT(t), "k"); codeOf(err) != session.CodeOverloaded {
		t.Fatalf("over-limit acquire: %v, want CodeOverloaded", err)
	}

	// Ending a session frees an admission slot.
	if err := a.End(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	if err := <-bdone; err != nil {
		t.Fatalf("queued acquire after slot freed: %v", err)
	}
	if _, err := c.Open(ctxT(t), 10*time.Second); err != nil {
		t.Fatalf("open after slot freed: %v", err)
	}
}

// TestBadRequests: protocol misuse gets definitive error codes.
func TestBadRequests(t *testing.T) {
	r := newRig(t, nil)
	c := r.dial()
	sess, err := c.Open(ctxT(t), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Release("k"); codeOf(err) != session.CodeNotHeld {
		t.Fatalf("release of unheld key: %v, want CodeNotHeld", err)
	}
	if _, err := sess.Acquire(ctxT(t), ""); codeOf(err) != session.CodeBadRequest {
		t.Fatalf("acquire of empty key: %v, want CodeBadRequest", err)
	}
	if _, err := sess.Acquire(ctxT(t), "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Acquire(ctxT(t), "k"); codeOf(err) != session.CodeBadRequest {
		t.Fatalf("re-acquire while holding: %v, want CodeBadRequest", err)
	}
	r2 := newRig(t, nil) // fresh server for the unknown-session shape
	c2 := r2.dial()
	s2, err := c2.Open(ctxT(t), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	r2.clk.Advance(100 * time.Millisecond)
	waitUntil(t, "expiry", s2.Expired)
	if err := s2.KeepAlive(ctxT(t)); err != session.ErrSessionDead {
		t.Fatalf("keepalive on dead handle: %v", err)
	}
}

// TestWatchUnwatch: an unwatched session hears nothing more. (What a
// watch delivers for each way a grant ends is TestGrantEndings'.)
func TestWatchUnwatch(t *testing.T) {
	r := newRig(t, nil)
	c := r.dial()
	watcher, err := c.Open(ctxT(t), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := watcher.Watch(ctxT(t), "k"); err != nil {
		t.Fatal(err)
	}
	worker, err := c.Open(ctxT(t), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := worker.Acquire(ctxT(t), "k"); err != nil {
		t.Fatal(err)
	}
	if err := worker.Release("k"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-watcher.Events():
	case <-time.After(5 * time.Second):
		t.Fatal("no watch event after release")
	}

	if err := watcher.Unwatch(ctxT(t), "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := worker.Acquire(ctxT(t), "k"); err != nil {
		t.Fatal(err)
	}
	if err := worker.Release("k"); err != nil {
		t.Fatal(err)
	}
	// The release must not reach the unwatched session. Sequence the
	// check behind the server's own event counter: once the second
	// release's accounting is visible and no event arrived, the unwatch
	// held. (First release pushed exactly one event.)
	waitUntil(t, "second release accounted", func() bool {
		return r.counter("session_releases_total") == 2
	})
	select {
	case ev := <-watcher.Events():
		t.Fatalf("event after Unwatch: %+v", ev)
	default:
	}
	if got := r.counter("session_watch_events_total"); got != 1 {
		t.Fatalf("watch events pushed = %d, want 1", got)
	}
}

// TestGrantEndings: each of the five ways a grant ends — Release, Bye,
// lease expiry, a restart under the holder that lets the backend grant
// the key again (superseded), and server Close — is acted on once, by
// whoever ends it: the backend sees one Unlock, one invalidation or
// nothing, and a watcher hears one event for the ended grant's fence,
// or none when the server is closing.
func TestGrantEndings(t *testing.T) {
	for _, tc := range []struct {
		name string
		ttl  time.Duration // the holder's lease
		// end ends the holder's grant and returns once it has ended.
		end func(t *testing.T, r *rig, holder *session.Session)
		// unlocks and invalidations are the backend calls the ending
		// makes; events is how many watch events it pushes.
		unlocks, invalidations, events int
		reason                         uint8
	}{
		{"release", 10 * time.Second, func(t *testing.T, r *rig, holder *session.Session) {
			if err := holder.Release("k"); err != nil {
				t.Fatal(err)
			}
		}, 1, 0, 1, session.ReasonReleased},
		{"bye", 10 * time.Second, func(t *testing.T, r *rig, holder *session.Session) {
			if err := holder.End(ctxT(t)); err != nil {
				t.Fatal(err)
			}
		}, 1, 0, 1, session.ReasonReleased},
		{"lease-expiry", 100 * time.Millisecond, func(t *testing.T, r *rig, holder *session.Session) {
			r.clk.Advance(100 * time.Millisecond)
			waitUntil(t, "holder handle to learn of expiry", holder.Expired)
		}, 0, 1, 1, session.ReasonExpired},
		{"superseded", 10 * time.Second, func(t *testing.T, r *rig, holder *session.Session) {
			next := openSessions(t, r.dial(), 1, 10*time.Second)
			res := acquireAsync(t, r, next, "k", 0, nil)
			waitUntil(t, "successor's request to reach the backend", func() bool {
				now, _ := r.fb.waiting("k")
				return now == 1
			})
			r.fb.restart("k")
			if got := result(t, res[0], "successor"); got.err != nil {
				t.Fatal(got.err)
			}
			waitUntil(t, "superseded grant to be counted", func() bool {
				return r.counter("session_lost_grants_total") == 1
			})
			// The successor's release is the key's only Unlock.
			t.Cleanup(func() {
				if err := next[0].Release("k"); err != nil {
					t.Error(err)
				}
				waitUntil(t, "successor's release to unlock", func() bool { return r.fb.unlocked("k") == 1 })
			})
		}, 0, 0, 1, session.ReasonExpired},
		{"close", 10 * time.Second, func(t *testing.T, r *rig, holder *session.Session) {
			if err := r.srv.Close(); err != nil {
				t.Fatal(err)
			}
		}, 1, 0, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, nil)
			watcher := openSessions(t, r.dial(), 1, 10*time.Second)[0]
			if err := watcher.Watch(ctxT(t), "k"); err != nil {
				t.Fatal(err)
			}
			holder := openSessions(t, r.dial(), 1, tc.ttl)[0]
			fence, err := holder.Acquire(ctxT(t), "k")
			if err != nil {
				t.Fatal(err)
			}

			tc.end(t, r, holder)
			if tc.events > 0 {
				select {
				case ev := <-watcher.Events():
					if ev.Key != "k" || ev.Fence != fence || ev.Reason != tc.reason {
						t.Fatalf("watch event = %+v, want key k fence %d reason %d", ev, fence, tc.reason)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("no watch event for the ended grant")
				}
			}
			waitUntil(t, "the ending's backend call", func() bool {
				return r.fb.unlocked("k") == tc.unlocks && r.fb.invalidated("k") == tc.invalidations
			})
			if got := r.counter("session_watch_events_total"); got != uint64(tc.events) {
				t.Errorf("watch events pushed = %d, want %d", got, tc.events)
			}
		})
	}
}

// TestSessionSurvivesConnectionLoss: Chubby-style, the lease — not the
// connection — is the session's lifetime. A held lock stays held after
// its client vanishes, until the TTL reaps it through §6 invalidation.
func TestSessionSurvivesConnectionLoss(t *testing.T) {
	r := newRig(t, nil)
	c := r.dial()
	sess, err := c.Open(ctxT(t), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Acquire(ctxT(t), "k"); err != nil {
		t.Fatal(err)
	}
	_ = c.Close() // the client process "crashes"
	waitUntil(t, "server to drop the connection", func() bool {
		return r.gauge("session_conns_active") == 0
	})
	if got := r.gauge("sessions_active"); got != 1 {
		t.Fatalf("sessions_active after conn loss = %d, want 1 (lease still live)", got)
	}
	r.clk.Advance(100 * time.Millisecond)
	if got := r.gauge("sessions_active"); got != 0 {
		t.Fatalf("sessions_active after TTL = %d, want 0", got)
	}
	waitUntil(t, "orphan's lock to be invalidated", func() bool {
		return r.fb.invalidated("k") == 1
	})
}

// TestServerClose: Close answers queued waiters CodeShuttingDown,
// releases held grants, and returns without hanging.
func TestServerClose(t *testing.T) {
	r := newRig(t, nil)
	c := r.dial()
	a, err := c.Open(ctxT(t), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Acquire(ctxT(t), "k"); err != nil {
		t.Fatal(err)
	}
	b, err := c.Open(ctxT(t), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := b.Acquire(context.Background(), "k")
		got <- err
	}()
	waitUntil(t, "waiter to queue", func() bool {
		return r.counter("session_acquires_total") == 2
	})
	closed := make(chan struct{})
	go func() {
		_ = r.srv.Close()
		close(closed)
	}()
	select {
	case err := <-got:
		// CodeShuttingDown through the response, or the connection died
		// under the call first — both are a refused acquire.
		if err == nil {
			t.Fatal("queued acquire granted during shutdown")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued acquire not answered during shutdown")
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
	if got := r.fb.unlocked("k"); got != 1 {
		t.Fatalf("held grant not released on Close: unlocks = %d", got)
	}
}

// TestStatusDoc: the /sessionz snapshot reflects the queue state.
func TestStatusDoc(t *testing.T) {
	r := newRig(t, nil)
	c := r.dial()
	a, err := c.Open(ctxT(t), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	fence, err := a.Acquire(ctxT(t), "k")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Watch(ctxT(t), "k"); err != nil {
		t.Fatal(err)
	}
	doc := r.srv.Status()
	if doc.Sessions != 1 || doc.Conns != 1 {
		t.Fatalf("status sessions=%d conns=%d, want 1/1", doc.Sessions, doc.Conns)
	}
	if len(doc.Keys) != 1 || doc.Keys[0].Key != "k" ||
		doc.Keys[0].Holder != a.ID() || doc.Keys[0].Fence != fence ||
		doc.Keys[0].Watchers != 1 {
		t.Fatalf("status keys = %+v", doc.Keys)
	}
	infos := r.srv.SessionInfos()
	if len(infos) != 1 || infos[0].ID != a.ID() ||
		len(infos[0].Held) != 1 || infos[0].Held[0] != "k" ||
		len(infos[0].Watches) != 1 || infos[0].Watches[0] != "k" {
		t.Fatalf("session infos = %+v", infos)
	}
}
