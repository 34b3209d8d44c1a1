package session_test

// Grant-slot tests: the server keeps up to GrantSlots Backend.LockFence
// calls outstanding per key, binds a waiter to a grant only when the
// grant arrives, and keeps no slot for a grant once it is held. These
// pin the bound, the no-leak endings (a waiter that gives up, a holder
// that expires, a backend that fails) and the contract text in
// session.Backend's doc.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"tokenarbiter/internal/session"
)

type acquireResult struct {
	fence uint64
	err   error
}

// acquireAsync issues one acquire per session, each blocking on its own
// goroutine, gating on the server's accepted-acquire counter so the
// queue order is the slice order; each, when non-nil, runs after
// acquire i was accepted. Results arrive on the returned channels.
func acquireAsync(t *testing.T, r *rig, sessions []*session.Session, key string, wait time.Duration, each func(i int)) []chan acquireResult {
	t.Helper()
	base := r.counter("session_acquires_total")
	out := make([]chan acquireResult, len(sessions))
	for i, s := range sessions {
		ch := make(chan acquireResult, 1)
		out[i] = ch
		go func() {
			f, err := s.AcquireWait(context.Background(), key, wait)
			ch <- acquireResult{f, err}
		}()
		waitUntil(t, "acquire to be accepted", func() bool {
			return r.counter("session_acquires_total") == base+uint64(i+1)
		})
		if each != nil {
			each(i)
		}
	}
	return out
}

func openSessions(t *testing.T, c *session.Client, n int, ttl time.Duration) []*session.Session {
	t.Helper()
	out := make([]*session.Session, n)
	for i := range out {
		s, err := c.Open(ctxT(t), ttl)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

func result(t *testing.T, ch chan acquireResult, desc string) acquireResult {
	t.Helper()
	select {
	case res := <-ch:
		return res
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: acquire never answered", desc)
		return acquireResult{}
	}
}

// TestSlotsBoundConcurrentLockFence: with the lock held elsewhere, k
// queued waiters put min(k, D) LockFence calls on the backend and never
// more, and grants still come out in queue order.
func TestSlotsBoundConcurrentLockFence(t *testing.T) {
	r := newRig(t, nil)
	// Another node holds the key: every slot blocks in the backend.
	if _, err := r.fb.LockFence(context.Background(), "k"); err != nil {
		t.Fatal(err)
	}
	const waiters = session.GrantSlots + 3
	sessions := openSessions(t, r.dial(), waiters, 10*time.Second)
	results := acquireAsync(t, r, sessions, "k", 0, func(i int) {
		want := min(i+1, session.GrantSlots)
		waitUntil(t, "slots to reach the backend", func() bool {
			now, _ := r.fb.waiting("k")
			return now == want
		})
	})
	r.fb.Unlock("k") // the remote holder lets go

	var last uint64
	for i, ch := range results {
		res := result(t, ch, "waiter")
		if res.err != nil {
			t.Fatalf("waiter %d: %v", i, res.err)
		}
		if res.fence <= last {
			t.Fatalf("waiter %d granted fence %d after %d: not queue order", i, res.fence, last)
		}
		last = res.fence
		if err := sessions[i].Release("k"); err != nil {
			t.Fatal(err)
		}
	}
	if _, peak := r.fb.waiting("k"); peak > session.GrantSlots {
		t.Errorf("backend saw %d concurrent LockFence calls, bound is %d", peak, session.GrantSlots)
	}
	// Every grant was paired with one Unlock, and nothing is left held
	// or requesting.
	waitUntil(t, "last grant to be unlocked", func() bool {
		return r.fb.unlocked("k") == waiters+1
	})
	waitUntil(t, "slots to retire", func() bool { return r.srv.Slots("k") == 0 })
}

// TestHeldGrantParksNoSlot: a slot retires (or goes back to the
// backend) in the same step that hands its grant to a waiter, so a
// session holding many keys leaves no goroutine waiting on any of them:
// each grant is ended by whoever ends it, here the session's Release.
// And since a holder occupies no slot, all D slots request for the
// waiters queued behind it.
func TestHeldGrantParksNoSlot(t *testing.T) {
	r := newRig(t, nil)
	sess := openSessions(t, r.dial(), 1, 10*time.Second)[0]
	keys := make([]string, 32)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		if _, err := sess.Acquire(ctxT(t), keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		if n := r.srv.Slots(k); n != 0 {
			t.Errorf("held key %s keeps %d grant slots", k, n)
		}
	}
	waiters := openSessions(t, r.dial(), session.GrantSlots+1, 10*time.Second)
	acquireAsync(t, r, waiters, keys[0], 0, nil)
	waitUntil(t, "D requests in flight behind the holder", func() bool {
		now, _ := r.fb.waiting(keys[0])
		return now == session.GrantSlots
	})
	for _, k := range keys {
		if err := sess.Release(k); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "release of "+k+" to unlock", func() bool { return r.fb.unlocked(k) == 1 })
	}
}

// TestWaiterTimeoutWhileRequesting: a waiter whose wait bound fires
// while its slot is still blocked in the backend is answered at once;
// when that request is finally granted nobody wants it and it is
// unlocked immediately — no hold leaks, and the key grants normally.
func TestWaiterTimeoutWhileRequesting(t *testing.T) {
	r := newRig(t, nil)
	if _, err := r.fb.LockFence(context.Background(), "k"); err != nil {
		t.Fatal(err)
	}
	sessions := openSessions(t, r.dial(), 1, 10*time.Second)
	res := acquireAsync(t, r, sessions, "k", 50*time.Millisecond, nil)
	waitUntil(t, "slot to reach the backend", func() bool {
		now, _ := r.fb.waiting("k")
		return now == 1
	})

	r.clk.Advance(50 * time.Millisecond)
	if got := result(t, res[0], "bounded waiter"); codeOf(got.err) != session.CodeTimeout {
		t.Fatalf("bounded acquire: %v, want CodeTimeout", got.err)
	}
	if got := r.fb.unlocked("k"); got != 0 {
		t.Fatalf("%d unlocks before any grant", got)
	}

	r.fb.Unlock("k") // now the abandoned request is granted
	waitUntil(t, "unwanted grant to be given back", func() bool {
		return r.fb.unlocked("k") == 2
	})
	if got := r.counter("session_grants_total"); got != 0 {
		t.Errorf("session_grants_total = %d after a grant nobody wanted", got)
	}
	if _, err := sessions[0].Acquire(ctxT(t), "k"); err != nil {
		t.Fatalf("acquire after the abandoned grant: %v", err)
	}
}

// TestHolderExpiryWithRequestInFlight: the holder's lease lapses while
// a second client's request is already in the backend. The key is
// invalidated exactly once, and the waiting client is granted through
// the same in-flight request with a strictly higher fence.
func TestHolderExpiryWithRequestInFlight(t *testing.T) {
	r := newRig(t, nil)
	holder, err := r.dial().Open(ctxT(t), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	fence, err := holder.Acquire(ctxT(t), "k")
	if err != nil {
		t.Fatal(err)
	}
	next := openSessions(t, r.dial(), 2, 10*time.Second)
	res := acquireAsync(t, r, next, "k", 0, nil)
	waitUntil(t, "both requests to reach the backend", func() bool {
		now, _ := r.fb.waiting("k")
		return now == 2
	})

	r.clk.Advance(100 * time.Millisecond)
	waitUntil(t, "holder handle to learn of expiry", holder.Expired)

	first := result(t, res[0], "first waiter")
	if first.err != nil {
		t.Fatal(first.err)
	}
	if first.fence <= fence {
		t.Fatalf("fence %d after expired fence %d", first.fence, fence)
	}
	if err := next[0].Release("k"); err != nil {
		t.Fatal(err)
	}
	second := result(t, res[1], "second waiter")
	if second.err != nil {
		t.Fatal(second.err)
	}
	if second.fence <= first.fence {
		t.Fatalf("fence %d after fence %d", second.fence, first.fence)
	}
	if err := next[1].Release("k"); err != nil {
		t.Fatal(err)
	}
	if got := r.fb.invalidated("k"); got != 1 {
		t.Errorf("key invalidated %d times, want once", got)
	}
	waitUntil(t, "both clean releases to unlock", func() bool { return r.fb.unlocked("k") == 2 })
	if got := r.counter("session_lost_grants_total"); got != 0 {
		t.Errorf("session_lost_grants_total = %d", got)
	}
}

// failingBackend blocks every LockFence until fail is closed, then
// errors them all; after heal it grants like a fakeBackend.
type failingBackend struct {
	*fakeBackend
	mu     sync.Mutex
	fail   chan struct{}
	healed bool
}

var errBackendGone = errors.New("backend gone")

func (b *failingBackend) LockFence(ctx context.Context, key string) (uint64, error) {
	b.mu.Lock()
	healed, fail := b.healed, b.fail
	b.mu.Unlock()
	if healed {
		return b.fakeBackend.LockFence(ctx, key)
	}
	select {
	case <-fail:
		return 0, errBackendGone
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

func (b *failingBackend) heal() {
	b.mu.Lock()
	b.healed = true
	b.mu.Unlock()
}

// TestLockFenceErrorFailsWholeQueue: when the backend fails a key's
// LockFence, every queued waiter — the ones a slot was requesting for
// and the ones beyond the D slots alike — is answered CodeShuttingDown
// and the queue is left empty, not parked until a later acquire trips
// over the same failure. The key recovers when the backend does.
func TestLockFenceErrorFailsWholeQueue(t *testing.T) {
	for _, tc := range []struct {
		name    string
		waiters int
	}{
		{"one-waiter", 1},
		{"fewer-than-slots", session.GrantSlots - 1},
		{"more-than-slots", 2*session.GrantSlots + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fb := &failingBackend{fakeBackend: newFakeBackend(), fail: make(chan struct{})}
			r := newRig(t, func(cfg *session.Config) { cfg.Backend = fb })
			sessions := openSessions(t, r.dial(), tc.waiters, 10*time.Second)
			res := acquireAsync(t, r, sessions, "k", 0, nil)
			if got := r.gauge("session_queue_waiters"); got != int64(tc.waiters) {
				t.Fatalf("session_queue_waiters = %d, want %d", got, tc.waiters)
			}

			close(fb.fail)
			for i, ch := range res {
				if got := result(t, ch, "queued waiter"); codeOf(got.err) != session.CodeShuttingDown {
					t.Fatalf("waiter %d: %v, want CodeShuttingDown", i, got.err)
				}
			}
			if got := r.gauge("session_queue_waiters"); got != 0 {
				t.Errorf("session_queue_waiters = %d after the failure", got)
			}
			for _, ks := range r.srv.Status().Keys {
				if ks.Queued != 0 || ks.Holder != 0 {
					t.Errorf("key %q left with %d queued, holder %d", ks.Key, ks.Queued, ks.Holder)
				}
			}

			// A failure still in flight on another slot would fail whoever
			// queued meanwhile, so let them all land before healing.
			waitUntil(t, "failed slots to retire", func() bool { return r.srv.Slots("k") == 0 })
			fb.heal()
			if _, err := sessions[0].Acquire(ctxT(t), "k"); err != nil {
				t.Fatalf("acquire after the backend healed: %v", err)
			}
		})
	}
}

// TestRestartUnderHolderSupersedesIt: an operator (or chaos injection)
// restarts the key's participant under its holder, so the backend
// grants one of the requests already in flight while the server still
// shows a holder. The lock now belongs to the new grant: the old holder
// loses the key (its Release says CodeNotHeld and unlocks nothing) and
// the new holder's release is the one that unlocks.
func TestRestartUnderHolderSupersedesIt(t *testing.T) {
	r := newRig(t, nil)
	c := r.dial()
	sessions := openSessions(t, c, 2, 10*time.Second)
	old, next := sessions[0], sessions[1]
	oldFence, err := old.Acquire(ctxT(t), "k")
	if err != nil {
		t.Fatal(err)
	}
	res := acquireAsync(t, r, []*session.Session{next}, "k", 0, nil)
	waitUntil(t, "request to reach the backend", func() bool {
		now, _ := r.fb.waiting("k")
		return now == 1
	})

	if err := r.fb.invalidate("k"); err != nil { // the restart: the grant dies under its holder
		t.Fatal(err)
	}
	got := result(t, res[0], "waiter")
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.fence <= oldFence {
		t.Fatalf("fence %d after superseded fence %d", got.fence, oldFence)
	}
	waitUntil(t, "superseded grant to be counted", func() bool {
		return r.counter("session_lost_grants_total") == 1
	})
	if err := old.Release("k"); codeOf(err) != session.CodeNotHeld {
		t.Fatalf("superseded holder's release: %v, want CodeNotHeld", err)
	}
	if n := r.fb.unlocked("k"); n != 0 {
		t.Fatalf("superseded holder's release unlocked the new grant (%d unlocks)", n)
	}
	if err := next.Release("k"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "new holder's release to unlock", func() bool { return r.fb.unlocked("k") == 1 })
	if _, err := old.Acquire(ctxT(t), "k"); err != nil {
		t.Fatalf("acquire after the handover: %v", err)
	}
}
