package session_test

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestPooledReplyChannelsCannotMisroute: a client reuses its response
// channels, but never one a late response may still land in. Cancel an
// Acquire whose grant is still to come, let the grant arrive, then run
// a thousand cycles on the same client: every call gets its own
// response, and the abandoned grant is released by the client as
// Acquire promises — the next cycle could not be granted otherwise.
func TestPooledReplyChannelsCannotMisroute(t *testing.T) {
	r := newRig(t, nil)
	c := r.dial()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	holder, err := c.Open(ctx, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	quitter, err := c.Open(ctx, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	const key = "k"
	if _, err := holder.Acquire(ctx, key); err != nil {
		t.Fatal(err)
	}
	qctx, giveUp := context.WithCancel(ctx)
	abandoned := make(chan error, 1)
	go func() {
		_, err := quitter.Acquire(qctx, key)
		abandoned <- err
	}()
	waitUntil(t, "the second acquire to queue", func() bool {
		return r.gauge("session_queue_waiters") == 1
	})
	giveUp()
	if err := <-abandoned; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned acquire: %v, want context.Canceled", err)
	}
	// The server still grants the abandoned request once the key frees.
	if err := holder.Release(key); err != nil {
		t.Fatal(err)
	}

	const cycles = 1000
	var last uint64
	for i := 0; i < cycles; i++ {
		fence, err := holder.Acquire(ctx, key)
		if err != nil {
			t.Fatalf("cycle %d: acquire: %v", i, err)
		}
		if fence <= last {
			t.Fatalf("cycle %d: fence %d after %d: a response reached the wrong call", i, fence, last)
		}
		last = fence
		if err := holder.Release(key); err != nil {
			t.Fatalf("cycle %d: release: %v", i, err)
		}
	}
	// One grant before the cycles, the abandoned one, then the cycles:
	// every one of them released.
	const grants = cycles + 2
	if got := r.counter("session_grants_total"); got != grants {
		t.Errorf("session_grants_total = %d, want %d", got, grants)
	}
	if got := r.counter("session_releases_total"); got != grants {
		t.Errorf("session_releases_total = %d, want %d", got, grants)
	}
	waitUntil(t, "the backend to see every release", func() bool { return r.fb.unlocked(key) == grants })
}
