package live

// Scripted tests for the node's timer slab: a dme.Timer names a slot by
// id and an arming by generation, so handles outlive neither their
// timer's firing nor its cancellation. Each test runs in both delay
// ranges — the short-timer service and the slot's runtime timer.

import (
	"sync/atomic"
	"testing"
	"time"
)

// slabRanges are one delay on each side of shortTimerCutoff, in seconds.
var slabRanges = []struct {
	name  string
	delay float64
}{
	{"short", 0.0002},
	{"runtime", 0.003},
}

// armedTimers counts the slab slots holding an armed timer.
func armedTimers(n *Node) int {
	n.timersMu.Lock()
	defer n.timersMu.Unlock()
	armed := 0
	for i := range n.timers {
		if n.timers[i].fn != nil {
			armed++
		}
	}
	return armed
}

// slabSize is how many slots the slab has grown to.
func slabSize(n *Node) int {
	n.timersMu.Lock()
	defer n.timersMu.Unlock()
	return len(n.timers)
}

// flush waits until every step posted so far has run.
func flush(n *Node) {
	done := make(chan struct{})
	n.post(func() { close(done) })
	<-done
}

// await fails the test unless ch is closed within five seconds.
func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never happened", what)
	}
}

// TestTimerSlabStaleCancelMissesReusedSlot: a handle whose timer fired,
// or was cancelled, is stale once its slot is armed again; cancelling it
// must not cancel the slot's new timer.
func TestTimerSlabStaleCancelMissesReusedSlot(t *testing.T) {
	for _, r := range slabRanges {
		t.Run(r.name, func(t *testing.T) {
			n, _ := newExecNode(t)
			defer n.Close()

			// Fired: the first timer runs, its slot is freed, the second
			// timer takes it.
			fired := make(chan struct{})
			old := n.After(0, r.delay, func() { close(fired) })
			await(t, fired, "first timer")
			flush(n)
			second := make(chan struct{})
			n.After(0, r.delay, func() { close(second) })
			if got := slabSize(n); got != 1 {
				t.Fatalf("slab has %d slots, want the fired slot reused", got)
			}
			old.Cancel()
			await(t, second, "timer on the reused slot, after a stale cancel")
			flush(n)

			// Cancelled: the slot comes back once nothing can fire on it.
			// Re-arming may then take it; the old handle stays stale.
			gone := n.After(0, r.delay, func() { t.Error("cancelled timer ran") })
			gone.Cancel()
			for deadline := time.Now().Add(5 * time.Second); armedTimers(n) != 0; {
				if time.Now().After(deadline) {
					t.Fatal("cancelled timer's slot never freed")
				}
				time.Sleep(100 * time.Microsecond)
			}
			third := make(chan struct{})
			n.After(0, r.delay, func() { close(third) })
			if got := slabSize(n); got != 1 {
				t.Fatalf("slab has %d slots, want the cancelled slot reused", got)
			}
			gone.Cancel()
			await(t, third, "timer on the reused slot, after a second stale cancel")
		})
	}
}

// TestTimerSlabCancelBetweenFireAndStep: a Cancel landing after the
// timer fired but before its posted executor step ran suppresses the
// callback, and the step still frees the slot.
func TestTimerSlabCancelBetweenFireAndStep(t *testing.T) {
	for _, r := range slabRanges {
		t.Run(r.name, func(t *testing.T) {
			n, _ := newExecNode(t)
			defer n.Close()

			release := seizeExecutor(t, n)
			var ran atomic.Bool
			tmr := n.After(0, r.delay, func() { ran.Store(true) })
			// The fire posts the step, which queues behind the seized
			// executor; the slot stays armed until the step runs.
			waitQueueLen(t, n, 1)
			if armed := armedTimers(n); armed != 1 {
				t.Fatalf("%d slots armed between fire and step, want 1", armed)
			}
			tmr.Cancel()
			release()
			flush(n)
			if ran.Load() {
				t.Error("timer cancelled between fire and step ran its callback")
			}
			if armed := armedTimers(n); armed != 0 {
				t.Errorf("%d slots armed after the step, want 0", armed)
			}
		})
	}
}

// TestTimerSlabRearmFromOwnCallback: a callback that arms a timer gets
// its own, just-freed slot back, and the new timer fires exactly once.
func TestTimerSlabRearmFromOwnCallback(t *testing.T) {
	for _, r := range slabRanges {
		t.Run(r.name, func(t *testing.T) {
			n, _ := newExecNode(t)
			defer n.Close()

			var first, again atomic.Int32
			done := make(chan struct{})
			n.After(0, r.delay, func() {
				first.Add(1)
				n.After(0, r.delay, func() {
					if again.Add(1) == 1 {
						close(done)
					}
				})
			})
			await(t, done, "re-armed timer")
			// Long enough for a duplicate firing of either range to show.
			time.Sleep(20 * time.Millisecond)
			flush(n)
			if f, a := first.Load(), again.Load(); f != 1 || a != 1 {
				t.Errorf("callbacks ran %d and %d times, want 1 and 1", f, a)
			}
			if got := slabSize(n); got != 1 {
				t.Errorf("slab has %d slots, want the one slot re-armed", got)
			}
			if armed := armedTimers(n); armed != 0 {
				t.Errorf("%d slots still armed", armed)
			}
		})
	}
}
