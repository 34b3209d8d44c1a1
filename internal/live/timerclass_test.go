package live

// Scripted tests for the slab's lax timer class: a short delay armed
// with AfterLax has no firing of its own. It runs before the node's
// first executor step after its deadline, or TightenTimer moves it onto
// the short-timer service at its original deadline.

import (
	"sync/atomic"
	"testing"
	"time"

	"tokenarbiter/internal/dme"
)

// latenessSamples is the short_timer_lateness_seconds sample count.
func latenessSamples(n *Node) uint64 {
	return n.Metrics().Snapshot().Histograms["short_timer_lateness_seconds"].Count
}

// slot returns a copy of the slab slot t names, or the zero slot when
// the handle is stale.
func slot(n *Node, t dme.Timer) liveTimer {
	n.timersMu.Lock()
	defer n.timersMu.Unlock()
	for i := range n.timers {
		if dme.MakeTimer(n, int32(i), n.timers[i].gen) == t {
			return n.timers[i]
		}
	}
	return liveTimer{}
}

// TestTimerClassLaxRunsBeforeNextStep: a lax timer does not fire on its
// own. The first step that starts after its deadline runs it first; a
// step that starts before the deadline does not.
func TestTimerClassLaxRunsBeforeNextStep(t *testing.T) {
	n, _ := newExecNode(t)
	defer n.Close()

	var order []string // executor-confined
	n.AfterLax(0, 0.0002, func() { order = append(order, "timer") })
	time.Sleep(5 * time.Millisecond)
	n.post(func() { order = append(order, "step") })
	flush(n)
	if len(order) != 2 || order[0] != "timer" || order[1] != "step" {
		t.Fatalf("order %v, want the timer to run ahead of the first step after its deadline", order)
	}

	// A step ahead of the deadline leaves the timer armed.
	order = nil
	tmr := n.AfterLax(0, 0.0019, func() { order = append(order, "timer") })
	due := slot(n, tmr).due
	var early bool
	n.post(func() { early = time.Now().Before(due); order = append(order, "step") })
	flush(n)
	if early && (len(order) != 1 || !slot(n, tmr).lax) {
		t.Fatalf("a step before the deadline: order %v, lax=%v; want only the step, the timer still armed", order, slot(n, tmr).lax)
	}
	time.Sleep(5 * time.Millisecond)
	n.post(func() { order = append(order, "step") })
	flush(n)
	if k := len(order); k < 2 || order[k-2] != "timer" || order[k-1] != "step" {
		t.Fatalf("order %v, want the timer to run ahead of the first step after its deadline", order)
	}
	if armed := armedTimers(n); armed != 0 || n.laxArmed.Load() != 0 {
		t.Fatalf("%d slots armed, %d lax, after both lax timers ran", armed, n.laxArmed.Load())
	}
	if got := latenessSamples(n); got != 0 {
		t.Errorf("short_timer_lateness_seconds has %d samples, want none from lax timers", got)
	}
}

// TestTimerClassLaxCancelFreesSlot: cancelling a lax timer frees its slot
// at once, and the stale handle misses the slot's next arming.
func TestTimerClassLaxCancelFreesSlot(t *testing.T) {
	n, _ := newExecNode(t)
	defer n.Close()

	gone := n.AfterLax(0, 0.0002, func() { t.Error("cancelled lax timer ran") })
	if s := slot(n, gone); !s.lax || s.due.IsZero() {
		t.Fatalf("lax short timer: lax=%v due=%v, want a lax slot with a deadline", s.lax, s.due)
	}
	gone.Cancel()
	if armed := armedTimers(n); armed != 0 || n.laxArmed.Load() != 0 {
		t.Fatalf("%d slots armed, %d lax, after cancelling the lax timer; want it freed at once", armed, n.laxArmed.Load())
	}
	var ran atomic.Bool
	n.AfterLax(0, 0.0002, func() { ran.Store(true) })
	if got := slabSize(n); got != 1 {
		t.Fatalf("slab has %d slots, want the cancelled slot reused", got)
	}
	gone.Cancel()
	gone.Tighten()
	time.Sleep(time.Millisecond)
	flush(n)
	if !ran.Load() {
		t.Fatal("lax timer on the reused slot did not run after a stale cancel and tighten")
	}
	if got := latenessSamples(n); got != 0 {
		t.Errorf("short_timer_lateness_seconds has %d samples, want none from lax timers", got)
	}
}

// TestTimerClassTightenBeforeDeadline: a lax timer tightened ahead of its
// deadline fires once, through the short-timer service, with no step to
// wait for, and leaves one lateness sample. An attempt whose Tighten
// returned past the deadline (a stalled host) proves nothing and is
// retried.
func TestTimerClassTightenBeforeDeadline(t *testing.T) {
	n, _ := newExecNode(t)
	defer n.Close()

	for attempt := 0; ; attempt++ {
		if attempt == 20 {
			t.Fatal("no Tighten landed before its 1.9 ms deadline in 20 attempts")
		}
		before := latenessSamples(n)
		var runs atomic.Int32
		fired := make(chan struct{})
		tmr := n.AfterLax(0, 0.0019, func() {
			if runs.Add(1) == 1 {
				close(fired)
			}
		})
		due := slot(n, tmr).due
		tmr.Tighten()
		inTime := time.Now().Before(due)
		await(t, fired, "tightened timer")
		// Long enough for a second run, off the lax path, to show.
		time.Sleep(5 * time.Millisecond)
		flush(n)
		if r := runs.Load(); r != 1 {
			t.Fatalf("tightened timer ran %d times, want 1", r)
		}
		if armed := armedTimers(n); armed != 0 {
			t.Fatalf("%d slots armed after the tightened timer fired", armed)
		}
		if !inTime {
			continue
		}
		if got := latenessSamples(n) - before; got != 1 {
			t.Fatalf("tightened timer left %d lateness samples, want 1", got)
		}
		return
	}
}

// TestTimerClassTightenAfterDeadline: a lax timer tightened after its
// deadline, from inside the step during which the deadline passed, runs
// once, right after that step, with no lateness sample.
func TestTimerClassTightenAfterDeadline(t *testing.T) {
	n, _ := newExecNode(t)
	defer n.Close()

	var order []string // executor-confined
	n.post(func() {
		tmr := n.AfterLax(0, 0.0002, func() { order = append(order, "timer") })
		time.Sleep(time.Millisecond)
		tmr.Tighten()
		tmr.Tighten()
		order = append(order, "step")
	})
	flush(n)
	if len(order) != 2 || order[0] != "step" || order[1] != "timer" {
		t.Fatalf("run order %v, want [step timer]", order)
	}
	if armed := armedTimers(n); armed != 0 {
		t.Fatalf("%d slots armed after the timer ran", armed)
	}
	if got := latenessSamples(n); got != 0 {
		t.Errorf("short_timer_lateness_seconds has %d samples, want none", got)
	}
}

// TestTimerClassTightenNoops: Tighten on a cancelled, fired or stale
// handle, on a precise timer, and on a lax delay too long for the
// short-timer service changes nothing.
func TestTimerClassTightenNoops(t *testing.T) {
	n, _ := newExecNode(t)
	defer n.Close()

	// Cancelled: nothing runs, the slot stays free.
	gone := n.AfterLax(0, 0.0002, func() { t.Error("cancelled timer ran after Tighten") })
	gone.Cancel()
	gone.Tighten()
	if armed := armedTimers(n); armed != 0 {
		t.Fatalf("%d slots armed after Tighten on a cancelled timer", armed)
	}

	// Fired: the callback runs once.
	var runs atomic.Int32
	old := n.AfterLax(0, 0.0002, func() { runs.Add(1) })
	time.Sleep(time.Millisecond)
	flush(n)
	old.Tighten()

	// Stale: the slot's next lax arming stays lax.
	next := n.AfterLax(0, 0.0019, func() {})
	old.Tighten()
	if s := slot(n, next); !s.lax {
		t.Fatal("a stale handle's Tighten moved the slot's new lax timer to the short-timer service")
	}
	next.Cancel()

	// Precise: still exactly one firing and one sample.
	precise := make(chan struct{})
	tmr := n.After(0, 0.0002, func() { runs.Add(1); close(precise) })
	tmr.Tighten()
	await(t, precise, "precise timer")

	// Long: stays on its runtime timer.
	long := n.AfterLax(0, 0.003, func() {})
	long.Tighten()
	if s := slot(n, long); s.lax || !s.due.IsZero() {
		t.Fatalf("a lax delay above shortTimerCutoff: lax=%v due=%v, want a runtime timer", s.lax, s.due)
	}
	long.Cancel()

	time.Sleep(5 * time.Millisecond)
	flush(n)
	if r := runs.Load(); r != 2 {
		t.Fatalf("callbacks ran %d times, want 2", r)
	}
	if got := latenessSamples(n); got != 1 {
		t.Fatalf("short_timer_lateness_seconds has %d samples, want the precise timer's one", got)
	}
	if armed := armedTimers(n); armed != 0 {
		t.Fatalf("%d slots still armed", armed)
	}
}
