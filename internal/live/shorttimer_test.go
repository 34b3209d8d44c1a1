package live

// White-box tests for the short-timer service: ordering, the re-arm
// path, cancellation, the runner's lifecycle, firing precision, the
// measured lead, and the regression the kernel sleep exists for — a
// pending short timer must not blind the process to its sockets.

import (
	"math/rand/v2"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// needKernelSleep skips tests of behaviour only the timerfd sleep has;
// the portable runner yields the whole way and they do not apply.
func needKernelSleep(t *testing.T, s *shortTimerService) {
	t.Helper()
	s.mu.Lock()
	ok := s.wake.arm(time.Nanosecond)
	s.mu.Unlock()
	if !ok {
		t.Skip("no kernel-timed sleep on this platform")
	}
}

// waitService polls cond on the service's state under its lock.
func waitService(t *testing.T, s *shortTimerService, desc string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		ok := cond()
		s.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", desc)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func medianDuration(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// TestShortTimerEqualDeadlinesFireInArmOrder: entries sharing one
// deadline fire in the order they were armed, whatever the heap did
// with them, and earlier deadlines armed later still go first.
func TestShortTimerEqualDeadlinesFireInArmOrder(t *testing.T) {
	var s shortTimerService
	const n = 32
	var (
		mu    sync.Mutex
		order []int
		done  = make(chan struct{})
	)
	record := func(i int) func() {
		return func() {
			mu.Lock()
			order = append(order, i)
			full := len(order) == n+1
			mu.Unlock()
			if full {
				close(done)
			}
		}
	}
	due := time.Now().Add(800 * time.Microsecond)
	for i := 0; i < n; i++ {
		s.at(due, record(i))
	}
	s.at(due.Add(-300*time.Microsecond), record(-1))
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timers never fired")
	}
	if order[0] != -1 {
		t.Errorf("earlier deadline armed last fired at position != 0: %v", order)
	}
	for i, got := range order[1:] {
		if got != i {
			t.Fatalf("equal deadlines fired out of arm order: %v", order)
		}
	}
}

// TestShortTimerRearmWakesSleepingRunner: a 100 µs timer armed while the
// runner is parked toward a 1.5 ms one fires on time — at() pulls the
// timerfd in — rather than when the runner would have woken anyway.
func TestShortTimerRearmWakesSleepingRunner(t *testing.T) {
	var s shortTimerService
	needKernelSleep(t, &s)
	const rounds = 25
	late := make([]time.Duration, 0, rounds)
	for attempt := 0; len(late) < rounds; attempt++ {
		if attempt == 20*rounds {
			t.Fatalf("caught the runner asleep only %d times in %d attempts", len(late), attempt)
		}
		var longFired atomic.Bool
		s.at(time.Now().Add(1500*time.Microsecond), func() { longFired.Store(true) })
		asleep := false
		for !asleep && !longFired.Load() {
			runtime.Gosched()
			s.mu.Lock()
			asleep = s.sleeping
			s.mu.Unlock()
		}
		if !asleep {
			continue // descheduled past the whole 1.5 ms; try again
		}
		fired := make(chan time.Duration, 1)
		due := time.Now().Add(100 * time.Microsecond)
		s.at(due, func() { fired <- time.Since(due) })
		select {
		case d := <-fired:
			late = append(late, d)
		case <-time.After(5 * time.Second):
			t.Fatal("short timer never fired")
		}
		waitService(t, &s, "long timer to fire and the runner to exit", func() bool { return !s.running })
	}
	// Without the re-arm the short timer waits out the long sleep and
	// fires ≈1.3 ms late.
	if m := medianDuration(late); m > 500*time.Microsecond {
		t.Errorf("median lateness of a timer armed under a sleeping runner: %v, want < 500µs", m)
	}
}

// TestShortTimerCancelBeforeFire: a short timer cancelled before its
// deadline never runs its callback, and its slab slot is free again
// once the service has popped the entry. An attempt whose Cancel
// returned past the deadline (the test goroutine was descheduled) does
// not test that, so it is retried.
func TestShortTimerCancelBeforeFire(t *testing.T) {
	n, _ := newExecNode(t)
	defer n.Close()
	const attempts = 100
	for attempt := 0; ; attempt++ {
		if attempt == attempts {
			t.Fatalf("never cancelled a 200µs timer before its deadline in %d attempts", attempts)
		}
		var ran atomic.Bool
		start := time.Now()
		tmr := n.After(0, 0.0002, func() { ran.Store(true) })
		after := make(chan struct{})
		n.After(0, 0.0004, func() { close(after) })
		tmr.Cancel()
		inTime := time.Since(start) < 200*time.Microsecond
		select {
		case <-after:
		case <-time.After(5 * time.Second):
			t.Fatal("later timer never fired")
		}
		if armed := armedTimers(n); armed != 0 {
			t.Errorf("%d slab slots still armed after both timers left the service", armed)
		}
		if !inTime {
			continue
		}
		if ran.Load() {
			t.Error("cancelled timer's function ran")
		}
		return
	}
}

// fireOnce arms one 300 µs timer on s, checks a runner exists while it
// is pending, and waits for the runner to exit after it fired.
func fireOnce(t *testing.T, s *shortTimerService) {
	t.Helper()
	fired := make(chan struct{})
	s.at(time.Now().Add(300*time.Microsecond), func() { close(fired) })
	s.mu.Lock()
	running := s.running
	s.mu.Unlock()
	if !running {
		t.Fatal("no runner while a timer is pending")
	}
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}
	waitService(t, s, "runner to exit once the heap drained", func() bool {
		return !s.running && !s.sleeping && len(s.heap) == 0
	})
}

// TestShortTimerRunnerLifecycle: the runner exists only while timers
// are pending — it exits when the heap drains, leaving no goroutine
// behind, and the next at() starts a fresh one.
func TestShortTimerRunnerLifecycle(t *testing.T) {
	var s shortTimerService
	fireOnce(t, &s)
	fireOnce(t, &s)
}

// TestShortTimerLateness: 200 consecutive Node.After(200 µs) on an idle
// process fire within microseconds of their deadline, not the ≈0.9 ms
// late a parked scheduler's time.AfterFunc does, and each one lands in
// short_timer_lateness_seconds.
func TestShortTimerLateness(t *testing.T) {
	n, _ := newExecNode(t)
	defer n.Close()
	const rounds = 200
	late := make([]time.Duration, 0, rounds)
	for i := 0; i < rounds; i++ {
		fired := make(chan time.Duration, 1)
		due := time.Now().Add(200 * time.Microsecond)
		n.After(0, 0.0002, func() { fired <- time.Since(due) })
		select {
		case d := <-fired:
			late = append(late, d)
		case <-time.After(5 * time.Second):
			t.Fatal("timer never fired")
		}
	}
	if m := medianDuration(late); m > 500*time.Microsecond {
		t.Errorf("median lateness of After(200µs): %v, want < 500µs", m)
	}
	h, ok := n.Metrics().Snapshot().Histograms["short_timer_lateness_seconds"]
	if !ok || h.Count != rounds {
		t.Errorf("short_timer_lateness_seconds recorded %d of %d timers", h.Count, rounds)
	}
}

// pingPongMedian measures the median round trip of one byte over a
// loopback TCP connection served by an echo goroutine.
func pingPongMedian(t *testing.T, rounds int) time.Duration {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var b [1]byte
		for {
			if _, err := c.Read(b[:]); err != nil {
				return
			}
			if _, err := c.Write(b[:]); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rtts := make([]time.Duration, 0, rounds)
	var b [1]byte
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if _, err := c.Write(b[:]); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(b[:]); err != nil {
			t.Fatal(err)
		}
		rtts = append(rtts, time.Since(start))
	}
	return medianDuration(rtts)
}

// TestShortTimerDoesNotStarveNetpoller is the regression test for the
// yield-spin: with a 1.5 ms short timer always pending, a loopback TCP
// ping-pong must stay within 4× of the same ping-pong with none. A
// runner that yields through the whole delay sits on the global run
// queue, which findRunnable consults before it polls the network. The
// GOMAXPROCS=1 leg isolates exactly that: there the yield loop reads
// ≈1000× (the sockets are seen only by sysmon's 10 ms poll). With a
// second P the damage depends on what else is runnable — a bare
// ping-pong leaves it free to poll, a loaded session server does not —
// so the ambient leg only guards against the tail itself getting worse.
func TestShortTimerDoesNotStarveNetpoller(t *testing.T) {
	var s shortTimerService
	needKernelSleep(t, &s)
	const rounds = 400
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		prev := runtime.GOMAXPROCS(procs)
		pingPongMedian(t, rounds) // warm the listener path and the scheduler
		quiet := pingPongMedian(t, rounds)

		var stop atomic.Bool
		stopped := make(chan struct{})
		var rearm func()
		rearm = func() {
			if stop.Load() {
				close(stopped)
				return
			}
			s.at(time.Now().Add(1500*time.Microsecond), rearm)
		}
		rearm()
		busy := pingPongMedian(t, rounds)
		stop.Store(true)
		<-stopped
		runtime.GOMAXPROCS(prev)

		t.Logf("GOMAXPROCS=%d: loopback ping-pong median %v quiet, %v with a short timer pending", procs, quiet, busy)
		if busy > 4*quiet {
			t.Errorf("GOMAXPROCS=%d: pending short timer slows the network path %v → %v (> 4×)", procs, quiet, busy)
		}
	}
}

// TestShortTimerLeadTracksWakeOvershoot drives the lead estimator with
// synthetic kernel-wake overshoots (no clock, no runner): it settles
// between the prompt and the late wakes of a 99 %/1 % mix, a burst of
// wakes later than the cap pins it at the cap and never above, it
// decays once the wakes are prompt again, and it never drops below
// the floor.
func TestShortTimerLeadTracksWakeOvershoot(t *testing.T) {
	s := shortTimerService{lead: shortTimerLeadMax} // as at() starts it
	feed := func(n int, over func(i int) time.Duration, check func(lead time.Duration)) {
		t.Helper()
		s.mu.Lock()
		defer s.mu.Unlock()
		for i := 0; i < n; i++ {
			s.observeWake(over(i))
			if s.lead < shortTimerLeadStep || s.lead > shortTimerLeadMax {
				t.Fatalf("lead %v outside [%v, %v]", s.lead, shortTimerLeadStep, shortTimerLeadMax)
			}
			if check != nil {
				check(s.lead)
			}
		}
	}
	const (
		prompt = 10 * time.Microsecond
		late   = 60 * time.Microsecond
	)

	// 99 % of the wakes 10 µs late, 1 % 60 µs, in a fixed
	// pseudo-random order. The lead's p99 is anywhere in [10, 60) µs;
	// once settled, the lead must average inside it.
	rng := rand.New(rand.NewPCG(1, 2))
	mixed := func(int) time.Duration {
		if rng.IntN(100) == 0 {
			return late
		}
		return prompt
	}
	feed(2000, mixed, nil)
	var sum time.Duration
	const settled = 100000
	feed(settled, mixed, func(lead time.Duration) { sum += lead })
	if mean := sum / settled; mean <= prompt || mean >= late {
		t.Errorf("lead under a 99 %% %v / 1 %% %v mix averages %v, want between them", prompt, late, mean)
	}

	// A burst of wakes later than the cap drives the lead to the cap.
	feed(200, func(int) time.Duration { return 150 * time.Microsecond }, nil)
	if s.lead != shortTimerLeadMax {
		t.Errorf("lead after 200 wakes 150µs late: %v, want the %v cap", s.lead, shortTimerLeadMax)
	}

	// Prompt wakes again: the lead falls one step per wake until it
	// meets them.
	prev := s.lead
	feed(400, func(int) time.Duration { return 5 * time.Microsecond }, func(lead time.Duration) {
		if lead > prev {
			t.Fatalf("lead rose from %v to %v on a wake within it", prev, lead)
		}
		prev = lead
	})
	if want := shortTimerLeadMax - 400*shortTimerLeadStep; s.lead != want {
		t.Errorf("lead after 400 prompt wakes: %v, want %v", s.lead, want)
	}

	// Wakes on time (or early: a re-arm can beat a read) rest it on
	// the floor.
	feed(1000, func(i int) time.Duration { return -time.Duration(i%2) * time.Microsecond }, nil)
	if s.lead != shortTimerLeadStep {
		t.Errorf("lead after 1000 on-time wakes: %v, want the %v floor", s.lead, shortTimerLeadStep)
	}
}
