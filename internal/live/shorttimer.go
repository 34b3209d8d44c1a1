package live

import (
	"runtime"
	"sync"
	"time"
)

// The short-timer service: precise wall-clock firing for sub-millisecond
// protocol phases.
//
// time.AfterFunc is the right tool for recovery timeouts (tens of
// milliseconds and up), but on an otherwise-parked scheduler a runtime
// timer fires through netpoll, whose wakeup granularity is on the order
// of a millisecond. The arbiter's request-collection window (Treq) and
// forwarding phase (Tfwd) are a few hundred microseconds in
// low-hold-time deployments, and that window sits once in every dispatch
// cycle — an ~0.9 ms overshoot per 200 µs timer was the single largest
// term in the live keys=1 handoff chain after the inline executor
// removed the queue parks. Delays below shortTimerCutoff therefore go
// onto a shared min-heap drained by one runner goroutine — the precise
// ones: a lax delay (Node.AfterLax), which nothing waits behind, comes
// here only once it is tightened.
//
// The runner sleeps in the kernel and yields only the tail. Most of a
// delay it spends parked in Go's netpoller on a timerfd armed for
// due − lead: an expiry is a file-descriptor *event*, so epoll_wait
// returns for it at hrtimer precision and the millisecond rounding of
// epoll's own timeout never applies. Only the last lead (the wakes'
// measured overshoot, below) is spent as the first version of this
// service spent the whole delay — looping on runtime.Gosched until the
// deadline — because that loop is what starved the process: every
// Gosched puts the runner on the global run queue, which findRunnable
// consults before it polls the network, and wakes a second P, so for as
// long as it runs one vCPU spins, the other is kept in a futex
// wake/sleep storm, and the thread parked in epoll_wait has to fight
// both for a CPU. Spinning through every Treq window made the process
// all but blind to its sockets exactly while the arbiter was supposed to
// be collecting requests from them (a session ReleaseResp sat 214 µs in
// the socket, batches stayed at one request, the process burned more
// than a core). Sleeping leaves both Ps to the network for the body of
// the window; the yielded tail keeps firing error scheduler-pass sized
// instead of wake-latency sized.
//
// The runner exists only while short timers are pending (it exits when
// the heap drains), every entry is < shortTimerCutoff away, and the fn
// it calls is Node.post — which inline-executes the protocol step, so a
// dispatch window expiring flows straight into stamping and sending the
// token with no further handoff. Platforms without a timerfd
// (shorttimer_other.go) have no kernel sleep and yield the whole way.

// shortTimerCutoff splits timer delays between the short-timer service
// (below) and time.AfterFunc (at or above). Two milliseconds covers the
// sub-millisecond protocol phases the AfterFunc overshoot ruins while
// leaving retransmit/recovery timers — where a millisecond of slack is
// harmless — on the runtime's timers.
const shortTimerCutoff = 2 * time.Millisecond

// The lead is how far ahead of a deadline the kernel sleep ends; the
// runner yields through the rest. It is measured, not fixed: the
// service samples every kernel wake's overshoot (wake time − armed
// expiry) and keeps the lead at about that overshoot's 99th
// percentile, so the yielded tail is only as long as the wakes on this
// host and under this load are late. On the 2-vCPU reference VM,
// 97 % of local_1key's wakes overshoot by ≤ 20 µs (p99 ≈ 35 µs) and
// the lead settles near 45 µs; hop_4key's (p99 ≈ 120 µs) and
// open_light's (p99 ≈ 150 µs) keep it near the cap. The service starts
// at the cap, shortTimerLeadMax, and a host with slow wakes stays there,
// so no host yields more than 100 µs per timer. Delays at or under the
// lead yield the whole way. short_timer_lateness_seconds says whether
// the estimate keeps up: lateness creeping toward the wake overshoot
// means the lead is too short for it.
const (
	shortTimerLeadMax  = 100 * time.Microsecond
	shortTimerLeadStep = 200 * time.Nanosecond // also the floor
)

// timerEntry is one pending short timer.
type timerEntry struct {
	due time.Time
	seq uint64 // tie-break so equal deadlines fire in arm order
	fn  func()
}

// timerHeap is a deadline-ordered binary min-heap of pending entries,
// typed rather than container/heap's so a push or pop boxes nothing.
type timerHeap []timerEntry

func (h timerHeap) less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].seq < h[j].seq
}

func (h *timerHeap) push(e timerEntry) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *timerHeap) pop() timerEntry {
	q := *h
	e := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[last] = timerEntry{}
	q = q[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && q.less(c+1, c) {
			c++
		}
		if !q.less(c, i) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return e
}

// shortTimerService is the process-wide short-timer arbiter. One runner
// goroutine and one timerfd serve every Node in the process (a
// multi-key Manager's instances all share them), so the cost does not
// scale with key count.
type shortTimerService struct {
	mu       sync.Mutex
	heap     timerHeap
	seq      uint64
	running  bool
	runner   func()        // s.run, bound once so starting the runner allocates nothing
	sleeping bool          // the runner armed wake and is (about to be) parked on it
	wake     kernelWake    // armed and re-armed under mu, so the latest arm wins
	wakeAt   time.Time     // when wake's latest arm expires
	lead     time.Duration // the measured lead; the first at() sets it to shortTimerLeadMax
}

var shortTimers shortTimerService

// observeWake feeds one kernel-wake overshoot to the lead: a
// frugal-streaming p99, which steps up 99 times as far for a wake later
// than the lead as it steps down for one within it, so it rests where
// 1 % of the wakes are later. Called under mu.
func (s *shortTimerService) observeWake(over time.Duration) {
	if over > s.lead {
		s.lead = min(s.lead+99*shortTimerLeadStep, shortTimerLeadMax)
	} else {
		s.lead = max(s.lead-shortTimerLeadStep, shortTimerLeadStep)
	}
}

// armWake sets the kernel sleep to end s.lead ahead of due and notes
// when it will, for observeWake. A wake already in the past still arms
// (for the minimum). Called under mu.
func (s *shortTimerService) armWake(now, due time.Time) bool {
	d := due.Sub(now) - s.lead
	if !s.wake.arm(d) {
		return false
	}
	s.wakeAt = now.Add(max(d, 0))
	return true
}

// at schedules fn to run once at due. Callers guarantee due is <
// shortTimerCutoff away; cancellation is theirs (Node's timer slab
// checks its own flag when fn runs).
func (s *shortTimerService) at(due time.Time, fn func()) {
	s.mu.Lock()
	seq := s.seq
	s.seq++
	s.heap.push(timerEntry{due: due, seq: seq, fn: fn})
	if s.sleeping && s.heap[0].seq == seq {
		// New earliest deadline under a runner sleeping toward a later
		// one: pull its wakeup in. A wake already in the past still arms
		// (for the minimum), which is what gets the runner up to yield.
		s.armWake(time.Now(), due)
	}
	start := !s.running
	if start {
		s.running = true
		if s.runner == nil {
			s.runner = s.run
			s.lead = shortTimerLeadMax
		}
	}
	runner := s.runner
	s.mu.Unlock()
	if start {
		go runner()
	}
}

// run drains the heap: fire everything due, sleep to within the lead
// of the next deadline, yield until it, exit when empty. The top of the
// heap is re-read under the lock every pass, so an entry armed with an
// earlier deadline is picked up on the next scheduler pass while the
// runner yields, and by at's re-arm while it sleeps. Each pass after a
// kernel wake first measures how late that wake came.
func (s *shortTimerService) run() {
	woke := false
	for {
		s.mu.Lock()
		now := time.Now()
		if woke {
			s.observeWake(now.Sub(s.wakeAt))
			woke = false
		}
		s.sleeping = false
		if len(s.heap) == 0 {
			s.running = false
			s.mu.Unlock()
			return
		}
		wait := s.heap[0].due.Sub(now)
		if wait <= 0 {
			e := s.heap.pop()
			s.mu.Unlock()
			// fn posts to a Node: when the node's executor is idle the
			// protocol step (a Treq window dispatching its batch, say)
			// runs to completion right here on the runner's stack.
			e.fn()
			continue
		}
		if wait > s.lead && s.armWake(now, s.heap[0].due) {
			s.sleeping = true
			s.mu.Unlock()
			woke = s.wake.wait()
			continue
		}
		s.mu.Unlock()
		runtime.Gosched()
	}
}
