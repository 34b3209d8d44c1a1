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
// due − shortTimerLead: an expiry is a file-descriptor *event*, so
// epoll_wait returns for it at hrtimer precision and the millisecond
// rounding of epoll's own timeout never applies. Only the last
// shortTimerLead is spent as the first version of this service spent
// the whole delay — looping on runtime.Gosched until the deadline —
// because that loop is what starved the process: every Gosched puts the
// runner on the global run queue, which findRunnable consults before it
// polls the network, and wakes a second P, so for as long as it runs
// one vCPU spins, the other is kept in a futex wake/sleep storm, and
// the thread parked in epoll_wait has to fight both for a CPU. Spinning
// through every Treq window made the process all but blind to its
// sockets exactly while the arbiter was supposed to be collecting
// requests from them (a session ReleaseResp sat 214 µs in the socket,
// batches stayed at one request, the process burned more than a core).
// Sleeping leaves both Ps to the network for the body of the window;
// the yielded tail keeps firing error scheduler-pass sized instead of
// wake-latency sized.
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

// shortTimerLead is how far ahead of a deadline the kernel sleep ends;
// the runner yields through the rest. A thread woken from epoll_wait on
// an idle vCPU of the reference VM runs 60–80 µs after the expiry it
// was woken for, so a sleep aimed at the deadline itself stretches
// every 200 µs window to ≈290; 100 µs covers that overshoot with
// margin. Delays at or under the lead yield the whole way. The
// short_timer_lateness_seconds histogram says whether the constant fits
// another host: lateness creeping toward the wake latency means the
// lead is too short for it.
const shortTimerLead = 100 * time.Microsecond

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
	runner   func()     // s.run, bound once so starting the runner allocates nothing
	sleeping bool       // the runner armed wake and is (about to be) parked on it
	wake     kernelWake // armed and re-armed under mu, so the latest arm wins
}

var shortTimers shortTimerService

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
		s.wake.arm(time.Until(due) - shortTimerLead)
	}
	start := !s.running
	if start {
		s.running = true
		if s.runner == nil {
			s.runner = s.run
		}
	}
	runner := s.runner
	s.mu.Unlock()
	if start {
		go runner()
	}
}

// run drains the heap: fire everything due, sleep to within
// shortTimerLead of the next deadline, yield until it, exit when empty.
// The top of the heap is re-read under the lock every pass, so an entry
// armed with an earlier deadline is picked up on the next scheduler
// pass while the runner yields, and by at's re-arm while it sleeps.
func (s *shortTimerService) run() {
	for {
		s.mu.Lock()
		s.sleeping = false
		if len(s.heap) == 0 {
			s.running = false
			s.mu.Unlock()
			return
		}
		wait := time.Until(s.heap[0].due)
		if wait <= 0 {
			e := s.heap.pop()
			s.mu.Unlock()
			// fn posts to a Node: when the node's executor is idle the
			// protocol step (a Treq window dispatching its batch, say)
			// runs to completion right here on the runner's stack.
			e.fn()
			continue
		}
		if wait > shortTimerLead && s.wake.arm(wait-shortTimerLead) {
			s.sleeping = true
			s.mu.Unlock()
			s.wake.wait()
			continue
		}
		s.mu.Unlock()
		runtime.Gosched()
	}
}
