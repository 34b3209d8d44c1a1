package main

import (
	"context"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tokenarbiter/internal/session"
)

// sample is one completed acquire→release cycle.
type sample struct {
	done int64 // grant time, ns on the bench clock
	lat  int64 // Acquire call (open loop: due time) → grant, ns
}

// worker drives one session: a goroutine that loops Acquire → Release on
// one key. Everything it records is its own until the generator stops.
type worker struct {
	sess *session.Session
	node int
	key  string
	feed chan int64 // open loop only: due times from this worker's connection FIFO

	samples  []sample
	failures []int64 // when each failed operation returned
}

// loadgen owns the workers of one run and the safety oracle they all
// report to. Workers record every cycle from the first; the analysis
// keeps those whose grant fell inside the measured window, so cycle
// counts and counter snapshots share their edges.
type loadgen struct {
	oracle  *oracle
	workers []*worker
	spans   *spanRecorder // non-nil on the traced pass

	stopping atomic.Bool
	// armedAt and firstGrant time token_loss outages: the injector arms
	// with the drop time, and the first grant any worker sees afterwards
	// claims firstGrant.
	armedAt    atomic.Int64
	firstGrant atomic.Int64

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func newLoadgen(spans *spanRecorder) *loadgen {
	ctx, cancel := context.WithCancel(context.Background())
	return &loadgen{oracle: newOracle(), spans: spans, ctx: ctx, cancel: cancel}
}

func (g *loadgen) add(sess *session.Session, node int, key string, feed chan int64) {
	g.workers = append(g.workers, &worker{
		sess: sess, node: node, key: key, feed: feed,
		samples: make([]sample, 0, 1<<16),
	})
}

// cycle is one acquire→release through the session client. due is the
// instant latency is timed from on an open loop; 0 means the call
// itself. It reports whether the cycle completed.
func (g *loadgen) cycle(w *worker, due int64) bool {
	t0 := now()
	if due == 0 {
		due = t0
	}
	fence, err := w.sess.Acquire(g.ctx, w.key)
	t1 := now()
	if err != nil {
		g.fail(w, t1)
		return false
	}
	g.oracle.enter(w.key, fence)
	if armed := g.armedAt.Load(); armed != 0 && t1 > armed {
		g.firstGrant.CompareAndSwap(0, t1)
	}
	// The bracket closes before the release is sent: the server may hand
	// the key to the next waiter the instant the release lands.
	g.oracle.exit(w.key)
	r0 := now()
	err = w.sess.Release(w.key)
	r1 := now()
	if err != nil {
		g.fail(w, r1)
		return false
	}
	w.samples = append(w.samples, sample{done: t1, lat: t1 - due})
	if g.spans != nil {
		g.spans.client(w.node, w.key, fence, t0, t1, r0, r1)
	}
	return true
}

// fail records an operation that errored, unless the generator is
// shutting down and cancelled it itself.
func (g *loadgen) fail(w *worker, at int64) {
	if !g.stopping.Load() {
		w.failures = append(w.failures, at)
	}
}

// startClosed launches every worker in a closed loop: the next acquire
// is issued when the previous release returns.
func (g *loadgen) startClosed() {
	for _, w := range g.workers {
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			for !g.stopping.Load() {
				if !g.cycle(w, 0) && !g.stopping.Load() {
					time.Sleep(time.Millisecond) // do not spin on a persistent error
				}
			}
		}()
	}
}

// stop ends a closed loop: workers finish the cycle they are in. The
// context is cancelled only if one is still blocked after the grace
// period, which a healthy cluster never needs.
func (g *loadgen) stop() {
	g.stopping.Store(true)
	done := make(chan struct{})
	go func() { g.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		g.cancel()
		<-done
	}
	g.cancel()
}

// poissonSchedule draws the arrival offsets of a Poisson process of the
// given rate over [0, total), and for each the connection it goes to.
func poissonSchedule(rng *rand.Rand, rate float64, total time.Duration, conns int) (offsets []int64, conn []int) {
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / rate
		off := int64(t * float64(time.Second))
		if off >= int64(total) {
			return offsets, conn
		}
		offsets = append(offsets, off)
		conn = append(conn, rng.IntN(conns))
	}
}

// lateness is how far behind its due time the generator handed one
// arrival over.
type lateness struct {
	due  int64
	late int64
}

// runOpen plays a precomputed arrival schedule starting at t0: each
// arrival is handed, at its due time, to its connection's FIFO, where
// the first idle session of that connection takes it. Latency is timed
// from the due time, so a request that waits for a session — or for a
// late generator — pays for the wait. It returns how late the generator
// itself ran on each arrival, and blocks until every arrival has been
// served.
func (g *loadgen) runOpen(feeds []chan int64, t0 int64, offsets []int64, conn []int) []lateness {
	for _, w := range g.workers {
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			for due := range w.feed {
				g.cycle(w, due)
			}
		}()
	}
	// The generator sleeps in the kernel on a thread of its own: a parked
	// Go scheduler wakes runtime timers through epoll_wait, whose
	// millisecond granularity would make every arrival up to 1 ms late.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	late := make([]lateness, 0, len(offsets))
	for i, off := range offsets {
		due := t0 + off
		for d := due - now(); d > 0; d = due - now() {
			ts := syscall.NsecToTimespec(d)
			_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep is retried
		}
		late = append(late, lateness{due: due, late: now() - due})
		feeds[conn[i]] <- due
	}
	for _, f := range feeds {
		close(f)
	}
	g.wg.Wait()
	g.cancel()
	return late
}

// collect gathers the workers' tallies once they have stopped.
func (g *loadgen) collect() (samples []sample, failures []int64) {
	for _, w := range g.workers {
		samples = append(samples, w.samples...)
		failures = append(failures, w.failures...)
	}
	return samples, failures
}
