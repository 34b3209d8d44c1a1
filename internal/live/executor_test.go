package live

// White-box tests for the run-to-completion inline executor: the
// idle/running/dirty state machine that replaced the event-loop
// goroutine. They pin the semantics protocol code depends on — deferred
// reentrant posts, FIFO queue order, timer/dispatch interleaving, Close
// against a foreign owner — from inside the package, where the queue and
// executor state are observable.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/transport"
)

// recTransport is a loopback-free Transport stub: sends vanish, Close is
// recorded (a node must not close it). Enough for single-node executor tests where no wire traffic
// exists.
type recTransport struct {
	self     dme.NodeID
	closedTr atomic.Bool
}

func (s *recTransport) Self() dme.NodeID                          { return s.self }
func (s *recTransport) Send(to dme.NodeID, msg dme.Message) error { return nil }
func (s *recTransport) SetHandler(transport.Handler)              {}
func (s *recTransport) Close() error                              { s.closedTr.Store(true); return nil }

// newExecNode builds a one-node engine that nothing asks for the lock:
// its core protocol sits idle, and the executor machinery (posts,
// timers, Close) is the test subject.
func newExecNode(t *testing.T) (*Node, *recTransport) {
	t.Helper()
	tr := &recTransport{}
	n, err := newNode(config{ID: 0, N: 1, Transport: tr, Factory: registry.CoreLiveFactory(core.Options{}), TraceDepth: -1})
	if err != nil {
		t.Fatal(err)
	}
	return n, tr
}

// seizeExecutor posts a function that blocks until the returned release
// func is called, from its own goroutine, and waits until it is running —
// so the caller's subsequent posts deterministically hit the queued
// (dirty) path while a foreign goroutine owns the state machine.
func seizeExecutor(t *testing.T, n *Node) (release func()) {
	t.Helper()
	started := make(chan struct{})
	gate := make(chan struct{})
	go n.post(func() { close(started); <-gate })
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("executor blocker never started")
	}
	return func() { close(gate) }
}

// queueLen reads the pending-function count the way post does.
func queueLen(n *Node) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.queue)
}

func waitQueueLen(t *testing.T, n *Node, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for queueLen(n) != want {
		if time.Now().After(deadline) {
			t.Fatalf("queue length %d never reached %d", queueLen(n), want)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestExecutorReentrantPost: a post from inside an inline-executed step
// must not run recursively on the poster's stack — it runs after the
// current step returns, preserving the deferred semantics self-sends and
// OnCSDone handoffs rely on.
func TestExecutorReentrantPost(t *testing.T) {
	n, _ := newExecNode(t)
	defer n.Close()

	var order []int
	n.post(func() {
		n.post(func() {
			n.post(func() { order = append(order, 3) })
			order = append(order, 2)
		})
		order = append(order, 1)
	})
	// post returned with the executor drained on this very goroutine, so
	// order is complete and same-goroutine visible.
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("reentrant posts ran in order %v, want [1 2 3]", order)
	}
}

// TestExecutorQueueOrderFIFO: functions queued while a foreign goroutine
// owns the executor run in exactly the order they were posted — the
// queued-loop implementation's ordering contract, which the dirty-flag
// re-drain must preserve.
func TestExecutorQueueOrderFIFO(t *testing.T) {
	n, _ := newExecNode(t)
	defer n.Close()

	release := seizeExecutor(t, n)
	const k = 32
	var order []int
	done := make(chan struct{})
	for i := 0; i < k; i++ {
		i := i
		n.post(func() {
			order = append(order, i)
			if len(order) == k {
				close(done)
			}
		})
		// Sequence the posts: each must be enqueued before the next is
		// issued, so the expected order is exact, not probabilistic.
		waitQueueLen(t, n, i+1)
	}
	release()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("queued posts never drained")
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("post %d ran at position %d (order %v)", got, i, order)
		}
	}
}

// TestExecutorGrantOrderMatchesQueuedLoop: a fixed-seed run of the real
// core protocol where Lock calls are enqueued in a known order while the
// executor is held must grant in that same order — the observable
// behavior of the old queued-loop implementation. This is the
// interleaving test from the inline-dispatch change: inline execution may
// move WHERE protocol steps run, never in what order grants happen.
func TestExecutorGrantOrderMatchesQueuedLoop(t *testing.T) {
	tr := &recTransport{}
	n, err := newNode(config{
		ID: 0, N: 1, Transport: tr, TraceDepth: -1,
		Factory: registry.CoreLiveFactory(core.Options{Treq: 0.001, Tfwd: 0.001}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	release := seizeExecutor(t, n)
	const k = 8
	var (
		mu    sync.Mutex
		order []int
		wg    sync.WaitGroup
	)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := n.Lock(ctx); err != nil {
				t.Errorf("Lock %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			n.Unlock()
		}(i)
		// Each LockFence posts exactly one function; waiting for the queue
		// to grow fixes the post (and therefore waiter) order as 0..k-1.
		waitQueueLen(t, n, i+1)
	}
	release()
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != k {
		t.Fatalf("granted %d of %d locks: %v", len(order), k, order)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("grant order %v diverges from request order at position %d", order, i)
		}
	}
}

// TestExecutorTimerRacesInlineDispatch: short-service and runtime timers
// firing concurrently with posts from many goroutines. Every posted
// function mutates a PLAIN (non-atomic) counter — under -race this is the
// proof that the executor's mutual exclusion holds across all three entry
// points (posters, the short-timer runner, time.AfterFunc goroutines).
func TestExecutorTimerRacesInlineDispatch(t *testing.T) {
	n, _ := newExecNode(t)
	defer n.Close()

	hits := 0 // executor-confined on purpose; -race arbitrates
	const (
		posters   = 4
		perPost   = 200
		shortTmrs = 50
		longTmrs  = 10
	)
	var wg sync.WaitGroup
	for g := 0; g < posters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPost; i++ {
				n.post(func() { hits++ })
			}
		}()
	}
	for i := 0; i < shortTmrs; i++ {
		n.After(0, 0.0002, func() { hits++ }) // short-timer service path
	}
	for i := 0; i < longTmrs; i++ {
		n.After(0, 0.003, func() { hits++ }) // time.AfterFunc path
	}
	wg.Wait()

	want := posters*perPost + shortTmrs + longTmrs
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := 0
		done := make(chan struct{})
		n.post(func() { got = hits; close(done) })
		<-done
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("executor ran %d of %d posted functions", got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExecutorTimerCancelRace: a timer cancelled after it fired but
// before its posted step ran must be suppressed — the canceled flag is
// checked under the executor, which is what closes the stop/fire race the
// old loop closed by construction.
func TestExecutorTimerCancelRace(t *testing.T) {
	n, _ := newExecNode(t)
	defer n.Close()

	release := seizeExecutor(t, n)
	fired := make(chan struct{})
	tmr := n.After(0, 0.0002, func() { close(fired) })
	// Let the short-timer runner pop and fire the entry: it posts the
	// protocol step, which queues behind the seized executor instead of
	// running. The table entry must outlive the pop, or Cancel below
	// would miss it and the step would run.
	waitQueueLen(t, n, 1)
	if pending := armedTimers(n); pending != 1 {
		t.Fatalf("timer table holds %d entries between fire and step, want 1", pending)
	}
	tmr.Cancel()
	release()
	// Flush the executor; the queued step must have seen the flag.
	sync := make(chan struct{})
	n.post(func() { close(sync) })
	<-sync
	select {
	case <-fired:
		t.Fatal("cancelled timer's function ran")
	default:
	}
}

// newCoreExecNode is a 1-node live Node running the real protocol with
// 1 ms phases and recovery off, so an idle node arms no timers at all.
func newCoreExecNode(t *testing.T) *Node {
	t.Helper()
	n, err := newNode(config{
		ID: 0, N: 1, Transport: &recTransport{}, TraceDepth: -1,
		Factory: registry.CoreLiveFactory(core.Options{Treq: 0.001, Tfwd: 0.001}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// waitIdle waits until the token-return window is over and its step has
// run: no timer is armed but lax ones past their deadline, which run
// ahead of the next step as if they had fired, and (read after that) the
// executor is idle. runTimer frees its slot before it runs the callback,
// so an empty slab alone does not say the window's step is done. From
// then on nothing but the test's own calls drives the executor.
// pendingTimers counts the armed slots, leaving out lax ones whose
// deadline has passed.
func pendingTimers(n *Node) int {
	n.timersMu.Lock()
	defer n.timersMu.Unlock()
	now, pending := time.Now(), 0
	for i := range n.timers {
		if lt := &n.timers[i]; lt.fn != nil && !(lt.lax && !lt.due.After(now)) {
			pending++
		}
	}
	return pending
}

func waitIdle(t *testing.T, n *Node) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); pendingTimers(n) != 0 || n.execState.Load() != execIdle; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the node never went idle")
		}
	}
}

// TestCancelledLockKeepsInlineGrant: on an idle node that holds the
// token, LockFence's own post grants the request before LockFence waits.
// That grant is already in hand, so LockFence returns it even under a
// cancelled context, every time: select's random choice between the
// grant and ctx.Done must not throw it back.
func TestCancelledLockKeepsInlineGrant(t *testing.T) {
	n := newCoreExecNode(t)
	defer n.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// The key's first request waits one window and leaves the batch
	// history that lets the next lone request skip it.
	last, err := n.LockFence(ctx)
	if err != nil {
		t.Fatal(err)
	}
	n.Unlock()

	gone, giveUp := context.WithCancel(ctx)
	giveUp()
	for i := 0; i < 200; i++ {
		waitIdle(t, n)
		fence, err := n.LockFence(gone)
		if err != nil {
			t.Fatalf("call %d: LockFence with its grant in hand = %v, want the fence", i, err)
		}
		if fence <= last {
			t.Fatalf("call %d: fence %d after %d", i, fence, last)
		}
		last = fence
		n.Unlock()
	}
}

// TestLockCancelledBeforeItsGrantStepReleases: a Lock cancelled while
// its enqueue step is still queued gives up with context.Canceled. Its
// cancellation step queues behind the enqueue step, so the grant the
// enqueue step makes (inline: the arbiter is idle) lands first, and the
// cancellation step must hand that CS back. Otherwise the node holds
// the CS for nobody and the next Lock waits forever.
func TestLockCancelledBeforeItsGrantStepReleases(t *testing.T) {
	n := newCoreExecNode(t)
	defer n.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.Lock(ctx); err != nil { // warm the batch history, as above
		t.Fatal(err)
	}
	n.Unlock()
	waitIdle(t, n)

	release := seizeExecutor(t, n)
	abandoned, giveUp := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() {
		_, err := n.LockFence(abandoned)
		done <- err
	}()
	waitQueueLen(t, n, 1)
	giveUp()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("LockFence cancelled before its grant = %v, want context.Canceled", err)
	}
	release()
	flushed := make(chan struct{})
	n.post(func() { close(flushed) })
	<-flushed
	if granted, released := n.Stats(); granted != 2 || released != 2 {
		t.Fatalf("after the cancelled Lock: granted %d, released %d, want 2 and 2", granted, released)
	}
	if err := n.Lock(ctx); err != nil {
		t.Fatalf("Lock after the cancelled grant was handed back: %v", err)
	}
	n.Unlock()
}

// TestExecutorCloseWhileForeignOwner: Close called while another
// goroutine owns the state machine must wait for that owner's drain
// (running everything already queued), then retire the executor, leave
// the shared transport to its owner, and fail subsequent API calls with
// ErrClosed.
func TestExecutorCloseWhileForeignOwner(t *testing.T) {
	n, tr := newExecNode(t)

	release := seizeExecutor(t, n)
	markerRan := false
	n.post(func() { markerRan = true })

	closeDone := make(chan struct{})
	go func() { n.Close(); close(closeDone) }()
	select {
	case <-closeDone:
		t.Fatal("Close returned while a foreign goroutine owned the executor")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	select {
	case <-closeDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after the owner released")
	}

	if !markerRan {
		t.Error("function posted before Close was dropped")
	}
	if tr.closedTr.Load() {
		t.Error("Close closed the shared transport, which the Manager owns")
	}
	if got := n.execState.Load(); got != execClosed {
		t.Errorf("executor state %d after Close, want execClosed", got)
	}
	if err := n.Lock(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("Lock after Close: %v, want ErrClosed", err)
	}
	// post after Close must drop the function before it is enqueued —
	// assert on the queue directly instead of sleeping for a side effect
	// that, by design, can never arrive.
	n.post(func() { t.Error("post after Close executed") })
	n.mu.Lock()
	qlen := len(n.queue)
	n.mu.Unlock()
	if qlen != 0 {
		t.Errorf("post after Close enqueued %d functions", qlen)
	}
}
