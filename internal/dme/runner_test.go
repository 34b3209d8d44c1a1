package dme

import (
	"errors"
	"reflect"
	"testing"

	"tokenarbiter/internal/sim"
)

// stubAlgo builds trivially-granting nodes: every request enters the CS
// as soon as a GRANT self-message round-trips, serialized through node 0.
// It exists to exercise the Runner itself, not any real protocol.
type stubAlgo struct {
	misbehave string // "", "double-enter", "phantom-enter", "stall"
}

func (a *stubAlgo) Name() string { return "stub" }

func (a *stubAlgo) Build(cfg Config) ([]Node, error) {
	nodes := make([]Node, cfg.N)
	shared := &stubState{}
	for i := 0; i < cfg.N; i++ {
		nodes[i] = &stubNode{id: i, shared: shared, misbehave: a.misbehave}
	}
	return nodes, nil
}

type stubState struct {
	busy  bool
	queue []int
}

type stubNode struct {
	id        int
	shared    *stubState
	misbehave string
	pending   int
}

type grant struct{}

func (grant) Kind() string { return "GRANT" }

func (n *stubNode) ID() int          { return n.id }
func (n *stubNode) Init(ctx Context) {}

func (n *stubNode) OnRequest(ctx Context) {
	switch n.misbehave {
	case "phantom-enter":
		ctx.EnterCS(n.id)
		ctx.EnterCS(n.id) // enters again with no pending request
		return
	case "stall":
		return // never grants: the run can never drain
	}
	n.pending++
	if !n.shared.busy {
		n.shared.busy = true
		ctx.EnterCS(n.id)
		if n.misbehave == "double-enter" {
			ctx.EnterCS(n.id)
		}
	} else {
		n.shared.queue = append(n.shared.queue, n.id)
	}
}

func (n *stubNode) OnMessage(ctx Context, from NodeID, msg Message) {}

func (n *stubNode) OnCSDone(ctx Context) {
	n.pending--
	if len(n.shared.queue) > 0 {
		// Not our node necessarily — but the runner only cares that
		// EnterCS matches some pending request at that node.
		next := n.shared.queue[0]
		n.shared.queue = n.shared.queue[1:]
		ctx.EnterCS(next)
		return
	}
	n.shared.busy = false
}

func stubConfig(total uint64) Config {
	return Config{
		N:              3,
		Seed:           1,
		Delay:          sim.ConstantDelay{D: 0.01},
		Texec:          0.01,
		TotalRequests:  total,
		MaxVirtualTime: 1e6,
		Gen: func(node NodeID) GeneratorFunc {
			return func() float64 { return 0.05 }
		},
	}
}

func TestRunnerHappyPath(t *testing.T) {
	m, err := Run(&stubAlgo{}, stubConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	if m.CSCompleted != 100 {
		t.Errorf("completed %d, want 100", m.CSCompleted)
	}
}

func TestRunnerDetectsDoubleEnter(t *testing.T) {
	_, err := Run(&stubAlgo{misbehave: "double-enter"}, stubConfig(10))
	var sv *SafetyViolationError
	if !errors.As(err, &sv) {
		t.Fatalf("err = %v, want SafetyViolationError", err)
	}
}

func TestRunnerDetectsStall(t *testing.T) {
	_, err := Run(&stubAlgo{misbehave: "stall"}, stubConfig(10))
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
}

func TestRunnerLivenessTimeout(t *testing.T) {
	cfg := stubConfig(10)
	cfg.MaxVirtualTime = 0.01 // absurdly tight
	algo := &stubAlgo{misbehave: "stall"}
	// A stalled run with a periodic timer keeps the queue non-empty, so
	// the liveness backstop (not ErrStalled) fires.
	r, err := NewRunner(algo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.ScheduleAt(0.005, func() { heartbeat(r) })
	_, err = r.Run()
	if !errors.Is(err, ErrLivenessTimeout) {
		t.Fatalf("err = %v, want ErrLivenessTimeout", err)
	}
}

func heartbeat(r *Runner) {
	r.After(0, 0.005, func() { heartbeat(r) })
}

func TestRunnerRejectsBadBuilds(t *testing.T) {
	if _, err := NewRunner(&wrongCount{}, stubConfig(10)); err == nil {
		t.Error("wrong node count accepted")
	}
	if _, err := NewRunner(&wrongIDs{}, stubConfig(10)); err == nil {
		t.Error("wrong node ids accepted")
	}
}

type wrongCount struct{ stubAlgo }

func (w *wrongCount) Build(cfg Config) ([]Node, error) {
	nodes, _ := w.stubAlgo.Build(cfg)
	return nodes[:len(nodes)-1], nil
}

type wrongIDs struct{ stubAlgo }

func (w *wrongIDs) Build(cfg Config) ([]Node, error) {
	nodes, _ := w.stubAlgo.Build(cfg)
	nodes[0], nodes[1] = nodes[1], nodes[0]
	return nodes, nil
}

func TestRunnerWarmupExcludesEarlyTraffic(t *testing.T) {
	cfg := stubConfig(200)
	cfg.WarmupRequests = 100
	m, err := Run(&stubAlgo{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.CSCompleted != 100 {
		t.Errorf("measured %d completions, want exactly post-warmup 100", m.CSCompleted)
	}
}

func TestRunnerFaultDrop(t *testing.T) {
	cfg := stubConfig(50)
	// Drop every message: the stub never sends any, so this must be
	// harmless; it verifies the interceptor wiring alone.
	cfg.Fault = func(now float64, from, to NodeID, msg Message) FaultAction { return Drop }
	if _, err := Run(&stubAlgo{}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunnerCrashAbandonsPending(t *testing.T) {
	cfg := stubConfig(60)
	r, err := NewRunner(&stubAlgo{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.ScheduleAt(0.2, func() { r.Crash(1) })
	if _, err := r.Run(); err != nil {
		t.Fatalf("crash run: %v", err)
	}
	if !r.Crashed(1) {
		t.Error("Crashed(1) = false")
	}
	r.Restart(1, &stubNode{id: 1, shared: r.Node(1).(*stubNode).shared})
	if r.Crashed(1) {
		t.Error("Restart did not clear the crash flag")
	}
}

// restartNode enters the CS on each request and, when armed, sets a
// timer at Init; every callback it gets is logged under its name.
type restartNode struct {
	id   int
	name string
	arm  float64 // timer delay at Init; 0 arms none
	log  *[]string
}

func (n *restartNode) ID() int { return n.id }
func (n *restartNode) Init(ctx Context) {
	if n.arm > 0 {
		ctx.After(n.id, n.arm, func() { *n.log = append(*n.log, n.name+" timer") })
	}
}
func (n *restartNode) OnRequest(ctx Context)                           { ctx.EnterCS(n.id) }
func (n *restartNode) OnMessage(ctx Context, from NodeID, msg Message) {}
func (n *restartNode) OnCSDone(ctx Context) {
	*n.log = append(*n.log, n.name+" cs-done")
}

type restartAlgo struct{ log *[]string }

func (a restartAlgo) Name() string { return "restart-stub" }
func (a restartAlgo) Build(cfg Config) ([]Node, error) {
	return []Node{
		&restartNode{id: 0, name: "old", arm: 1, log: a.log},
		&restartNode{id: 1, name: "peer", log: a.log},
	}, nil
}

// TestRestartIsAmnesiac: a restarted node is the fresh one alone. The old
// incarnation's timer (armed for t=1) and its CS exit (t=1.1) both come
// due after the Restart at t=0.5 and must reach nobody; the fresh
// incarnation's own timer fires.
func TestRestartIsAmnesiac(t *testing.T) {
	var log []string
	r, err := NewRunner(restartAlgo{log: &log}, Config{N: 2, Texec: 1, TotalRequests: 2})
	if err != nil {
		t.Fatal(err)
	}
	r.ScheduleAt(0.1, func() { r.InjectRequest(0) })
	r.ScheduleAt(0.5, func() { r.Restart(0, &restartNode{id: 0, name: "new", arm: 1, log: &log}) })
	r.ScheduleAt(2, func() { r.InjectRequest(1) })
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"new timer", "peer cs-done"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("callbacks %q, want %q: the old incarnation's timer or CS exit reached a node", log, want)
	}
}

func TestClosedLoopOneOutstandingPerNode(t *testing.T) {
	cfg := stubConfig(90)
	cfg.ClosedLoop = true
	cfg.Gen = func(node NodeID) GeneratorFunc {
		return func() float64 { return 0.001 }
	}
	m, err := Run(&stubAlgo{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.CSCompleted == 0 {
		t.Fatal("closed loop made no progress")
	}
	// In a closed loop each node serves roughly TotalRequests/N.
	for i, c := range m.PerNodeCS {
		if c == 0 {
			t.Errorf("node %d starved in closed loop", i)
		}
	}
}

func TestBroadcastCountsNMinusOne(t *testing.T) {
	cfg := stubConfig(1)
	r, err := NewRunner(&stubAlgo{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.ScheduleAt(0.001, func() { r.Broadcast(0, grant{}) })
	m, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.MsgByKind["GRANT"] != uint64(cfg.N-1) {
		t.Errorf("broadcast counted %d messages, want N-1 = %d",
			m.MsgByKind["GRANT"], cfg.N-1)
	}
}

func TestSelfSendNotCounted(t *testing.T) {
	cfg := stubConfig(1)
	r, err := NewRunner(&stubAlgo{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.ScheduleAt(0.001, func() { r.Send(0, 0, grant{}) })
	m, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.MsgByKind["GRANT"] != 0 {
		t.Errorf("self-send counted as %d network messages, want 0", m.MsgByKind["GRANT"])
	}
}
