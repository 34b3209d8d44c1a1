package faultnet_test

import (
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/faultnet"
	"tokenarbiter/internal/sim"
	"tokenarbiter/internal/transport"
)

// seqMsg is a message that says which send it was.
type seqMsg struct {
	K   string
	Seq int
}

func (m seqMsg) Kind() string { return m.K }

// send is one entry of the scripted traffic both carriers carry.
type send struct{ from, to dme.NodeID }

const (
	carrierN    = 4
	partitionAt = 100 // sends [partitionAt, healAt) see nodes 0 and 2 cut apart
	healAt      = 200
)

// script is the traffic: every ordered pair in turn, kinds alternating.
func script() []seqMsg {
	msgs := make([]seqMsg, 300)
	for i := range msgs {
		msgs[i] = seqMsg{K: []string{"REQUEST", "PRIVILEGE", "NEW-ARBITER"}[i%3], Seq: i}
	}
	return msgs
}

func (s seqMsg) link() send {
	from := s.Seq % carrierN
	to := (from + 1 + (s.Seq/carrierN)%(carrierN-1)) % carrierN
	return send{from, to}
}

// carrierSpec is the fault model both carriers run; its delays are a few
// milliseconds so the live carrier's timers come due fast.
const carrierSpec = "drop=0.1,dup=0.2,corrupt=0.05,delay=1ms,jitter=2ms,reorder=0.2,window=3ms,seed=9"

func newSpecInjector(t *testing.T) *faultnet.Injector {
	t.Helper()
	spec, err := faultnet.ParseSpec(carrierSpec)
	if err != nil {
		t.Fatal(err)
	}
	return faultnet.New(faultnet.Options{Seed: spec.Seed, Faults: spec.Faults, OnFault: func(error) {}})
}

// cut applies the script's partition window before send i.
func cut(inj *faultnet.Injector, i int) {
	switch i {
	case partitionAt:
		inj.Partition([]int{0}, []int{2})
	case healAt:
		inj.Heal()
	}
}

// seqLog collects, per send, the wall time at which each copy reached
// the fake wire.
type seqLog struct {
	mu     sync.Mutex
	copies map[int][]time.Time
	n      int
}

func (l *seqLog) Self() dme.NodeID { return 0 }
func (l *seqLog) Send(to dme.NodeID, msg dme.Message) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq := msg.(seqMsg).Seq
	l.copies[seq] = append(l.copies[seq], time.Now())
	l.n++
	return nil
}
func (l *seqLog) SetHandler(transport.Handler) {}
func (l *seqLog) Close() error                 { return nil }

func (l *seqLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// endpointOf gives the fake wire node self's identity.
type endpointOf struct {
	*seqLog
	self dme.NodeID
}

func (e endpointOf) Self() dme.NodeID { return e.self }

// idleAlgo builds nodes that do nothing but serve a request at once.
type idleAlgo struct{}

type idleNode struct{ id int }

func (idleAlgo) Name() string { return "idle" }
func (idleAlgo) Build(cfg dme.Config) ([]dme.Node, error) {
	nodes := make([]dme.Node, cfg.N)
	for i := range nodes {
		nodes[i] = idleNode{i}
	}
	return nodes, nil
}
func (n idleNode) ID() int                                      { return n.id }
func (idleNode) Init(dme.Context)                               {}
func (n idleNode) OnRequest(ctx dme.Context)                    { ctx.EnterCS(n.id) }
func (idleNode) OnMessage(dme.Context, dme.NodeID, dme.Message) {}
func (idleNode) OnCSDone(dme.Context)                           {}

// TestOneDecisionTwoCarriers: one ParseSpec string and seed, one sequence
// of (from, to, kind), give the same fates and Counters through the live
// endpoint and through Runner.Send, and each simulated copy arrives
// exactly its fate's delay after the network's.
func TestOneDecisionTwoCarriers(t *testing.T) {
	msgs := script()

	// The reference: the decision alone.
	ref := newSpecInjector(t)
	fates := make([]dme.FaultAction, len(msgs))
	want := 0
	for i, m := range msgs {
		cut(ref, i)
		l := m.link()
		fates[i] = ref.Intercept(0, l.from, l.to, m)
		want += fates[i].Copies
	}
	seen := map[int]bool{}
	for _, f := range fates {
		seen[f.Copies] = true
	}
	if !seen[0] || !seen[1] || !seen[2] {
		t.Fatalf("spec %q gave copies %v over %d sends; want drops, singles and duplicates", carrierSpec, seen, len(msgs))
	}

	// The live carrier: each node's endpoint wrapped by one injector.
	// Each copy must arrive no earlier than its fate's delay.
	live := newSpecInjector(t)
	wire := &seqLog{copies: map[int][]time.Time{}}
	eps := make([]transport.Transport, carrierN)
	for i := range eps {
		eps[i] = transport.Chain(endpointOf{wire, i}, live.Middleware())
	}
	sentAt := make([]time.Time, len(msgs))
	for i, m := range msgs {
		cut(live, i)
		l := m.link()
		sentAt[i] = time.Now()
		_ = eps[l.from].Send(l.to, m)
	}
	deadline := time.Now().Add(5 * time.Second)
	for wire.count() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // a copy too many would show now
	if got := wire.count(); got != want {
		t.Fatalf("live carrier delivered %d copies, the decision says %d", got, want)
	}
	wire.mu.Lock()
	for i, f := range fates {
		var after []float64
		for _, at := range wire.copies[i] {
			after = append(after, at.Sub(sentAt[i]).Seconds())
		}
		delays := sorted(f.Delay[:f.Copies])
		sort.Float64s(after)
		if len(after) != len(delays) {
			t.Fatalf("send %d: live carrier delivered %d copies, fate %+v", i, len(after), f)
		}
		for k := range after {
			if after[k] < delays[k]-1e-6 {
				t.Fatalf("send %d: live copies arrived %v s after the send, fate delays %v", i, after, delays)
			}
		}
	}
	wire.mu.Unlock()

	// The simulated carrier: the same sends from ScheduleAt, the
	// partition window likewise.
	simInj := newSpecInjector(t)
	const net = 0.1
	sent := make([]float64, len(msgs))
	simLog := map[int][]float64{}
	cfg := dme.Config{
		N: carrierN, Texec: 0.01, TotalRequests: 1,
		Delay: sim.ConstantDelay{D: net},
		Fault: simInj.Intercept,
		Trace: func(ev dme.TraceEvent) {
			if ev.Kind == dme.TraceDeliver {
				seq := ev.Msg.(seqMsg).Seq
				simLog[seq] = append(simLog[seq], ev.Time-sent[seq]-net)
			}
		},
	}
	r, err := dme.NewRunner(idleAlgo{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range msgs {
		at := float64(i+1) * 0.5
		r.ScheduleAt(at, func() {
			cut(simInj, i)
			l := m.link()
			sent[i] = r.Now()
			r.Send(l.from, l.to, m)
		})
	}
	r.ScheduleAt(float64(len(msgs)+10)*0.5, func() { r.InjectRequest(0) })
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	for i, f := range fates {
		wantDelays := sorted(f.Delay[:f.Copies])
		got := sorted(simLog[i])
		if len(got) != len(wantDelays) {
			t.Fatalf("send %d: simulator delivered %d copies, fate %+v", i, len(got), f)
		}
		for k := range got {
			if math.Abs(got[k]-wantDelays[k]) > 1e-9 {
				t.Fatalf("send %d: simulated copies arrived %v after the network delay, fate says %v", i, got, wantDelays)
			}
		}
	}

	if c, l, s := ref.Counters(), live.Counters(), simInj.Counters(); c != l || c != s {
		t.Fatalf("counters differ:\ndecision %+v\nlive     %+v\nsim      %+v", c, l, s)
	}
	if c := ref.Counters(); c.Drops == 0 || c.Dups == 0 || c.Corruptions == 0 || c.Delayed == 0 || c.Reordered == 0 || c.PartitionDrops == 0 {
		t.Fatalf("spec %q left a fault unexercised: %+v", carrierSpec, c)
	}
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}
