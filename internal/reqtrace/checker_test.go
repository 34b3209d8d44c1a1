package reqtrace

import (
	"slices"
	"strings"
	"testing"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/workload"
)

// Shorthands for scripted streams. Grants carry a trace ID derived from
// their node and time, so findings can be checked for naming both grants.
func grantOn(key string, at float64, node int, fence, epoch uint64) Record {
	return Record{T: at, Ev: EvGrant, Node: node, Peer: -1, Key: key, Fence: fence, Epoch: epoch,
		Trace: MakeID(node, uint64(at*1000)+1)}
}

func releaseOn(key string, at float64, node int) Record {
	return Record{T: at, Ev: EvRelease, Node: node, Peer: -1, Key: key}
}

func step(ev string, at float64, node int, epoch uint64) Record {
	return Record{T: at, Ev: ev, Node: node, Peer: node, Key: "k", Epoch: epoch}
}

var (
	roundStarted = core.EventInvalidationStarted.String()
	regenerated  = core.EventTokenRegenerated.String()
)

func TestCheckerVerdicts(t *testing.T) {
	g := func(at float64, node int, fence, epoch uint64) Record { return grantOn("k", at, node, fence, epoch) }
	rel := func(at float64, node int) Record { return releaseOn("k", at, node) }
	fault := Record{T: 0.5, Ev: EvFault, Node: -1, Peer: -1}
	cases := []struct {
		name                   string
		settle                 float64
		recs                   []Record
		rules                  []string // the violations' rules, in order; nil: safe
		stale, overlaps, twins int
	}{
		// A client-side feed or a baseline: one lineage, held to full
		// strictness on exclusion, fencing and pairing.
		{name: "clean", recs: []Record{
			grantOn("a", 1, 0, 1, 0), releaseOn("a", 1.1, 0),
			grantOn("b", 1.2, 0, 1, 0), releaseOn("b", 1.3, 0),
			grantOn("a", 1.4, 1, 2, 0), releaseOn("a", 1.5, 1),
		}},
		{name: "two holders", recs: []Record{g(1, 0, 1, 0), g(2, 1, 2, 0), rel(3, 0), rel(4, 1)},
			rules: []string{ruleOverlap}},
		{name: "fence repeats", recs: []Record{g(1, 0, 5, 0), rel(2, 0), g(3, 1, 5, 0), rel(4, 1)},
			rules: []string{ruleStale}},
		{name: "fence rewinds with no epoch to tell the lineages apart", recs: []Record{g(1, 0, 9, 0), rel(2, 0), g(3, 1, 3, 0), rel(4, 1)},
			rules: []string{ruleStale}},
		{name: "release without acquire", recs: []Record{rel(1, 0)}, rules: []string{rulePairing}},
		{name: "acquire never released", recs: []Record{g(1, 0, 1, 0)}, rules: []string{rulePairing}},
		{name: "second grant while one is open", recs: []Record{g(1, 0, 1, 0), g(2, 0, 2, 0), rel(3, 0)},
			rules: []string{rulePairing}},
		{name: "fence 0 is never stale", recs: []Record{g(1, 0, 0, 0), rel(2, 0), g(3, 1, 0, 0), rel(4, 1)}},
		{name: "close ends a grant", recs: []Record{
			g(1, 0, 1, 0), {T: 2, Ev: EvClose, Node: 0, Peer: -1, Key: "k"}, g(3, 1, 2, 0), rel(4, 1),
		}},

		// Across lineages, stale: fencing at work.
		{name: "stale grant of an older lineage", recs: []Record{
			step(roundStarted, 0.9, 0, 0), step(regenerated, 1, 0, 1),
			g(1.1, 0, 10, 1), rel(1.2, 0), g(1.3, 2, 6, 0), rel(1.4, 2),
		}, stale: 1},
		{name: "superseded token still granting after settle", settle: 5, recs: []Record{
			step(regenerated, 1, 0, 1), g(1.1, 0, 10, 1), rel(1.2, 0), g(7, 2, 6, 0), rel(7.1, 2),
		}, rules: []string{ruleSuperseded}, stale: 1},
		{name: "superseded token granting inside settle", settle: 10, recs: []Record{
			step(regenerated, 1, 0, 1), g(1.1, 0, 10, 1), rel(1.2, 0), g(7, 2, 6, 0), rel(7.1, 2),
		}, stale: 1},
		{name: "a newer lineage below an older one's fences is not superseded", settle: 5, recs: []Record{
			g(1, 2, 50, 0), rel(1.1, 2), step(regenerated, 2, 0, 1), g(20, 0, 10, 1), rel(20.1, 0),
		}, stale: 1},

		// Across lineages, overlap.
		{name: "the round began after the holder's grant", recs: []Record{
			g(1, 2, 5, 0), step(roundStarted, 1.1, 0, 0), step(regenerated, 1.2, 0, 1),
			g(1.3, 1, 10, 1), rel(1.4, 1), {T: 2, Ev: EvClose, Node: 2, Peer: -1, Key: "k"},
		}, overlaps: 1},
		{name: "the round began while a fault was open", recs: []Record{
			fault, step(roundStarted, 1, 0, 0), g(1.1, 2, 5, 0), step(regenerated, 1.2, 0, 1),
			{T: 1.25, Ev: EvHeal, Node: -1, Peer: -1}, g(1.3, 1, 10, 1), rel(1.4, 1), rel(1.5, 2),
		}, overlaps: 1},
		{name: "a fault on another key excuses nothing", recs: []Record{
			{T: 0.5, Ev: EvFault, Node: -1, Peer: -1, Key: "other"}, step(roundStarted, 1, 0, 0),
			g(1.1, 2, 5, 0), step(regenerated, 1.2, 0, 1), g(1.3, 1, 10, 1), rel(1.4, 1), rel(1.5, 2),
		}, rules: []string{ruleOverlap}},
		{name: "the old token granted after the round began", recs: []Record{
			step(roundStarted, 1, 0, 0), g(1.1, 2, 5, 0), step(regenerated, 1.2, 0, 1),
			g(1.3, 1, 10, 1), rel(1.4, 1), rel(1.5, 2),
		}, rules: []string{ruleOverlap}},
		{name: "the old token granted a fresh fence beside the new one", recs: []Record{
			step(roundStarted, 0.9, 0, 0), step(regenerated, 1, 0, 1), g(1.1, 0, 10, 1),
			g(1.2, 2, 11, 0), rel(1.3, 0), rel(1.4, 2),
		}, rules: []string{ruleOverlap}},

		// Twin epochs: counted, and judged as two lineages.
		{name: "twin epoch, stale across the twins", recs: []Record{
			step(roundStarted, 1, 0, 0), step(roundStarted, 1, 1, 0),
			step(regenerated, 1.1, 0, 1), step(regenerated, 1.2, 1, 1),
			g(1.3, 0, 10, 1), rel(1.35, 0), g(1.4, 1, 8, 1), rel(1.45, 1),
		}, stale: 1, twins: 1},
		{name: "twin epoch minted in a partition overlaps", recs: []Record{
			fault, step(roundStarted, 1, 0, 0), step(roundStarted, 1, 1, 0),
			step(regenerated, 1.1, 0, 1), step(regenerated, 1.2, 1, 1),
			g(1.3, 0, 10, 1), g(1.4, 1, 11, 1), rel(1.5, 0), rel(1.6, 1),
		}, overlaps: 1, twins: 1},
		{name: "twin epoch overlapping outside any fault", recs: []Record{
			step(roundStarted, 1, 0, 0), step(roundStarted, 1, 1, 0),
			step(regenerated, 1.1, 0, 1), step(regenerated, 1.2, 1, 1),
			g(1.3, 0, 10, 1), g(1.4, 1, 11, 1), rel(1.5, 0), rel(1.6, 1),
		}, rules: []string{ruleOverlap}, twins: 1},

		// Wedge: an enqueue outstanding and no grant for settle.
		{name: "wedged", settle: 10, recs: []Record{
			{T: 0, Ev: EvRequest, Node: 1, Peer: -1, Key: "k"}, g(0.1, 0, 1, 0), rel(0.2, 0),
			step("request-retransmitted", 5, 1, 0), step("request-retransmitted", 15, 1, 0),
		}, rules: []string{ruleWedged}},
		{name: "no wedge while a fault is open", settle: 10, recs: []Record{
			{T: 0, Ev: EvRequest, Node: 1, Peer: -1, Key: "k"}, g(0.1, 0, 1, 0), rel(0.2, 0), fault,
			step("request-retransmitted", 5, 1, 0), step("request-retransmitted", 15, 1, 0),
		}},
		{name: "no wedge with the time rules off", recs: []Record{
			{T: 0, Ev: EvRequest, Node: 1, Peer: -1, Key: "k"}, g(0.1, 0, 1, 0), rel(0.2, 0),
			step("request-retransmitted", 15, 1, 0),
		}},
		{name: "no wedge once the waiter is granted", settle: 10, recs: []Record{
			{T: 0, Ev: EvRequest, Node: 1, Peer: -1, Key: "k"}, g(0.1, 1, 1, 0), rel(0.2, 1),
			step("request-retransmitted", 15, 0, 0),
		}},
		{name: "close ends a wait", settle: 10, recs: []Record{
			{T: 0, Ev: EvRequest, Node: 1, Peer: -1, Key: "k"}, {T: 1, Ev: EvClose, Node: 1, Peer: -1, Key: "k"},
			step("request-retransmitted", 15, 0, 0),
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := Check(&Capture{Records: c.recs}, c.settle)
			var rules []string
			for _, x := range v.Violations {
				rules = append(rules, x.Rule)
			}
			if !slices.Equal(rules, c.rules) || v.Stale != c.stale || v.Overlaps != c.overlaps || v.Twins != c.twins {
				t.Errorf("verdict %s\nwant rules %v, stale-excused=%d overlaps-excused=%d twin-epochs=%d",
					v, c.rules, c.stale, c.overlaps, c.twins)
			}
			if (v.Err() == nil) != (len(c.rules) == 0) {
				t.Errorf("Err() = %v with %d violations", v.Err(), len(v.Violations))
			}
		})
	}
}

// TestCheckerFindingsNameBothGrants pins the finding format: an overlap
// names each grant's node, fence, epoch and trace ID, and a wedge names
// the waiting nodes, the last grant and the last transitions.
func TestCheckerFindingsNameBothGrants(t *testing.T) {
	a, b := grantOn("k", 1, 0, 4, 2), grantOn("k", 2, 1, 5, 2)
	c := NewChecker(0)
	c.Record(a)
	c.Record(b)
	v := c.Verdict()
	if len(v.Violations) == 0 || v.Violations[0].Rule != ruleOverlap {
		t.Fatalf("verdict %s, want an overlap first", v)
	}
	for _, want := range []string{"node 0 fence 4 epoch 2 trace " + a.Trace.String(), "node 1 fence 5 epoch 2 trace " + b.Trace.String()} {
		if !strings.Contains(v.Violations[0].Detail, want) {
			t.Errorf("finding %q does not name %q", v.Violations[0].Detail, want)
		}
	}

	c = NewChecker(10)
	c.Record(Record{T: 0, Ev: EvRequest, Node: 2, Peer: -1, Key: "k"})
	c.Record(grantOn("k", 0.5, 0, 7, 1))
	c.Record(releaseOn("k", 0.6, 0))
	c.Record(step(roundStarted, 20, 1, 1))
	v = c.Verdict()
	if len(v.Violations) != 1 {
		t.Fatalf("verdict %s, want one wedge", v)
	}
	for _, want := range []string{"nodes [2] wait", "node 0 fence 7 epoch 1", "invalidation-started(node 1"} {
		if !strings.Contains(v.Violations[0].Detail, want) {
			t.Errorf("wedge finding %q does not name %q", v.Violations[0].Detail, want)
		}
	}
}

// rewinder is a test-only algorithm that grants one node at a time —
// so the runner's two-in-the-CS check stays silent — while its fence
// counter rewinds every third grant: the duplicate-grant bug class that
// only fences expose.
type rewinder struct{}

func (rewinder) Name() string { return "rewinder" }

func (rewinder) Build(cfg dme.Config) ([]dme.Node, error) {
	lk := &rewindLock{}
	nodes := make([]dme.Node, cfg.N)
	for i := range nodes {
		nodes[i] = &rewindNode{id: i, lk: lk}
	}
	return nodes, nil
}

type rewindLock struct {
	busy   bool
	queue  []*rewindNode
	grants uint64
}

type rewindNode struct {
	id    int
	lk    *rewindLock
	fence uint64
}

func (n *rewindNode) ID() int                                 { return n.id }
func (n *rewindNode) Init(dme.Context)                        {}
func (n *rewindNode) OnMessage(dme.Context, int, dme.Message) {}
func (n *rewindNode) GrantFence() (fence, epoch uint64)       { return n.fence, 0 }

func (n *rewindNode) OnRequest(ctx dme.Context) {
	if n.lk.busy {
		n.lk.queue = append(n.lk.queue, n)
		return
	}
	n.enter(ctx)
}

func (n *rewindNode) OnCSDone(ctx dme.Context) {
	n.lk.busy = false
	if len(n.lk.queue) > 0 {
		next := n.lk.queue[0]
		n.lk.queue = n.lk.queue[1:]
		next.enter(ctx)
	}
}

func (n *rewindNode) enter(ctx dme.Context) {
	n.lk.busy = true
	n.lk.grants++
	n.fence = n.lk.grants%3 + 1
	ctx.EnterCS(n.id)
}

func simConfig(n int, requests uint64, trace func(dme.TraceEvent)) dme.Config {
	return dme.Config{
		N: n, Seed: 1, Texec: 0.1, TotalRequests: requests, MaxVirtualTime: 1e6,
		Gen: func(node int) dme.GeneratorFunc {
			return workload.Stream(workload.Poisson{Lambda: 0.2}, 1, node)
		},
		Trace: trace,
	}
}

// TestCheckerCatchesRewindingFence feeds the checker from the simulator:
// a fence rewind the runner's exclusion check cannot see is a same-lineage
// stale grant.
func TestCheckerCatchesRewindingFence(t *testing.T) {
	checker := NewChecker(0)
	tracer := NewSimTracer(checker, "k", 3)
	if _, err := dme.Run(rewinder{}, simConfig(3, 30, tracer.Trace)); err != nil {
		t.Fatalf("the runner flagged the rewinder: %v", err)
	}
	v := checker.Verdict()
	if len(v.Violations) == 0 || v.Violations[0].Rule != ruleStale || !strings.Contains(v.Violations[0].Detail, "same lineage") {
		t.Fatalf("verdict %s, want a same-lineage stale grant first", v)
	}
}

// TestCheckerJudgesCoreTokenLoss runs the paper's algorithm with §6
// recovery in the simulator, drops one PRIVILEGE in flight, and judges
// the run from its records: clean, with the lost token regenerated.
func TestCheckerJudgesCoreTokenLoss(t *testing.T) {
	checker := NewChecker(100)
	collector := NewCollector(8)
	sinks := Sinks{checker, collector}
	var r *dme.Runner
	algo := core.New(core.Options{
		Treq: 0.1, Tfwd: 0.1, RetransmitTimeout: 25,
		Recovery: core.RecoveryOptions{Enabled: true, TokenTimeout: 8, RoundTimeout: 2, ArbiterTimeout: 20, ProbeTimeout: 2},
		Observer: CoreObserver(sinks, "k", func() float64 { return r.Now() }),
	})
	dropped := false
	cfg := simConfig(5, 2000, NewSimTracer(sinks, "k", 5).Trace)
	cfg.Fault = func(now float64, _, _ dme.NodeID, msg dme.Message) dme.FaultAction {
		if !dropped && now >= 20 && msg.Kind() == core.KindPrivilege {
			dropped = true
			return dme.Drop
		}
		return dme.Deliver
	}
	var err error
	if r, err = dme.NewRunner(algo, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	v := checker.Verdict()
	if err := v.Err(); err != nil || !dropped {
		t.Fatalf("dropped=%v verdict %s", dropped, v)
	}
	ks := checker.keys["k"]
	if len(ks.mints) == 0 || v.Accepted["k"] != 2000 {
		t.Fatalf("verdict %s with %d epochs minted, want 2000 accepted grants and a regeneration", v, len(ks.mints))
	}
	if done, _, _ := collector.Totals(); done != 2000 {
		t.Errorf("the collector beside the checker completed %d traces, want 2000", done)
	}
	// The last request was served by the regenerated token: its grant and
	// release carry that token's epoch.
	last := collector.Completed()[7].Events
	grantRec, releaseRec := last[len(last)-2], last[len(last)-1]
	if grantRec.Ev != EvGrant || grantRec.Epoch == 0 || grantRec.Fence == 0 ||
		releaseRec.Epoch != grantRec.Epoch || releaseRec.Fence != grantRec.Fence {
		t.Errorf("last trace ends %+v, %+v; want a grant and release of one regenerated epoch and fence", grantRec, releaseRec)
	}
}
