package reqtrace

import (
	"fmt"
	"testing"

	"tokenarbiter/internal/core"
)

func TestMakeIDRoundTrip(t *testing.T) {
	cases := []struct {
		node int
		seq  uint64
	}{
		{0, 1}, {0, 2}, {1, 1}, {7, 12345}, {999, 1 << 39},
	}
	for _, c := range cases {
		id := MakeID(c.node, c.seq)
		if id == 0 {
			t.Fatalf("MakeID(%d, %d) = 0, the untraced sentinel", c.node, c.seq)
		}
		if id.Node() != c.node || id.Seq() != c.seq {
			t.Errorf("MakeID(%d, %d) decoded to (%d, %d)", c.node, c.seq, id.Node(), id.Seq())
		}
	}
	if got, want := MakeID(3, 14).String(), "3-14"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if got := ID(0).String(); got != "-" {
		t.Errorf("zero ID String() = %q, want -", got)
	}
}

// life is a test shorthand for one lifecycle record.
func life(id ID, ev string, at float64) Record {
	return Record{Trace: id, Ev: ev, T: at, Node: id.Node(), Peer: -1, Key: "k"}
}

// complete records a full enqueue→grant→release life for id.
func complete(c *Collector, id ID, start, wait, hold float64) {
	c.Record(life(id, EvRequest, start))
	c.Record(life(id, EvGrant, start+wait))
	c.Record(life(id, EvRelease, start+wait+hold))
}

func TestCollectorLifecycle(t *testing.T) {
	c := NewCollector(8)
	id := MakeID(1, 1)
	c.Record(life(id, EvRequest, 0.0))
	c.Record(Record{Trace: id, Ev: core.EventRequestAccepted.String(), T: 0.1, Node: 2, Peer: 2, Key: "k", Batch: 3})
	c.Record(Record{Trace: id, Ev: core.EventTokenPassed.String(), T: 0.2, Node: 2, Peer: 1, Key: "k"})
	c.Record(Record{Trace: id, Ev: EvGrant, T: 0.3, Node: 1, Peer: -1, Key: "k", Fence: 9})

	if done, open, _ := c.Totals(); done != 0 || open != 1 {
		t.Fatalf("before release: totals = (%d done, %d open)", done, open)
	}
	c.Record(life(id, EvRelease, 0.5))
	if done, open, _ := c.Totals(); done != 1 || open != 0 {
		t.Fatalf("after release: totals = (%d done, %d open)", done, open)
	}

	tr, ok := c.Lookup(id)
	if !ok {
		t.Fatal("completed trace not found by Lookup")
	}
	if tr.Key != "k" || len(tr.Events) != 5 {
		t.Fatalf("trace key %q with %d records, want k with 5", tr.Key, len(tr.Events))
	}
	if w := tr.Wait(); w < 0.299 || w > 0.301 {
		t.Errorf("Wait() = %v, want 0.3", w)
	}
	if h := tr.Hold(); h < 0.199 || h > 0.201 {
		t.Errorf("Hold() = %v, want 0.2", h)
	}
	if tr.Hops() != 1 {
		t.Errorf("Hops() = %d, want 1", tr.Hops())
	}
	if tr.Fence() != 9 {
		t.Errorf("Fence() = %d, want 9", tr.Fence())
	}

	sum := tr.Summarize()
	if sum.ID != "1-1" || sum.Fence != 9 || sum.Hops != 1 {
		t.Errorf("summary header %+v", sum)
	}
	if len(sum.Steps) != 5 {
		t.Fatalf("summary has %d steps, want 5", len(sum.Steps))
	}
	if sum.Steps[0].Delta != 0 {
		t.Errorf("first step delta = %v, want 0", sum.Steps[0].Delta)
	}
	// Each later delta is the gap to the previous record.
	if d := sum.Steps[2].Delta; d < 0.099 || d > 0.101 {
		t.Errorf("token-passed delta = %v, want 0.1", d)
	}
}

func TestCollectorRingEviction(t *testing.T) {
	c := NewCollector(2)
	for i := 1; i <= 3; i++ {
		complete(c, MakeID(0, uint64(i)), float64(i), 0.1, 0.1)
	}
	done := c.Completed()
	if len(done) != 2 {
		t.Fatalf("ring holds %d traces, want 2", len(done))
	}
	// Oldest first, and the very first completion is gone.
	if done[0].ID != MakeID(0, 2) || done[1].ID != MakeID(0, 3) {
		t.Errorf("ring = [%s, %s], want [0-2, 0-3]", done[0].ID, done[1].ID)
	}
	if _, ok := c.Lookup(MakeID(0, 1)); ok {
		t.Error("evicted trace still found by Lookup")
	}
	if total, _, _ := c.Totals(); total != 3 {
		t.Errorf("total completed = %d, want 3", total)
	}
}

func TestCollectorOpenEviction(t *testing.T) {
	c := NewCollector(4)
	// Open one more trace than the in-flight bound without ever releasing.
	for i := 1; i <= defaultMaxOpen+1; i++ {
		c.Record(life(MakeID(0, uint64(i)), EvRequest, float64(i)))
	}
	_, open, dropped := c.Totals()
	if open != defaultMaxOpen {
		t.Errorf("open = %d, want the %d bound", open, defaultMaxOpen)
	}
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1 (the oldest open trace)", dropped)
	}
}

func TestSlowest(t *testing.T) {
	c := NewCollector(16)
	waits := []float64{0.3, 0.1, 0.5, 0.2}
	for i, w := range waits {
		complete(c, MakeID(i, 1), 0, w, 0.01)
	}
	slow := c.Slowest(2)
	if len(slow) != 2 {
		t.Fatalf("Slowest(2) returned %d traces", len(slow))
	}
	if slow[0].ID != MakeID(2, 1) || slow[1].ID != MakeID(0, 1) {
		t.Errorf("Slowest(2) = [%s, %s], want [2-1, 0-1]", slow[0].ID, slow[1].ID)
	}
	if all := c.Slowest(-1); len(all) != 4 {
		t.Errorf("Slowest(-1) returned %d traces, want all 4", len(all))
	}
}

func TestSlowestFor(t *testing.T) {
	c := NewCollector(16)
	for i := 0; i < 4; i++ {
		id := MakeID(i, 1)
		key := fmt.Sprintf("key-%d", i%2)
		c.Record(Record{Trace: id, Ev: EvRequest, T: 0, Node: i, Peer: -1, Key: key})
		c.Record(Record{Trace: id, Ev: EvGrant, T: float64(i + 1), Node: i, Peer: -1, Key: key})
		c.Record(Record{Trace: id, Ev: EvRelease, T: float64(i + 2), Node: i, Peer: -1, Key: key})
	}
	slow := c.SlowestFor("key-1", 10)
	if len(slow) != 2 {
		t.Fatalf("SlowestFor(key-1) returned %d traces, want 2", len(slow))
	}
	for _, tr := range slow {
		if tr.Key != "key-1" {
			t.Errorf("SlowestFor returned key %q", tr.Key)
		}
	}
	if slow[0].Wait() < slow[1].Wait() {
		t.Error("SlowestFor not sorted slowest first")
	}
}

// TestNilCollector pins the disabled-tracing contract: every method is a
// no-op on a nil receiver, so call sites need no guards.
func TestNilCollector(t *testing.T) {
	var c *Collector
	c.Record(life(MakeID(0, 1), EvRequest, 0))
	if got := c.Completed(); got != nil {
		t.Errorf("nil Completed() = %v", got)
	}
	if a, b, d := c.Totals(); a != 0 || b != 0 || d != 0 {
		t.Error("nil Totals() non-zero")
	}
	if got := c.Slowest(3); got != nil {
		t.Errorf("nil Slowest() = %v", got)
	}
}

// TestZeroTraceIgnored pins that untraced records never pollute the
// collector — the zero ID is the "tracing off for this request" path.
func TestZeroTraceIgnored(t *testing.T) {
	c := NewCollector(4)
	c.Record(Record{Trace: 0, Ev: EvRequest, T: 0})
	if _, open, _ := c.Totals(); open != 0 {
		t.Errorf("zero-ID record opened a trace (open = %d)", open)
	}
}

// TestCollectorOrderBounded pins that the eviction FIFO does not outlive
// the traces it orders: completed traces used to leave their id in it
// forever (8 bytes per traced request on a long-running node), because
// only the open-table-full path ever popped. The second half keeps one
// trace open at the head throughout, the case a head-only pop would miss.
func TestCollectorOrderBounded(t *testing.T) {
	const n = 100_000
	c := NewCollector(4)
	for i := 1; i <= n; i++ {
		complete(c, MakeID(0, uint64(i)), float64(i), 0.1, 0.1)
	}
	if _, open, _ := c.Totals(); open != 0 || len(c.order) > 128 {
		t.Errorf("after %d completed traces: open=%d, order=%d entries", n, open, len(c.order))
	}

	c = NewCollector(4)
	c.Record(life(MakeID(1, 1), EvRequest, 0)) // never released
	for i := 1; i <= n; i++ {
		complete(c, MakeID(0, uint64(i)), float64(i), 0.1, 0.1)
	}
	if _, open, _ := c.Totals(); open != 1 || len(c.order) > 128 {
		t.Errorf("with one trace stuck open: open=%d, order=%d entries", open, len(c.order))
	}
	// The stuck trace is still first in line for eviction.
	if len(c.order) == 0 || c.order[0] != MakeID(1, 1) {
		t.Errorf("order head = %v, want the stuck trace 1-1", c.order)
	}
}

// The Ring tests moved here from internal/telemetry with the ring they
// test; the records are whatever a node emits, told apart by Batch.

func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Record(Record{Ev: "dispatched", Batch: i})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("len = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := 6 + i; ev.Batch != want {
			t.Errorf("event %d = batch %d, want %d", i, ev.Batch, want)
		}
	}
	if r.Total() != 10 {
		t.Errorf("total = %d, want 10", r.Total())
	}
}

func TestRingPartiallyFull(t *testing.T) {
	r := NewRing(8)
	r.Record(Record{Ev: "a"})
	r.Record(Record{Ev: "b"})
	evs := r.Events()
	if len(evs) != 2 || evs[0].Ev != "a" || evs[1].Ev != "b" {
		t.Errorf("events %+v", evs)
	}
}

func TestRingMinimumCapacity(t *testing.T) {
	r := NewRing(0)
	r.Record(Record{Ev: "a"})
	r.Record(Record{Ev: "b"})
	evs := r.Events()
	if len(evs) != 1 || evs[0].Ev != "b" {
		t.Errorf("events %+v", evs)
	}
}
