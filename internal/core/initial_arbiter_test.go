package core_test

import (
	"testing"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/sim"
)

// TestInitialArbiterCrashIsDetected pins hardening item 13: the initial
// arbiter has a watchdog. §6 makes the *previous* arbiter the watchdog of
// the current one, and node 0 — the arbiter by initialization, designated
// by nobody — has no previous arbiter. As long as its batches end in its
// own request (tail = self) it never broadcasts a NEW-ARBITER either, so
// no watchdog is ever armed anywhere, and if it then dies the token its
// last batch was serving travels to a dead node and the group stalls
// forever. The minimal schedule, five scripted events on N = 3:
//
//	1.00  node 1 requests           → REQUEST to arbiter 0
//	1.12  node 0 requests           → batch {1,0}: tail is the arbiter itself, no broadcast
//	1.35  node 0 crashes            (node 1 is in the CS)
//	1.40  node 1's token → node 0   lost: nobody was ever "previous arbiter"
//	3.00  nodes 1 and 2 request     → REQUESTs to the dead arbiter, retransmitted forever
//
// With node 1 standing in as node 0's predecessor from Init, its watchdog
// probes at ArbiterTimeout, takes over on silence, runs one ENQUIRY round
// and regenerates the token.
func TestInitialArbiterCrashIsDetected(t *testing.T) {
	rec := &dme.TraceRecorder{}
	cfg := dme.Config{
		N:              3,
		Seed:           1,
		Delay:          sim.ConstantDelay{D: 0.1},
		Texec:          0.1,
		TotalRequests:  4,
		MaxVirtualTime: 500,
		Trace:          rec.Record,
	}
	opts := core.Options{
		RetransmitTimeout: 5,
		Recovery: core.RecoveryOptions{
			Enabled:        true,
			TokenTimeout:   2,
			RoundTimeout:   0.5,
			ArbiterTimeout: 4,
			ProbeTimeout:   0.5,
		},
	}
	r, err := dme.NewRunner(core.New(opts), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.ScheduleAt(1.00, func() { r.InjectRequest(1) })
	r.ScheduleAt(1.12, func() { r.InjectRequest(0) })
	r.ScheduleAt(1.35, func() {
		if ins, _ := core.Inspect(r.Node(1)); !ins.InCS {
			t.Errorf("schedule drifted: node 1 not in the CS at the crash (%+v)", ins)
		}
		r.Crash(0)
	})
	r.ScheduleAt(3.00, func() { r.InjectRequest(1); r.InjectRequest(2) })
	m, err := r.Run()
	if err != nil {
		t.Fatalf("run did not drain (the parent stalls to MaxVirtualTime here): %v", err)
	}
	// Node 0's own request died with it (completed vacuously); the three
	// others must all have been served.
	if m.CSCompleted != 3 {
		t.Fatalf("completed %d critical sections, want 3", m.CSCompleted)
	}
	if got := rec.CSOrder(); len(got) != 3 || got[0] != 1 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("CS order %v, want [1 1 2]", got)
	}
	if n := len(rec.Filter(dme.ByKind(dme.TraceSend), dme.ByMsgKind(core.KindNewArbiter), dme.Between(0, 1.35))); n != 0 {
		t.Fatalf("%d NEW-ARBITER sends before the crash: the self-tail batch must not broadcast", n)
	}
	probes := rec.Filter(dme.ByKind(dme.TraceSend), dme.ByMsgKind(core.KindProbe))
	if len(probes) != 1 || probes[0].From != 1 || probes[0].To != 0 {
		t.Fatalf("probes %v, want exactly one from node 1 to node 0", probes)
	}
	// One ENQUIRY round (node 1 knows no batch, so it asks everyone),
	// then regeneration at epoch 1.
	if n := len(rec.Filter(dme.ByKind(dme.TraceSend), dme.ByMsgKind(core.KindEnquiry))); n != 2 {
		t.Fatalf("%d ENQUIRY sends, want one round of 2", n)
	}
	if ins, _ := core.Inspect(r.Node(1)); ins.Epoch != 1 {
		t.Fatalf("node 1 epoch %d after recovery, want 1", ins.Epoch)
	}
	// Detection is bounded by the watchdog, not by luck: ArbiterTimeout +
	// ProbeTimeout + RoundTimeout after Init, plus the collection window.
	if m.EndTime > 10 {
		t.Fatalf("recovered only at t=%.2f; want within ArbiterTimeout+ProbeTimeout+RoundTimeout of start", m.EndTime)
	}
}
