package core_test

import (
	"fmt"
	"testing"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/workload"
)

// restartOptions are E8's: §6 on, timeouts sized to a 0.1 network delay.
func restartOptions(rejoin bool) core.Options {
	return core.Options{
		Treq: 0.1, Tfwd: 0.1, RetransmitTimeout: 25, Rejoin: rejoin,
		Recovery: core.RecoveryOptions{
			Enabled: true, TokenTimeout: 8, RoundTimeout: 2, ArbiterTimeout: 20, ProbeTimeout: 2,
		},
	}
}

// restartRun is a five-node Poisson run in which, from t=20 on, the first
// node pick accepts is crashed and, down seconds later, restarted as a
// fresh core.NewNode — the rebuild the live path performs. It returns the
// victim, the restart time and the run's CS entries.
func restartRun(t *testing.T, seed uint64, rejoin bool, down float64, pick func(core.Introspection) bool) (victim int, back float64, entries []dme.TraceEvent) {
	t.Helper()
	const n = 5
	rec := &dme.TraceRecorder{}
	cfg := dme.Config{
		N: n, Seed: seed, Texec: 0.1, TotalRequests: 600, MaxVirtualTime: 1e4,
		Trace: rec.Record,
		Gen: func(node int) dme.GeneratorFunc {
			return workload.Stream(workload.Poisson{Lambda: 0.2}, seed, node)
		},
	}
	r, err := dme.NewRunner(core.New(restartOptions(false)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim = -1
	var attempt func()
	attempt = func() {
		for i := 0; i < n; i++ {
			if ins, _ := core.Inspect(r.Node(i)); pick(ins) {
				victim, back = i, r.Now()+down
				r.Crash(i)
				r.ScheduleAt(back, func() {
					fresh, err := core.NewNode(i, n, restartOptions(rejoin))
					if err != nil {
						panic(err)
					}
					r.Restart(i, fresh)
				})
				return
			}
		}
		r.ScheduleAt(r.Now()+0.25, attempt)
	}
	r.ScheduleAt(20, attempt)
	// The Runner asserts exclusion on every entry; a run that cannot
	// finish hits MaxVirtualTime.
	if _, err := r.Run(); err != nil {
		t.Fatalf("seed %d, rejoin=%v, victim %d back at t=%.2f: %v", seed, rejoin, victim, back, err)
	}
	if victim < 0 {
		t.Fatalf("seed %d: no node matched the crash target", seed)
	}
	return victim, back, rec.Filter(dme.ByKind(dme.TraceEnterCS))
}

// TestRestartedRequesterIsServed: a member that is neither arbiter nor
// token holder, crashed and rebuilt with Rejoin, is granted the CS again.
func TestRestartedRequesterIsServed(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		victim, back, entries := restartRun(t, seed, true, 5, func(ins core.Introspection) bool {
			return ins.ID != 0 && !ins.IsArbiter && !ins.HasToken
		})
		served := 0
		for _, ev := range entries {
			if ev.From == victim && ev.Time > back {
				served++
			}
		}
		if served == 0 {
			t.Errorf("seed %d: node %d, restarted at t=%.2f, never entered the CS again", seed, victim, back)
		}
	}
}

// TestRestartedArbiterDoesNotWedge scripts ROADMAP item 1(g) in the
// simulator: the arbiter is crashed and rebuilt amnesiac, at once or
// after half a TokenTimeout, with and without Rejoin. Every run must
// finish: the group recovers whether or not the rebuilt node knows it
// is an incarnation.
func TestRestartedArbiterDoesNotWedge(t *testing.T) {
	for _, rejoin := range []bool{false, true} {
		for _, down := range []float64{0, 4} {
			t.Run(fmt.Sprintf("rejoin=%v,down=%v", rejoin, down), func(t *testing.T) {
				for seed := uint64(1); seed <= 10; seed++ {
					restartRun(t, seed, rejoin, down, func(ins core.Introspection) bool { return ins.IsArbiter })
				}
			})
		}
	}
}
