package live_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"tokenarbiter/internal/cluster"
	"tokenarbiter/internal/live"
	"tokenarbiter/internal/reqtrace"
)

// TestCancelledGrantRecordsItsFence: a Lock that gave up is still granted
// when its turn comes (the protocol has no un-request) and released on the
// spot. That grant consumed a real fence, and its records — the trace's
// and the capture's — must carry it: Replay compares recorded against
// replayed fences, and a recorded 0 reads as drift that is not there.
func TestCancelledGrantRecordsItsFence(t *testing.T) {
	tracer := reqtrace.NewCollector(8)
	cl := cluster.Start(t, cluster.Config{N: 1, Core: cluster.Fast(), Manager: func(_ int, cfg *live.ManagerConfig) {
		cfg.Tracer = tracer
	}})
	m := cl.Managers[0]

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	held, err := m.LockFence(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	// The second request is issued and abandoned while the first holds.
	gone, giveUp := context.WithCancel(ctx)
	giveUp()
	if _, err := m.LockFence(gone, "k"); !errors.Is(err, context.Canceled) {
		t.Fatalf("LockFence under a cancelled context = %v, want context.Canceled", err)
	}
	m.Unlock("k")
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if done, _, _ := tracer.Totals(); done == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the abandoned request was never granted and released")
		}
	}
	after, err := m.LockFence(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	m.Unlock("k")
	if _, err := cl.Close(); err != nil {
		t.Fatal(err)
	}

	id := reqtrace.MakeID(0, 2)
	tr, ok := tracer.Lookup(id)
	if !ok {
		t.Fatalf("no completed trace %s", id)
	}
	if f := tr.Fence(); f <= held || f >= after {
		t.Errorf("cancelled grant's trace says fence %d, want one between the grants around it (%d, %d)", f, held, after)
	}
	found := false
	for _, r := range cl.Capture().Records {
		if r.Ev == reqtrace.EvGrant && r.Trace == id {
			found = true
			if r.Fence != tr.Fence() {
				t.Errorf("capture's grant record says fence %d, the trace %d", r.Fence, tr.Fence())
			}
		}
	}
	if !found {
		t.Errorf("capture has no grant record for %s", id)
	}
}

// TestOneClock: one event is one record, so it reads the same t on every
// surface. With the ring, the collector and the recorder all on, every
// grant's timestamp in Node.Trace().Events(), in the collector's completed
// trace and in the capture file is the same float. (The three used to be
// stamped separately — time.Now, seconds since the collector's epoch,
// seconds since the recorder's.)
func TestOneClock(t *testing.T) {
	tracer := reqtrace.NewCollector(reqtrace.DefaultDepth)
	// TraceDepth 0: the ring at its default depth.
	cl := cluster.Start(t, cluster.Config{N: 3, Core: cluster.Fast(), Manager: func(_ int, cfg *live.ManagerConfig) {
		cfg.Tracer = tracer
	}})
	mgrs := cl.Managers
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	keys := []string{"orders", "billing"}
	want := 0
	for round := 0; round < 3; round++ {
		for _, key := range keys {
			for _, m := range mgrs {
				if err := m.Lock(ctx, key); err != nil {
					t.Fatal(err)
				}
				m.Unlock(key)
				want++
			}
		}
	}

	// A grant is named by its key and trace ID (each key's node counts its
	// own requests); every record carries both.
	type grantID struct {
		key string
		id  reqtrace.ID
	}
	inRing, inTrace, inCapture := map[grantID]float64{}, map[grantID]float64{}, map[grantID]float64{}
	grants := func(recs []reqtrace.Record, into map[grantID]float64) {
		for _, r := range recs {
			if r.Ev == reqtrace.EvGrant {
				into[grantID{r.Key, r.Trace}] = r.T
			}
		}
	}
	for _, m := range mgrs {
		for _, key := range keys {
			grants(m.Node(key).Trace().Events(), inRing)
		}
	}
	for _, tr := range tracer.Completed() {
		grants(tr.Events, inTrace)
	}
	if _, err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	grants(cl.Capture().Records, inCapture)

	if len(inRing) != want || len(inTrace) != want || len(inCapture) != want {
		t.Fatalf("%d grants: the rings hold %d, the collector %d, the capture %d",
			want, len(inRing), len(inTrace), len(inCapture))
	}
	for k, at := range inRing {
		if inTrace[k] != at || inCapture[k] != at {
			t.Errorf("grant %s of %q: t=%v in the ring, %v in its trace, %v in the capture",
				k.id, k.key, at, inTrace[k], inCapture[k])
		}
	}
}

// TestRestartedHolderRecordsLineage: a holder restarted mid-CS ends its
// grant with a close record, §6 regenerates the token that died with it,
// and the next grant's records carry the new epoch — what the checker
// needs to tell the two tokens apart. The capture judges clean.
func TestRestartedHolderRecordsLineage(t *testing.T) {
	cl := cluster.Start(t, cluster.Config{N: 3, Core: cluster.FastRecovery()})
	mgrs := cl.Managers
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	// A first grant away from node 0 spreads the key's group cluster-wide.
	if err := mgrs[1].Lock(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	mgrs[1].Unlock("k")
	held, err := mgrs[2].LockFence(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgrs[2].RestartKey("k"); err != nil {
		t.Fatal(err)
	}
	after, err := mgrs[1].LockFence(ctx, "k")
	if err != nil {
		t.Fatalf("lock after the holder's restart: %v", err)
	}
	mgrs[1].Unlock("k")
	v, err := cl.Close()
	if err != nil {
		t.Fatal(err)
	}
	capture := cl.Capture()
	closed, lineage := false, map[string]uint64{}
	for _, r := range capture.Records {
		switch {
		case r.Ev == reqtrace.EvClose && r.Node == 2 && len(lineage) == 0:
			closed = true
		case (r.Ev == reqtrace.EvGrant || r.Ev == reqtrace.EvRelease) && r.Fence == after:
			lineage[r.Ev] = r.Epoch
		}
	}
	if !closed {
		t.Error("the restarted holder's stream has no close record before the next grant")
	}
	if lineage[reqtrace.EvGrant] == 0 || lineage[reqtrace.EvRelease] != lineage[reqtrace.EvGrant] {
		t.Errorf("grant of fence %d (after %d) and its release say epochs %v, want one regenerated epoch on both",
			after, held, lineage)
	}
	if v.Err() != nil {
		t.Errorf("verdict: %s", v)
	}
}
