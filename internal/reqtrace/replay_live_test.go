package reqtrace_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"tokenarbiter/internal/cluster"
	"tokenarbiter/internal/core"
	"tokenarbiter/internal/live"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/reqtrace"
)

// TestReplayDeterminism is the end-to-end contract the flight recorder
// exists for: capture a live 3-node multi-key run, replay the capture
// twice against fresh state machines, and require the two replays'
// grant/fence sequences to be byte-identical. CI runs this as the
// replay-determinism gate.
func TestReplayDeterminism(t *testing.T) {
	const n = 3
	tracer := reqtrace.NewCollector(reqtrace.DefaultDepth)

	// A 3-node multi-key cluster over an in-memory network, every node
	// sharing one recorder so the capture holds the whole cluster's
	// traffic and lock lifecycle.
	cl := cluster.Start(t, cluster.Config{N: n, Core: cluster.Fast(), Manager: func(_ int, cfg *live.ManagerConfig) {
		cfg.Tracer = tracer
	}})
	mgrs := cl.Managers

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	keys := []string{"orders", "billing"}
	want := 0
	for round := 0; round < 3; round++ {
		for _, key := range keys {
			for i := 0; i < n; i++ {
				if _, err := mgrs[i].LockFence(ctx, key); err != nil {
					t.Fatalf("round %d key %q node %d: %v", round, key, i, err)
				}
				mgrs[i].Unlock(key)
				want++
			}
		}
	}
	if _, err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	capture := cl.Capture()
	if len(capture.Records) == 0 {
		t.Fatal("live run produced an empty capture")
	}
	if len(capture.Records) < want {
		t.Fatalf("capture holds %d records for %d critical sections", len(capture.Records), want)
	}
	// The capture is the one record stream, not only the wire: each key's
	// lock lifecycle and the protocol transitions behind it are in there.
	for _, key := range keys {
		grants, transitions := 0, 0
		for _, r := range capture.Records {
			if r.Key != key {
				continue
			}
			switch r.Ev {
			case reqtrace.EvGrant:
				grants++
			case core.EventDispatched.String(), core.EventTokenPassed.String(), core.EventRequestAccepted.String():
				transitions++
			}
		}
		if grants != want/len(keys) || transitions == 0 {
			t.Errorf("key %q: capture holds %d grant records (want %d) and %d protocol transitions (want some)",
				key, grants, want/len(keys), transitions)
		}
	}

	factory := registry.CoreLiveFactory(core.Options{Treq: 0.005, Tfwd: 0.005})
	run := func() *reqtrace.ReplayResult {
		res, err := reqtrace.Replay(capture, factory, reqtrace.NewCollector(reqtrace.DefaultDepth))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res1, res2 := run(), run()

	log1, log2 := reqtrace.GrantLog(res1.Grants), reqtrace.GrantLog(res2.Grants)
	if !bytes.Equal(log1, log2) {
		t.Fatalf("two replays of the same capture diverged:\n--- first\n%s--- second\n%s", log1, log2)
	}
	if len(res1.Grants) == 0 {
		t.Fatalf("replay produced no grants (recorded %d, suppressed %d sends, %d open errors)",
			len(res1.Recorded), res1.SuppressedSends, res1.OpenErrors)
	}
	if res1.OpenErrors != 0 {
		t.Errorf("replay failed to open %d captured envelopes", res1.OpenErrors)
	}
	t.Logf("capture: %d records; recorded %d grants, replayed %d (suppressed %d sends, %d orphan releases)",
		len(capture.Records), len(res1.Recorded), len(res1.Grants),
		res1.SuppressedSends, res1.OrphanReleases)
}
