package session_test

// Cluster-level tests: the session layer over real live.Managers and
// the real DME protocol on a mem network, built by internal/cluster.
// Leases run on a FakeClock; the protocol underneath runs on wall time
// with fast timeouts, so these tests poll protocol-side effects instead
// of sleeping for them.

import (
	"testing"
	"time"

	"tokenarbiter/internal/cluster"
	"tokenarbiter/internal/core"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/reqtrace"
	"tokenarbiter/internal/session"
)

// dial connects a client to node's session server; the cluster closes
// it.
func dial(t *testing.T, cl *cluster.Cluster, node int, opts session.Options) *session.Client {
	t.Helper()
	c, err := cl.Dial(node, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestClusterAcquireAcrossNodes: sessions on different nodes contend
// for one key through the real arbiter; exclusion shows up as strictly
// increasing fences and serialized grants.
func TestClusterAcquireAcrossNodes(t *testing.T) {
	cl := cluster.Start(t, cluster.Config{N: 3, Sessions: "pipe"})
	ctx := ctxT(t)

	var last uint64
	for round := 0; round < 3; round++ {
		for node := 0; node < len(cl.Managers); node++ {
			c := dial(t, cl, node, session.Options{NoKeepAlive: true})
			sess, err := c.Open(ctx, 10*time.Second)
			if err != nil {
				t.Fatalf("node %d: open: %v", node, err)
			}
			fence, err := sess.Acquire(ctx, "shared")
			if err != nil {
				t.Fatalf("node %d: acquire: %v", node, err)
			}
			if fence <= last {
				t.Fatalf("node %d: fence %d not above %d", node, fence, last)
			}
			last = fence
			if err := sess.Release("shared"); err != nil {
				t.Fatalf("node %d: release: %v", node, err)
			}
			if err := sess.End(ctx); err != nil {
				t.Fatalf("node %d: end: %v", node, err)
			}
		}
	}
}

// TestClusterExpiryRunsRecovery is the end-to-end §6 contract: a lease
// expiring while its session holds a lock crash-restarts the key's
// local participant, the rest of the group detects the lost token and
// regenerates it at a higher epoch, and the next grant's fence is above
// the expired one — invalidation through the protocol, not a local
// unlock.
func TestClusterExpiryRunsRecovery(t *testing.T) {
	clk := session.NewFakeClock()
	cl := cluster.Start(t, cluster.Config{N: 3, Sessions: "pipe", Clock: clk})
	ctx := ctxT(t)

	// Warm-up: one grant from another node first, so the key's DME group
	// actually exists cluster-wide and the fence watermark has propagated
	// beyond the node about to crash. Without traffic, the group is one
	// lazily-created instance whose crash erases the only copy of the
	// fence history — there is nothing for §6 to recover *from*.
	warm := dial(t, cl, 1, session.Options{NoKeepAlive: true})
	warmSess, err := warm.Open(ctx, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warmSess.Acquire(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if err := warmSess.Release("k"); err != nil {
		t.Fatal(err)
	}

	c := dial(t, cl, 0, session.Options{NoKeepAlive: true})
	holder, err := c.Open(ctx, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := holder.Acquire(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}

	regenBase := uint64(0)
	for _, m := range cl.Managers {
		regenBase += m.SumCounter("recovery_regenerations_total")
	}

	clk.Advance(2 * time.Second) // the lease lapses mid-critical-section

	waitUntil(t, "expiry to invalidate through the backend", func() bool {
		return cl.Servers[0].Metrics().Counter("session_expiry_invalidations_total", "").Value() == 1
	})
	waitUntil(t, "client handle to learn of expiry", holder.Expired)

	// A fresh session on a different node requests the key. Detection is
	// demand-driven: this request goes unserved (the token died with the
	// restarted participant), the token timeout fires, the group runs the
	// invalidation round and regenerates — and the grant that finally
	// arrives carries a strictly higher fence.
	c2 := dial(t, cl, 1, session.Options{NoKeepAlive: true})
	sess2, err := c2.Open(ctx, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := sess2.Acquire(ctx, "k")
	if err != nil {
		t.Fatalf("acquire after recovery: %v", err)
	}
	if f2 <= f1 {
		t.Fatalf("post-recovery fence %d not above expired fence %d", f2, f1)
	}
	var regens uint64
	for _, m := range cl.Managers {
		regens += m.SumCounter("recovery_regenerations_total")
	}
	if regens <= regenBase {
		t.Fatalf("recovery_regenerations_total = %d, want > %d: the expired fence was not invalidated through §6", regens, regenBase)
	}
}

// TestClusterCaptureReplays: a session cluster's capture holds each
// key's grants and protocol transitions beside the frames, so it replays
// to grants and judges clean.
func TestClusterCaptureReplays(t *testing.T) {
	cl := cluster.Start(t, cluster.Config{N: 3, Sessions: "pipe"})
	ctx := ctxT(t)
	keys := []string{"a", "b"}
	for node := 0; node < len(cl.Managers); node++ {
		sess, err := dial(t, cl, node, session.Options{NoKeepAlive: true}).Open(ctx, 10*time.Second)
		if err != nil {
			t.Fatalf("node %d: open: %v", node, err)
		}
		for _, key := range keys {
			if _, err := sess.Acquire(ctx, key); err != nil {
				t.Fatalf("node %d: acquire %s: %v", node, key, err)
			}
			if err := sess.Release(key); err != nil {
				t.Fatalf("node %d: release %s: %v", node, key, err)
			}
		}
	}
	v, err := cl.Close()
	if err != nil {
		t.Fatal(err)
	}
	capture := cl.Capture()
	for _, key := range keys {
		grants, transitions := 0, 0
		for _, r := range capture.Records {
			switch {
			case r.Key != key:
			case r.Ev == reqtrace.EvGrant:
				grants++
			case r.Ev == core.EventDispatched.String(), r.Ev == core.EventRequestAccepted.String():
				transitions++
			}
		}
		if grants != len(cl.Managers) || transitions == 0 {
			t.Errorf("key %q: capture holds %d grants (want %d) and %d protocol transitions (want some)",
				key, grants, len(cl.Managers), transitions)
		}
	}
	factory := registry.CoreLiveFactory(core.Options{Treq: 0.005, Tfwd: 0.005})
	res, err := reqtrace.Replay(capture, factory, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Grants) == 0 {
		t.Errorf("replay granted nothing (recorded %d grants)", len(res.Recorded))
	}
	if v.Err() != nil {
		t.Errorf("verdict: %s", v)
	}
}
