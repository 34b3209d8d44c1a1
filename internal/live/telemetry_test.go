package live_test

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tokenarbiter/internal/cluster"
	"tokenarbiter/internal/core"
	"tokenarbiter/internal/live"
	"tokenarbiter/internal/reqtrace"
	"tokenarbiter/internal/telemetry"
)

func TestLiveMetricsRecordProtocolActivity(t *testing.T) {
	cl := cluster.Start(t, cluster.Config{N: 3, Core: core.Options{Treq: 0.005, Tfwd: 0.005}})
	mgrs, counters := cl.Managers, cl.Counters
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	const rounds = 5
	for r := 0; r < rounds; r++ {
		for _, m := range mgrs {
			if err := m.Lock(ctx, lockKey); err != nil {
				t.Fatal(err)
			}
			time.Sleep(time.Millisecond)
			m.Unlock(lockKey)
		}
	}

	// Read the key's registry and ring once nothing sends any more: the
	// key's tally and the shared counting layer are two counters.
	regs := make([]*telemetry.Registry, len(mgrs))
	rings := make([]*reqtrace.Ring, len(mgrs))
	for i, m := range mgrs {
		regs[i], rings[i] = m.Registry(lockKey), m.Node(lockKey).Trace()
		_ = m.Close()
	}
	var tokenPasses, grants uint64
	for i, reg := range regs {
		s := reg.Snapshot()
		tokenPasses += s.Counters["token_passes_total"]
		grants += s.Counters["cs_granted_total"]
		if s.Counters["cs_granted_total"] != rounds {
			t.Errorf("node %d grants = %d, want %d", i, s.Counters["cs_granted_total"], rounds)
		}
		h := s.Histograms["lock_wait_seconds"]
		if h.Count != rounds {
			t.Errorf("node %d lock_wait count = %d, want %d", i, h.Count, rounds)
		}
		hold := s.Histograms["cs_hold_seconds"]
		if hold.Count != rounds {
			t.Errorf("node %d cs_hold count = %d, want %d", i, hold.Count, rounds)
		}
		// The key's own tally is the whole shared stream: one key.
		sent, _ := counters[i].Totals()
		var regSent uint64
		for _, v := range s.Kinds["transport_sent_total"] {
			regSent += v
		}
		if regSent != sent {
			t.Errorf("node %d registry sent %d != counting %d", i, regSent, sent)
		}
	}
	if tokenPasses == 0 {
		t.Error("no token passes recorded across the cluster")
	}
	if grants != 3*rounds {
		t.Errorf("cluster grants = %d, want %d", grants, 3*rounds)
	}

	// Dispatches and tenures happened somewhere, and the trace saw them.
	var dispatches, traceEvents uint64
	for i, reg := range regs {
		dispatches += reg.Snapshot().Counters["dispatches_total"]
		traceEvents += rings[i].Total()
	}
	if dispatches == 0 {
		t.Error("no dispatches recorded")
	}
	if traceEvents == 0 {
		t.Error("trace rings are empty")
	}
}

// TestAdminEndpoints serves the admin mux of a Manager wired the way
// cmd/mutexnode wires it — the manager registry shared with the counting
// layer under the key demux — so /metrics has node-level and per-key
// series of the same families to merge.
func TestAdminEndpoints(t *testing.T) {
	mgrs := cluster.Start(t, cluster.Config{N: 2, Core: core.Options{Treq: 0.005, Tfwd: 0.005}}).Managers
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for _, m := range mgrs {
		if err := m.Lock(ctx, "k"); err != nil {
			t.Fatal(err)
		}
		m.Unlock("k")
	}

	srv := httptest.NewServer(mgrs[1].AdminHandler())
	defer srv.Close()

	if code, body := adminGet(t, srv, "/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}

	code, body := adminGet(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		`token_passes_total{key="k"}`,
		`lock_wait_seconds_bucket{le=`,
		`window_skips_total{key="k"} `,
		`cs_granted_total{key="k"} 1`,
		`transport_sent_total{kind="REQUEST"} `,         // the merged stream, unlabeled
		`transport_sent_total{kind="REQUEST",key="k"} `, // the key's own tally
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	// One # TYPE line per family, however many registries feed it.
	types := map[string]int{}
	for _, line := range strings.Split(body, "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			types[strings.Fields(name)[0]]++
		}
	}
	for family, n := range types {
		if n != 1 {
			t.Errorf("/metrics has %d # TYPE lines for %s, want 1", n, family)
		}
	}

	code, body = adminGet(t, srv, "/statusz?key=k")
	if code != 200 {
		t.Fatalf("/statusz?key=k = %d", code)
	}
	for _, want := range []string{`"role"`, `"id": 1`, `"metrics"`, `"lock_wait_seconds"`,
		`"dispatches": `, `"window_skips": `, `"recent_batch_mean": 1`} {
		if !strings.Contains(body, want) {
			t.Errorf("/statusz?key=k missing %q:\n%s", want, body)
		}
	}

	code, body = adminGet(t, srv, "/debug/trace?key=k")
	if code != 200 {
		t.Fatalf("/debug/trace?key=k = %d", code)
	}
	if !strings.Contains(body, `"ev"`) {
		t.Errorf("/debug/trace?key=k has no events:\n%s", body)
	}
}

func TestStatusRoles(t *testing.T) {
	mgrs := cluster.Start(t, cluster.Config{N: 1, Core: core.Options{Treq: 0.001, Tfwd: 0.001}}).Managers
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if err := mgrs[0].Lock(ctx, lockKey); err != nil {
		t.Fatal(err)
	}
	nd := mgrs[0].Node(lockKey)
	st, err := nd.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != "holder" {
		t.Errorf("locked role %q, want holder", st.Role)
	}
	mgrs[0].Unlock(lockKey)

	st, err = nd.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != "arbiter" {
		t.Errorf("released role %q, want arbiter (node 0 minted the token and keeps it)", st.Role)
	}
}

func TestTraceDisabled(t *testing.T) {
	m := cluster.Start(t, cluster.Config{N: 1, Core: core.Options{Treq: 0.001, Tfwd: 0.001}, Manager: func(_ int, cfg *live.ManagerConfig) {
		cfg.TraceDepth = -1
	}}).Managers[0]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Lock(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	m.Unlock("k")
	if m.Node("k").Trace() != nil {
		t.Error("trace ring exists despite TraceDepth -1")
	}
	srv := httptest.NewServer(m.AdminHandler())
	defer srv.Close()
	if code, _ := adminGet(t, srv, "/debug/trace?key=k"); code != 404 {
		t.Errorf("/debug/trace?key=k with tracing off = %d, want 404", code)
	}
}
