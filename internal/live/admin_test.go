package live_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tokenarbiter/internal/cluster"
	"tokenarbiter/internal/core"
	"tokenarbiter/internal/live"
	"tokenarbiter/internal/reqtrace"
)

// tracedManager serves a single-node Manager's admin mux after a few
// lock/unlock cycles of key "k", so the admin surfaces have data. Request
// tracing is on when tracer is non-nil.
func tracedManager(t *testing.T, tracer *reqtrace.Collector) *httptest.Server {
	t.Helper()
	m := tracedCluster(t, tracer)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 4; i++ {
		if err := m.Lock(ctx, "k"); err != nil {
			t.Fatal(err)
		}
		m.Unlock("k")
	}
	srv := httptest.NewServer(m.AdminHandler())
	t.Cleanup(srv.Close)
	return srv
}

// tracedCluster is a single-node cluster whose Manager traces requests
// into tracer.
func tracedCluster(t *testing.T, tracer *reqtrace.Collector) *live.Manager {
	return cluster.Start(t, cluster.Config{N: 1, Core: core.Options{Treq: 0.005, Tfwd: 0.005}, Manager: func(_ int, cfg *live.ManagerConfig) {
		cfg.Tracer = tracer
	}}).Managers[0]
}

func adminGet(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestDebugTraceFilters(t *testing.T) {
	srv := tracedManager(t, nil)

	// Unfiltered NDJSON: one record per line, several kinds — the lock
	// lifecycle beside the protocol's own transitions.
	code, body := adminGet(t, srv, "/debug/trace?key=k")
	if code != 200 {
		t.Fatalf("/debug/trace = %d", code)
	}
	for _, want := range []string{`"ev":"enqueue"`, `"ev":"grant"`, `"ev":"release"`, `"ev":"dispatched"`} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/trace has no %s line:\n%s", want, body)
		}
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) < 2 {
		t.Fatalf("trace ring has %d events, want several:\n%s", len(lines), body)
	}
	var first struct {
		Kind string `json:"ev"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("first trace line is not JSON: %v", err)
	}
	if first.Kind == "" {
		t.Fatalf("first event has no kind: %s", lines[0])
	}

	// ?kind= keeps only events of that kind.
	code, body = adminGet(t, srv, "/debug/trace?key=k&kind="+first.Kind)
	if code != 200 {
		t.Fatalf("filtered /debug/trace = %d", code)
	}
	filtered := strings.Split(strings.TrimSpace(body), "\n")
	if len(filtered) == 0 || len(filtered) > len(lines) {
		t.Fatalf("filter returned %d of %d events", len(filtered), len(lines))
	}
	for _, line := range filtered {
		var ev struct {
			Kind string `json:"ev"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind != first.Kind {
			t.Errorf("kind filter %q leaked a %q event", first.Kind, ev.Kind)
		}
	}

	// ?kind= with a never-matching value yields an empty body, not an error.
	code, body = adminGet(t, srv, "/debug/trace?key=k&kind=no-such-kind")
	if code != 200 || strings.TrimSpace(body) != "" {
		t.Errorf("no-match filter = %d with body %q", code, body)
	}

	// ?format=json returns one array holding the same events.
	code, body = adminGet(t, srv, "/debug/trace?key=k&format=json&kind="+first.Kind)
	if code != 200 {
		t.Fatalf("/debug/trace?format=json = %d", code)
	}
	var arr []map[string]any
	if err := json.Unmarshal([]byte(body), &arr); err != nil {
		t.Fatalf("format=json did not return a JSON array: %v\n%s", err, body)
	}
	if len(arr) != len(filtered) {
		t.Errorf("json mode returned %d events, NDJSON %d", len(arr), len(filtered))
	}
}

func TestDebugRequestsNode(t *testing.T) {
	tracer := reqtrace.NewCollector(reqtrace.DefaultDepth)
	srv := tracedManager(t, tracer)

	code, body := adminGet(t, srv, "/debug/requests")
	if code != 200 {
		t.Fatalf("/debug/requests = %d: %s", code, body)
	}
	var doc live.RequestsDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("decode: %v\n%s", err, body)
	}
	if doc.Completed != 4 {
		t.Errorf("completed = %d, want 4", doc.Completed)
	}
	if len(doc.Recent) == 0 || len(doc.Slowest) == 0 {
		t.Fatalf("empty lists: %+v", doc)
	}
	for _, s := range doc.Recent {
		if s.ID == "-" || len(s.Steps) == 0 {
			t.Errorf("summary missing id or steps: %+v", s)
		}
	}
	// Every trace on a single-node cluster carries the full protocol
	// phase breakdown: enqueue, batch inclusion, grant, release at minimum.
	phases := map[string]bool{}
	for _, st := range doc.Recent[0].Steps {
		phases[st.Phase] = true
	}
	for _, want := range []string{"enqueue", "request-accepted", "grant", "release"} {
		if !phases[want] {
			t.Errorf("trace lacks %s phase: %+v", want, doc.Recent[0].Steps)
		}
	}

	// ?n=1 caps both lists.
	code, body = adminGet(t, srv, "/debug/requests?n=1")
	if code != 200 {
		t.Fatalf("?n=1 = %d", code)
	}
	doc = live.RequestsDoc{}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Recent) != 1 || len(doc.Slowest) != 1 {
		t.Errorf("?n=1 returned %d recent, %d slowest", len(doc.Recent), len(doc.Slowest))
	}

	// The slowest trace is also findable by ID through the collector,
	// the drill-down the exemplar links rely on.
	completed, _, _ := tracer.Totals()
	if completed != 4 {
		t.Errorf("collector completed = %d", completed)
	}
}

func TestDebugRequestsDisabled(t *testing.T) {
	srv := tracedManager(t, nil)
	if code, _ := adminGet(t, srv, "/debug/requests"); code != 404 {
		t.Errorf("/debug/requests without a Tracer = %d, want 404", code)
	}
}

func TestDebugRequestsManagerKeyFilter(t *testing.T) {
	m := tracedCluster(t, reqtrace.NewCollector(reqtrace.DefaultDepth))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 2; i++ {
		for _, key := range []string{"alpha", "beta"} {
			if err := m.Lock(ctx, key); err != nil {
				t.Fatal(err)
			}
			m.Unlock(key)
		}
	}

	srv := httptest.NewServer(m.AdminHandler())
	defer srv.Close()

	code, body := adminGet(t, srv, "/debug/requests")
	if code != 200 {
		t.Fatalf("/debug/requests = %d", code)
	}
	var doc live.RequestsDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Completed != 4 {
		t.Errorf("completed = %d, want 4 across both keys", doc.Completed)
	}

	code, body = adminGet(t, srv, "/debug/requests?key=alpha&n=10")
	if code != 200 {
		t.Fatalf("?key=alpha = %d", code)
	}
	doc = live.RequestsDoc{}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Recent) != 2 || len(doc.Slowest) != 2 {
		t.Fatalf("?key=alpha returned %d recent, %d slowest, want 2/2", len(doc.Recent), len(doc.Slowest))
	}
	for _, s := range append(doc.Recent, doc.Slowest...) {
		if s.Key != "alpha" {
			t.Errorf("key filter leaked trace for %q", s.Key)
		}
	}
}

// TestLockWaitExemplar pins the histogram↔trace linkage: after traced
// acquisitions, the lock-wait histogram in the key's /statusz carries a
// max_exemplar whose trace resolves in the collector.
func TestLockWaitExemplar(t *testing.T) {
	tracer := reqtrace.NewCollector(reqtrace.DefaultDepth)
	srv := tracedManager(t, tracer)
	code, body := adminGet(t, srv, "/statusz?key=k")
	if code != 200 {
		t.Fatalf("/statusz?key=k = %d: %s", code, body)
	}
	var st live.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("decode: %v\n%s", err, body)
	}
	hist, ok := st.Metrics.Histograms["lock_wait_seconds"]
	if !ok {
		t.Fatalf("no lock-wait histogram in %v", st.Metrics.Histograms)
	}
	if hist.MaxExemplar == nil {
		t.Fatal("lock-wait histogram has no exemplar after traced acquisitions")
	}
	id := reqtrace.ID(hist.MaxExemplar.Trace)
	if _, found := tracer.Lookup(id); !found {
		t.Errorf("exemplar trace %s not resolvable in the collector", id)
	}
}
