package live

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"tokenarbiter/internal/reqtrace"
	"tokenarbiter/internal/telemetry"
)

// Status is one key's /statusz?key=K document: the node's protocol role
// and state snapshot for that lock plus every metric. Role is "holder" while the node is inside
// (or its application holds) the critical section, "arbiter" while it is
// collecting requests, "waiting" with requests outstanding, else "idle".
type Status struct {
	ID            int     `json:"id"`
	N             int     `json:"n"`
	Algo          string  `json:"algo,omitempty"` // ManagerConfig.Algo, set by /statusz
	Role          string  `json:"role"`
	UptimeSeconds float64 `json:"uptime_seconds"`

	Arbiter     int    `json:"arbiter"`
	Monitor     int    `json:"monitor"`
	HasToken    bool   `json:"has_token"`
	InCS        bool   `json:"in_cs"`
	Forwarding  bool   `json:"forwarding"`
	Epoch       uint64 `json:"epoch"`
	LastFence   uint64 `json:"last_fence"`
	MaxFence    uint64 `json:"max_fence"`
	BatchLen    int    `json:"batch_len"`
	StoredLen   int    `json:"stored_len"`
	Outstanding int    `json:"outstanding"`

	// The adaptive collection window at a glance: batches this node
	// dispatched, how many of them went out from idle without waiting a
	// Treq, and the recent-batch-size mean that decides the next one
	// (below 1.5 an idle arbiter dispatches at once).
	Dispatches      uint64  `json:"dispatches"`
	WindowSkips     uint64  `json:"window_skips"`
	RecentBatchMean float64 `json:"recent_batch_mean"`

	Granted  uint64 `json:"granted"`
	Released uint64 `json:"released"`

	Metrics telemetry.Snapshot `json:"metrics"`
}

// Status assembles the document, taking the protocol snapshot under the
// executor's exclusion.
func (n *Node) Status(ctx context.Context) (Status, error) {
	ins, err := n.Inspect(ctx)
	if err != nil {
		return Status{}, err
	}
	granted, released := n.Stats()
	st := Status{
		ID:            n.cfg.ID,
		N:             n.cfg.N,
		Role:          "idle",
		UptimeSeconds: time.Since(n.start).Seconds(),
		Granted:       granted,
		Released:      released,
		Metrics:       n.reg.Snapshot(),
	}
	switch {
	case ins.InCS || n.held.Load() != nil:
		st.Role = "holder"
	case ins.IsArbiter:
		st.Role = "arbiter"
	case ins.Outstanding > 0:
		st.Role = "waiting"
	}
	st.Arbiter = ins.Arbiter
	st.Monitor = ins.Monitor
	st.HasToken = ins.HasToken
	st.InCS = ins.InCS
	st.Forwarding = ins.Forwarding
	st.Epoch = ins.Epoch
	st.LastFence = ins.LastFence
	st.MaxFence = ins.MaxFence
	st.BatchLen = ins.BatchLen
	st.StoredLen = ins.StoredLen
	st.Outstanding = ins.Outstanding
	st.Dispatches = n.metrics.dispatches.Value()
	st.WindowSkips = n.metrics.windowSkips.Value()
	st.RecentBatchMean = ins.RecentBatchMean
	return st, nil
}

// ManagerStatus is the Manager's aggregate /statusz document: the
// service-level identity, totals across every key, and each key's
// summary row. A single key's full protocol Status (role, arbiter,
// epoch, fences, per-key metrics) is served by /statusz?key=K instead —
// one document per key keeps the aggregate view bounded as keys grow.
type ManagerStatus struct {
	ID            int     `json:"id"`
	N             int     `json:"n"`
	Algo          string  `json:"algo,omitempty"`
	KeyCount      int     `json:"key_count"`
	UptimeSeconds float64 `json:"uptime_seconds"`

	Granted  uint64 `json:"granted"`
	Released uint64 `json:"released"`

	Keys []KeyStat `json:"keys"`

	Metrics telemetry.Snapshot `json:"metrics"` // manager-level registry
}

// Status assembles the aggregate /statusz document.
func (m *Manager) Status() ManagerStatus {
	stats := m.KeyStats()
	st := ManagerStatus{
		ID:            m.cfg.ID,
		N:             m.cfg.N,
		Algo:          m.cfg.Algo,
		KeyCount:      len(stats),
		UptimeSeconds: time.Since(m.start).Seconds(),
		Keys:          stats,
		Metrics:       m.reg.Snapshot(),
	}
	for _, ks := range stats {
		st.Granted += ks.Granted
		st.Released += ks.Released
	}
	return st
}

// keyStatus wraps one key's node Status with the manager-level identity
// of the instance serving it.
type keyStatus struct {
	Key         string `json:"key"`
	Incarnation uint64 `json:"incarnation"`
	Status
}

// AdminHandler returns the admin HTTP surface, one mux for the whole
// node. It is returned as the *http.ServeMux it is so a caller mounts
// its own routes on it (cmd/mutexnode adds /debug/faults and /sessionz)
// instead of wrapping it in another mux.
//
//	/healthz              liveness: 200 "ok" while the service runs, 503 once closed
//	/metrics              Prometheus exposition in one metric-major pass (one
//	                      HELP/TYPE per name): the manager registry's series
//	                      unlabeled, every key's registry with a key="..." label
//	/statusz              aggregate JSON ManagerStatus (totals + per-key rows)
//	/statusz?key=K        key K's full protocol Status (wrapped with key and
//	                      incarnation); 404 when the key does not exist here
//	/debug/trace?key=K    key K's recent event records (protocol transitions
//	                      and the lock lifecycle, the lines a capture holds)
//	                      as JSONL, oldest first; ?kind=X keeps only records
//	                      whose ev is X, ?format=json returns one JSON array
//	/debug/requests       recent completed request traces from the shared
//	                      collector (ManagerConfig.Tracer): totals, the ?n= most
//	                      recent and the ?n= slowest by lock-wait with per-phase
//	                      breakdowns; ?key=K restricts to one lock key's traces;
//	                      404 when request tracing is disabled
func (m *Manager) AdminHandler() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if m.closed.Load() {
			http.Error(w, "closed", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var regs []telemetry.LabeledRegistry
		for _, inst := range m.snapshotInstances() {
			regs = append(regs, telemetry.LabeledRegistry{Value: inst.key, Reg: inst.reg})
		}
		_ = telemetry.WritePrometheusMulti(w, m.reg, "key", regs)
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		key := r.URL.Query().Get("key")
		if key == "" {
			_ = enc.Encode(m.Status())
			return
		}
		inst := m.lookup(key)
		if inst == nil {
			http.Error(w, fmt.Sprintf("unknown lock key %q", key), http.StatusNotFound)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
		defer cancel()
		st, err := inst.node.Status(ctx)
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		st.Algo = m.cfg.Algo
		_ = enc.Encode(keyStatus{
			Key:         inst.key,
			Incarnation: inst.incarnation,
			Status:      st,
		})
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		key := r.URL.Query().Get("key")
		if key == "" {
			http.Error(w, "which key? pass ?key=K (see /statusz for the live keys)", http.StatusBadRequest)
			return
		}
		inst := m.lookup(key)
		if inst == nil {
			http.Error(w, fmt.Sprintf("unknown lock key %q", key), http.StatusNotFound)
			return
		}
		tr := inst.node.Trace()
		if tr == nil {
			http.Error(w, "tracing disabled (ManagerConfig.TraceDepth < 0)", http.StatusNotFound)
			return
		}
		writeTraceRing(w, r, tr)
	})
	mux.HandleFunc("/debug/requests", func(w http.ResponseWriter, r *http.Request) {
		writeRequests(w, r, m.cfg.Tracer)
	})
	return mux
}

// writeTraceRing serves a node's record ring, honoring the ?kind= filter
// (exact match on the record's ev) and ?format=json (one JSON array
// instead of JSONL) query parameters.
func writeTraceRing(w http.ResponseWriter, r *http.Request, ring *reqtrace.Ring) {
	events := ring.Events()
	if kind := r.URL.Query().Get("kind"); kind != "" {
		kept := events[:0]
		for _, ev := range events {
			if ev.Ev == kind {
				kept = append(kept, ev)
			}
		}
		events = kept
	}
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(events)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, ev := range events {
		_ = enc.Encode(ev)
	}
}

// RequestsDoc is the /debug/requests document: collector totals, the
// most recent completed traces, and the slowest by lock-wait time, each
// summarized with its per-phase breakdown.
type RequestsDoc struct {
	Completed uint64             `json:"completed"`
	Open      uint64             `json:"open"`
	Dropped   uint64             `json:"dropped"`
	Recent    []reqtrace.Summary `json:"recent"`
	Slowest   []reqtrace.Summary `json:"slowest"`
}

// buildRequestsDoc assembles the document; a non-empty key restricts
// both lists to traces of that lock key (shared collectors hold every
// key's traces).
func buildRequestsDoc(c *reqtrace.Collector, key string, n int) RequestsDoc {
	var doc RequestsDoc
	doc.Completed, doc.Open, doc.Dropped = c.Totals()
	done := c.Completed()
	if key != "" {
		kept := make([]reqtrace.Trace, 0, len(done))
		for _, t := range done {
			if t.Key == key {
				kept = append(kept, t)
			}
		}
		done = kept
	}
	start := len(done) - n
	if start < 0 {
		start = 0
	}
	for _, t := range done[start:] {
		doc.Recent = append(doc.Recent, t.Summarize())
	}
	var slow []reqtrace.Trace
	if key != "" {
		slow = c.SlowestFor(key, n)
	} else {
		slow = c.Slowest(n)
	}
	for _, t := range slow {
		doc.Slowest = append(doc.Slowest, t.Summarize())
	}
	return doc
}

// writeRequests serves /debug/requests from the given collector,
// honoring ?n= (list depth, default 5) and ?key= (restrict to one lock
// key) query parameters.
func writeRequests(w http.ResponseWriter, r *http.Request, c *reqtrace.Collector) {
	if c == nil {
		http.Error(w, "request tracing disabled (no Tracer configured)", http.StatusNotFound)
		return
	}
	depth := 5
	if s := r.URL.Query().Get("n"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			depth = v
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(buildRequestsDoc(c, r.URL.Query().Get("key"), depth))
}
