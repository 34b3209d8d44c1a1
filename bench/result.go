package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// plan is how long and how deep one workload is measured.
type plan struct {
	seed   uint64
	setups int           // how many times the stack is set up; the last one is measured
	warm   time.Duration // untimed, before every measured window
	window time.Duration // the plain pass: end-to-end metrics come from it
	// traced adds the passes behind the per-layer metrics: bench spans
	// on, the program's request tracer on, and the isolated micro-runs.
	traced         bool
	spanWindow     time.Duration
	reqtraceWindow time.Duration
	isoEach        time.Duration
	simRequests    uint64     // size of one sim_paper replication
	iso            *metricSet // micro-runs already made, or nil to make them
	spansDir       string     // where <workload>.spans.jsonl goes; "" keeps spans in memory only
}

// workloadResult is one workload's outcome.
type workloadResult struct {
	Why string `json:"why"`
	// Invalid says why the numbers must not be read as a measurement of
	// the system: a safety violation, a failed injection, a slow load
	// generator. Empty on a good run.
	Invalid   string                 `json:"invalid,omitempty"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Ledger    []ledgerRow            `json:"ledger,omitempty"`
	LedgerP50 float64                `json:"ledger_p50_us,omitempty"`
}

func (r *workloadResult) ok() bool { return r.Invalid == "" && r.Failed == 0 }

// runLiveWorkload measures one live workload according to p.
func runLiveWorkload(spec liveSpec, p plan) (*workloadResult, error) {
	res := &workloadResult{}
	o := liveOpts{seed: p.seed, warm: p.warm, window: p.window}
	var setups, opens []int64
	var h *liveHarness
	for i := 0; i < p.setups; i++ {
		if h != nil {
			h.close()
		}
		t0 := time.Now()
		var err error
		if h, err = setupLive(spec, o); err != nil {
			return nil, err
		}
		setups = append(setups, int64(time.Since(t0)))
		opens = append(opens, h.cluster.opens...)
	}
	plain := h.measure(o)
	res.EndToEnd = plain.endToEnd(setups).values
	res.Attempted, res.Failed = plain.tally()
	res.Invalid = plain.invalid()
	if !p.traced {
		return res, nil
	}

	l := plain.counterLayers()
	slices.Sort(opens)
	l.set("client.open_p99_us", percentile(opens, .99)/1e3, len(opens))

	o.kind, o.window = passSpans, p.spanWindow
	traced, err := runLive(spec, o)
	if err != nil {
		return nil, err
	}
	if res.Invalid == "" {
		res.Invalid = traced.invalid()
	}
	a := analyseSpans(traced.quietSpans())
	l.merge(a.layers())
	plainP50, _ := plain.p50us()
	res.LedgerP50, _ = traced.p50us()
	var share float64
	res.Ledger, share = a.ledger(res.LedgerP50)
	l.set("ledger.unattributed_share", share, a.acquires)
	l.set("trace.overhead_ratio", ratio(res.LedgerP50, plainP50), a.acquires)
	if p.spansDir != "" {
		if err := writeSpans(filepath.Join(p.spansDir, spec.name+".spans.jsonl"), traced.spans); err != nil {
			return nil, err
		}
	}

	o.kind, o.window = passReqtrace, p.reqtraceWindow
	rt, err := runLive(spec, o)
	if err != nil {
		return nil, err
	}
	if res.Invalid == "" {
		res.Invalid = rt.invalid()
	}
	rtP50, rtN := rt.p50us()
	l.set("reqtrace.live_overhead_ratio", ratio(rtP50, plainP50), rtN)

	iso := p.iso
	if iso == nil {
		if iso, err = isoLive(p.isoEach, p.seed); err != nil {
			return nil, err
		}
	}
	l.merge(iso)
	res.PerLayer = l.complete()
	return res, nil
}

// runWorkload measures the named workload.
func runWorkload(name string, p plan) (*workloadResult, error) {
	var res *workloadResult
	var err error
	if spec, ok := liveSpecByName(name); ok {
		res, err = runLiveWorkload(spec, p)
	} else if name == wlSimPaper {
		res, err = runSim(p)
	} else {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	for _, d := range workloadDefs {
		if d.Name == name {
			res.Why = d.Why
		}
	}
	res.EndToEnd["failed_ratio"] = metricValue{Value: ratio(float64(res.Failed), float64(res.Attempted)), Unit: "1", N: res.Attempted}
	return res, nil
}

// provenance records what a result file was measured with and on.
type provenance struct {
	Seed       uint64             `json:"seed"`
	When       string             `json:"when"`
	GoVersion  string             `json:"go_version"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	CPUModel   string             `json:"cpu_model"`
	NumCPU     int                `json:"num_cpu"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Nproc      int                `json:"nproc"` // client connections: the reference machine's nproc, fixed
	Settings   map[string]float64 `json:"settings"`
	Codec      string             `json:"codec"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

func newProvenance(seed uint64, p plan) provenance {
	return provenance{
		Seed: seed, When: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUModel: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Nproc: clientConns, Codec: wireCodec,
		Settings: map[string]float64{
			"cluster_nodes": clusterNodes, "sessions_per_conn_max": maxSessionsPerConn,
			"treq_s": protoTreq, "tfwd_s": protoTfwd, "retransmit_s": protoRetransmit,
			"token_timeout_s": recTokenTimeout, "round_timeout_s": recRoundTimeout,
			"arbiter_timeout_s": recArbiterTimeout, "probe_timeout_s": recProbeTimeout,
			"trace_depth": -1, "hold_s": 0, "session_ttl_s": sessionTTL.Seconds(),
			"open_rate_per_s": openRate, "part_s": partLen.Seconds(),
			"setups": float64(p.setups), "warm_s": p.warm.Seconds(), "window_s": p.window.Seconds(),
			"span_window_s": p.spanWindow.Seconds(), "reqtrace_window_s": p.reqtraceWindow.Seconds(),
			"iso_each_s": p.isoEach.Seconds(),
			"sim_nodes":  simNodes, "sim_delay": simDelay, "sim_texec": simTexec, "sim_lambda": simLambda,
			"sim_retransmit": simRetransmit, "sim_requests": float64(p.simRequests), "sim_side_requests": float64(p.simRequests / simSideShare),
			"sim_pair_requests": float64(p.simRequests / simPairShare), "max_late_share": maxLateShare,
			"sim_lambda_light": simLightLam, "sim_lambda_heavy": simHeavyLam,
		},
	}
}

// resultFile is what the suite writes and compare reads.
type resultFile struct {
	Provenance provenance                 `json:"provenance"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printMetrics prints every metric of one list by name, with its unit
// and sample count, in declaration order.
func printMetrics(w io.Writer, workload string, defs []metricDef, values map[string]metricValue) {
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			continue
		}
		n := ""
		if v.N > 0 {
			n = fmt.Sprintf("  n=%d", v.N)
		}
		fmt.Fprintf(w, "%-11s %-36s %14.4f %-5s%s\n", workload, d.Name, v.Value, v.Unit, n)
	}
}

func printWorkload(w io.Writer, name string, r *workloadResult) {
	printMetrics(w, name, suiteEndToEndDefs, r.EndToEnd)
	printMetrics(w, name, perLayerDefs, r.PerLayer)
	if r.Ledger != nil {
		printLedger(w, name, r.Ledger, r.LedgerP50)
	}
	status := "ok"
	if r.Invalid != "" {
		status = "INVALID: " + r.Invalid
	}
	fmt.Fprintf(w, "%-11s attempted=%d failed=%d oracle/validity: %s\n", name, r.Attempted, r.Failed, status)
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
