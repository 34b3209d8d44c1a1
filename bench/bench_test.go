package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// testPlan measures for a fraction of a second: enough to drive every
// code path of the harness, not to produce numbers.
func testPlan() plan {
	return plan{
		seed: 1, setups: 2, warm: 50 * time.Millisecond, window: 200 * time.Millisecond,
		traced: true, spanWindow: 200 * time.Millisecond, reqtraceWindow: 100 * time.Millisecond,
		isoEach: 10 * time.Millisecond, simRequests: 20_000,
	}
}

// TestEveryWorkloadRuns runs each workload end to end with both passes,
// so a change to an internal API the harness uses fails here and not in
// the middle of a measurement.
func TestEveryWorkloadRuns(t *testing.T) {
	for _, wd := range workloadDefs {
		t.Run(wd.Name, func(t *testing.T) {
			p := testPlan()
			if wd.Name == wlTokenLoss {
				p.window = 2 * partLen // two parts, two injections
			}
			p.spansDir = t.TempDir()
			res, err := runWorkload(wd.Name, p)
			if err != nil {
				t.Fatal(err)
			}
			if !res.ok() {
				t.Fatalf("invalid=%q failed=%d of %d", res.Invalid, res.Failed, res.Attempted)
			}
			for _, d := range endToEndDefs {
				if v, ok := res.EndToEnd[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
					t.Errorf("end-to-end %s = %+v, want a positive value in %s", d.Name, v, d.Unit)
				}
			}
			for _, d := range perLayerDefs {
				if v, ok := res.PerLayer[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("per-layer %s = %+v, want a value in %s", d.Name, v, d.Unit)
				}
			}
			if wd.Name == wlSimPaper {
				return
			}
			if len(res.Ledger) == 0 {
				t.Fatal("no ledger")
			}
			sum := 0.0
			for _, r := range res.Ledger {
				sum += r.US
			}
			if d := sum - res.LedgerP50; d > 1e-6 || d < -1e-6 {
				t.Errorf("ledger rows sum to %.3f us, client p50 is %.3f us", sum, res.LedgerP50)
			}
			if _, err := os.Stat(p.spansDir + "/" + wd.Name + ".spans.jsonl"); err != nil {
				t.Errorf("span file: %v", err)
			}
			if wd.Name == wlTokenLoss {
				if inj, drops := res.PerLayer["faultnet.injections"].Value, res.PerLayer["faultnet.drops"].Value; inj != 2 || drops != inj {
					t.Errorf("%v injections, %v drops, want 2 and 2", inj, drops)
				}
				// The timeout runs from the holder's last sign of life, a
				// little before the drop is seen here.
				if out := res.PerLayer["faultnet.outage_p50_ms"].Value; out < 0.9e3*recTokenTimeout {
					t.Errorf("outage %.1f ms is well short of the %.0f ms token timeout", out, 1e3*recTokenTimeout)
				}
			}
		})
	}
}

func TestWaitWeighted(t *testing.T) {
	// 99 waits of 1 and one of 99: half of all waiting is the long one.
	lats := make([]int64, 0, 100)
	for i := 0; i < 99; i++ {
		lats = append(lats, 1)
	}
	lats = append(lats, 99)
	if got := waitWeighted(lats, .4); got != 1 {
		t.Errorf("40%% of waiting time: %v, want 1", got)
	}
	if got := waitWeighted(lats, .9); got != 99 {
		t.Errorf("90%% of waiting time: %v, want 99", got)
	}
	if got := percentile(lats, .99); got != 1 {
		t.Errorf("plain p99: %v, want 1 (the outage hides above it)", got)
	}
}

// cannedFile is a result file with one value for every metric of every
// workload.
func cannedFile(seed uint64) *resultFile {
	f := &resultFile{Provenance: provenance{Seed: seed}, Workloads: map[string]*workloadResult{}}
	for _, wd := range workloadDefs {
		r := &workloadResult{Attempted: 1000, EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{}}
		for _, d := range suiteEndToEndDefs {
			r.EndToEnd[d.Name] = metricValue{Value: 100, Unit: d.Unit}
		}
		r.EndToEnd["failed_ratio"] = metricValue{Unit: "1"}
		for _, d := range perLayerDefs {
			r.PerLayer[d.Name] = metricValue{Value: 10, Unit: d.Unit}
		}
		f.Workloads[wd.Name] = r
	}
	return f
}

func TestCompare(t *testing.T) {
	set := func(f *resultFile, workload, list, name string, v float64) {
		m := f.Workloads[workload].EndToEnd
		if list == "layer" {
			m = f.Workloads[workload].PerLayer
		}
		mv := m[name]
		mv.Value = v
		m[name] = mv
	}
	cases := []struct {
		name     string
		seedB    uint64
		edit     func(b *resultFile)
		breaches int
	}{
		{"identical", 1, func(*resultFile) {}, 0},
		{"throughput 30% lower", 1, func(b *resultFile) { set(b, wlHop4Key, "e2e", "cs_per_s", 70) }, 1},
		{"throughput 30% higher", 1, func(b *resultFile) { set(b, wlHop4Key, "e2e", "cs_per_s", 130) }, 0},
		{"latency 5% higher", 1, func(b *resultFile) { set(b, wlHop1Key, "e2e", "acquire_p50_us", 105) }, 0},
		{"latency 30% higher", 1, func(b *resultFile) { set(b, wlHop1Key, "e2e", "acquire_p50_us", 130) }, 1},
		{"set-up doubled but under the 50 ms floor", 1, func(b *resultFile) {
			set(b, wlLocal1Key, "e2e", "setup_s", 0.004)
		}, 0},
		{"sim messages off by 2% on another seed", 2, func(b *resultFile) { set(b, wlSimPaper, "e2e", "msgs_per_cs", 102) }, 1},
		{"sim messages off by 0.5% on another seed", 2, func(b *resultFile) { set(b, wlSimPaper, "e2e", "msgs_per_cs", 100.5) }, 0},
		{"sim messages off by 0.5% on the same seed", 1, func(b *resultFile) { set(b, wlSimPaper, "e2e", "msgs_per_cs", 100.5) }, 1},
		{"exact layer count differs, same seed", 1, func(b *resultFile) { set(b, wlSimPaper, "layer", "sim.msgs_per_cs_heavy", 11) }, 1},
		{"exact layer count differs, other seed", 2, func(b *resultFile) { set(b, wlSimPaper, "layer", "sim.msgs_per_cs_heavy", 11) }, 0},
		{"recovery 20% slower", 1, func(b *resultFile) { set(b, wlTokenLoss, "layer", "faultnet.outage_p50_ms", 12) }, 1},
		{"recovery 5% slower", 1, func(b *resultFile) { set(b, wlTokenLoss, "layer", "faultnet.outage_p50_ms", 10.5) }, 0},
		{"p90 40% higher on a closed loop", 1, func(b *resultFile) { set(b, wlHop1Key, "layer", "acquire_p90_us", 14) }, 1},
		{"p90 40% higher on token_loss", 1, func(b *resultFile) { set(b, wlTokenLoss, "layer", "acquire_p90_us", 14) }, 0},
		{"plain layer metric moves freely", 1, func(b *resultFile) { set(b, wlHop1Key, "layer", "transport.send_us", 50) }, 0},
		{"an operation failed", 1, func(b *resultFile) { set(b, wlTokenLoss, "e2e", "failed_ratio", 0.001) }, 1},
		{"candidate invalid", 1, func(b *resultFile) { b.Workloads[wlOpenLight].Invalid = "slow generator" }, 1},
		{"workload missing", 1, func(b *resultFile) { delete(b.Workloads, wlHop4Key) }, 1},
	}
	for _, c := range cases {
		a, b := cannedFile(1), cannedFile(c.seedB)
		set(a, wlLocal1Key, "e2e", "setup_s", 0.002)
		set(b, wlLocal1Key, "e2e", "setup_s", 0.002)
		c.edit(b)
		if got := compareFiles(io.Discard, a, b); got != c.breaches {
			var out bytes.Buffer
			compareFiles(&out, a, b)
			t.Errorf("%s: %d breaches, want %d\n%s", c.name, got, c.breaches, grepBreaches(out.String()))
		}
	}
}

func grepBreaches(report string) string {
	var keep []string
	for _, line := range strings.Split(report, "\n") {
		if strings.Contains(line, "BREACH") || strings.Contains(line, "INVALID") || strings.Contains(line, "missing") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// TestManifestIsCommitted holds BENCHMARK.json and defs.go together.
func TestManifestIsCommitted(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&committed); err != nil {
		t.Fatal(err)
	}
	if want := buildManifest(); !reflect.DeepEqual(committed, want) {
		t.Errorf("BENCHMARK.json differs from `bench manifest`; regenerate it")
	}
	for _, w := range committed.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
}

func TestAtZeroSteal(t *testing.T) {
	// A metric that loses 1.4 of its value per unit of steal share.
	x := []float64{0.10, 0.40, 0.25, 0.15, 0.30}
	y := make([]float64, len(x))
	for i := range x {
		y[i] = 2000 * (1 - 1.4*x[i])
	}
	if got := atZeroSteal(x, y); got < 1999.9 || got > 2000.1 {
		t.Errorf("fit at zero steal: %v, want 2000", got)
	}
	// No spread in steal: the mean.
	if got := atZeroSteal([]float64{0, 0, 0}, []float64{9, 10, 11}); got != 10 {
		t.Errorf("no steal anywhere: %v, want the mean 10", got)
	}
}
