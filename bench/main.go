// Command bench is the repository's one benchmark: thin clients over
// loopback TCP → session.Server → live.Manager → a 3-node TCP cluster →
// the token, plus the paper's simulation, measured end to end and layer
// by layer. See README.md.
//
//	bench -seed 1 -out results/x.json            every workload, both passes
//	bench -workload hop_1key -seed 1 -seconds 15 -trace 0|1   one workload, one result line
//	bench compare A.json B.json                  apply the bounds to two result files
//	bench manifest                               print BENCHMARK.json from the tables in defs.go
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "manifest" {
		os.Exit(manifestMain())
	}
	var (
		workload = flag.String("workload", "", "run this one workload and end with a one-line JSON result; empty runs the whole suite")
		seed     = flag.Uint64("seed", 1, "drives arrival schedules, Manager seeds, the faultnet seed and the sim seed")
		seconds  = flag.Float64("seconds", 20, "measured window of the untraced pass, per workload")
		trace    = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		out      = flag.String("out", "", "suite: write the result file here; span files go beside it")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	window := time.Duration(*seconds * float64(time.Second))
	var code int
	if *workload != "" {
		code = driverMain(*workload, *seed, window, *trace == 1)
	} else {
		code = suiteMain(*seed, window, *out)
	}
	os.Exit(code)
}

// basePlan is what every run shares: 31 set-ups (a few milliseconds
// each), a 2 s warm-up, the paper-sized simulation.
func basePlan(seed uint64) plan {
	return plan{seed: seed, setups: 31, warm: 2 * time.Second, simRequests: simRequests}
}

// driverMain runs one workload for about window and prints its result
// line. An untraced run spends the whole window on the plain pass. A
// traced run splits it: a reference plain pass, the span pass, the
// request-tracer pass and the micro-runs.
func driverMain(workload string, seed uint64, window time.Duration, traced bool) int {
	p := basePlan(seed)
	p.window = window
	if traced {
		p.traced = true
		p.warm = time.Second
		p.window = window * 3 / 10
		p.spanWindow = window * 4 / 10
		p.reqtraceWindow = window * 2 / 10
		p.isoEach = window / 30
	}
	res, err := runWorkload(workload, p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printWorkload(os.Stdout, workload, res)
	defs, values := endToEndDefs, res.EndToEnd
	if traced {
		defs, values = perLayerDefs, res.PerLayer
	}
	type lineMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{Correct: res.Invalid == "", Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]lineMetric{}}
	for _, d := range defs {
		line.Metrics[d.Name] = lineMetric{Value: values[d.Name].Value, Unit: d.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(data))
	if !res.ok() {
		return 1
	}
	return 0
}

// suiteMain runs every workload with both passes, prints every metric
// and ledger, and writes the result file.
func suiteMain(seed uint64, window time.Duration, out string) int {
	p := basePlan(seed)
	p.window = window
	p.traced = true
	p.spanWindow = 8 * time.Second
	p.reqtraceWindow = 4 * time.Second
	p.isoEach = time.Second
	if out != "" {
		p.spansDir = filepath.Dir(out)
	}
	iso, err := isoLive(p.isoEach, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	p.iso = iso
	file := resultFile{Provenance: newProvenance(seed, p), Workloads: map[string]*workloadResult{}}
	code := 0
	for _, wd := range workloadDefs {
		res, err := runWorkload(wd.Name, p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		printWorkload(os.Stdout, wd.Name, res)
		file.Workloads[wd.Name] = res
		if !res.ok() {
			code = 1
		}
	}
	if out != "" {
		if err := writeJSON(out, file); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare REFERENCE.json CANDIDATE.json")
		return 2
	}
	var files [2]*resultFile
	for i, path := range args {
		f, err := readResultFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		files[i] = f
	}
	if compareFiles(os.Stdout, files[0], files[1]) > 0 {
		return 1
	}
	return 0
}

// manifest is BENCHMARK.json: the benchmark's contract with its driver.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: driverRunSeconds,
	}
	for _, w := range workloadDefs {
		m.Workloads = append(m.Workloads, manifestLoad(w))
	}
	for _, d := range endToEndDefs {
		bound := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &bound})
	}
	for _, d := range perLayerDefs {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}

func manifestMain() int {
	data, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}
