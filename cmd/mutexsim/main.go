// Command mutexsim regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Each subcommand runs
// one experiment and prints an aligned table (and optionally CSV):
//
//	mutexsim fig345     Figures 3, 4, 5: messages / delay / forwarded vs. load
//	mutexsim fig6       Figure 6: comparison with other algorithms
//	mutexsim analysis   E5/E6: Eq. (1)–(6) vs. simulation
//	mutexsim monitor    E7: starvation-free variant overhead
//	mutexsim recovery   E8: §6 failure-injection scenarios
//	mutexsim scaling    E9: messages/CS vs. N at the load extremes
//	mutexsim ablation   E10: collection/forwarding duration sweep
//	mutexsim delays     E11: delay-model robustness ablation
//	mutexsim volume     E12: message volume (payload units) comparison
//	mutexsim fairness   §5.1 strict-fairness (least-served-first) study
//	mutexsim model      batch-polling model vs. simulation (intermediate loads)
//	mutexsim tuning     E15: §6 recovery-timeout sensitivity under loss
//	mutexsim window     E16: fixed vs. adaptive collection window (messages/wait trade)
//	mutexsim trace      replay the §2.2 worked example, print the messages
//	mutexsim replay F   re-execute a flight-recorder capture deterministically:
//	                    the canonical grant/fence log goes to stdout (two
//	                    replays of one capture are byte-identical), the
//	                    fidelity summary and the safety verdict of the
//	                    recorded records (reqtrace.Check) to stderr
//	mutexsim all        everything above, in order (replay excepted)
//
// Common flags: -n nodes, -requests per run, -reps replications, -seed,
// -csv (emit CSV after each table), -quick (small fast runs).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/experiments"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/reqtrace"
	"tokenarbiter/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mutexsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mutexsim", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 10, "number of nodes")
		requests = fs.Uint64("requests", 200_000, "CS requests per run")
		reps     = fs.Int("reps", 5, "independent replications per point")
		seed     = fs.Uint64("seed", 1, "base random seed")
		csv      = fs.Bool("csv", false, "also print CSV for each figure")
		quick    = fs.Bool("quick", false, "small fast runs (requests=20000, reps=3)")
		procs    = fs.Int("procs", 0, "concurrent simulation jobs (0 = one per CPU)")
		progress = fs.Bool("progress", true, "live progress/ETA line on stderr")
		lambdas  = fs.String("lambdas", "", "comma-separated per-node arrival rates")
		spark    = fs.Bool("spark", true, "print unicode sparkline curve previews")
		svgDir   = fs.String("svg", "", "directory to write <figure-id>.svg files into")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mutexsim [flags] <fig345|fig6|analysis|monitor|recovery|scaling|ablation|delays|volume|fairness|model|tuning|window|trace|all>")
		fmt.Fprintln(os.Stderr, "       mutexsim replay <capture.jsonl>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return fmt.Errorf("missing subcommand")
	}
	cmd := fs.Arg(0)

	s := experiments.DefaultSetup()
	s.N = *n
	s.Requests = *requests
	s.Reps = *reps
	s.Seed = *seed
	s.Procs = *procs
	if *quick {
		s.Requests = 20_000
		s.Reps = 3
	}
	pl := &progressLine{out: os.Stderr, enabled: *progress}
	s.Progress = pl.update

	var ls []float64
	if *lambdas != "" {
		for _, tok := range strings.Split(*lambdas, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				return fmt.Errorf("bad -lambdas entry %q: %w", tok, err)
			}
			ls = append(ls, v)
		}
	}

	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			return fmt.Errorf("creating -svg dir: %w", err)
		}
	}
	p := printer{csv: *csv, spark: *spark, svgDir: *svgDir}
	type experiment struct {
		name string
		run  func() error
	}
	all := []experiment{
		{"fig345", func() error { return p.fig345(s, ls) }},
		{"fig6", func() error { return p.fig6(s, ls) }},
		{"analysis", func() error { return p.analysis(s) }},
		{"monitor", func() error { return p.monitor(s, ls) }},
		{"recovery", func() error { return p.recovery(s) }},
		{"scaling", func() error { return p.scaling(s) }},
		{"ablation", func() error { return p.ablation(s) }},
		{"delays", func() error { return p.delays(s, ls) }},
		{"volume", func() error { return p.volume(s, ls) }},
		{"fairness", func() error { return p.fairness(s) }},
		{"model", func() error { return p.model(s, ls) }},
		{"tuning", func() error { return p.tuning(s) }},
		{"window", func() error { return p.window(s, ls) }},
	}
	timed := func(e experiment) error {
		pl.begin(e.name)
		start := time.Now()
		err := e.run()
		pl.clear()
		if err == nil {
			fmt.Fprintf(os.Stderr, "[%s] wall time %s\n", e.name, time.Since(start).Round(time.Millisecond))
		}
		return err
	}
	switch cmd {
	case "fig3", "fig4", "fig5":
		cmd = "fig345"
	case "trace":
		return p.trace()
	case "replay":
		return replayCapture(fs.Args()[1:])
	case "all":
		for _, e := range all {
			if err := timed(e); err != nil {
				return err
			}
		}
		return nil
	}
	for _, e := range all {
		if e.name == cmd {
			return timed(e)
		}
	}
	fs.Usage()
	return fmt.Errorf("unknown subcommand %q", cmd)
}

// replayCapture is the `mutexsim replay` subcommand: parse a flight-
// recorder capture, re-execute it on the deterministic kernel against
// fresh state machines of the capture's algorithm, and print the
// canonical grant/fence log on stdout. The log is the replay's whole
// observable output, so `mutexsim replay f > a; mutexsim replay f > b;
// cmp a b` is the determinism check CI runs. The safety verdict on the
// capture's recorded records goes to stderr beside the fidelity summary;
// a capture carries no recovery bound, so the time rules are off.
func replayCapture(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: mutexsim replay <capture.jsonl>")
	}
	f, err := os.Open(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	capture, err := reqtrace.ReadCapture(f)
	if err != nil {
		return err
	}
	// The captured frames decode through the normal wire path, so core's
	// message types must be registered first; a capture of any other
	// algorithm is refused here, by name.
	if _, err := registry.RegisterWire(capture.Header.Algo); err != nil {
		return fmt.Errorf("capture algorithm %q: %w", capture.Header.Algo, err)
	}
	collector := reqtrace.NewCollector(reqtrace.DefaultDepth)
	res, err := reqtrace.Replay(capture, registry.CoreLiveFactory(core.Options{}), collector)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"replay: algo=%s n=%d records=%d | grants replayed=%d recorded=%d | suppressed-sends=%d orphan-releases=%d open-errors=%d\n",
		capture.Header.Algo, capture.Header.N, len(capture.Records),
		len(res.Grants), len(res.Recorded),
		res.SuppressedSends, res.OrphanReleases, res.OpenErrors)
	if completed, open, _ := collector.Totals(); completed+open > 0 {
		fmt.Fprintf(os.Stderr, "replay: traces completed=%d open=%d\n", completed, open)
	}
	fmt.Fprintf(os.Stderr, "verdict: %s\n", reqtrace.Check(capture, 0))
	_, err = os.Stdout.Write(reqtrace.GrantLog(res.Grants))
	return err
}

// progressLine renders a single in-place status line on stderr while an
// experiment's job batches drain: jobs finished, percent, and an ETA
// extrapolated from the mean job time of the current batch. Experiments
// run several batches; the line resets its clock whenever a new batch
// starts (done counter goes backwards).
type progressLine struct {
	mu       sync.Mutex
	out      io.Writer
	enabled  bool
	label    string
	start    time.Time
	lastDone int
	width    int
}

func (pl *progressLine) begin(label string) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.label = label
	pl.start = time.Now()
	pl.lastDone = 0
}

// update is the experiments.Setup Progress hook.
func (pl *progressLine) update(done, total int) {
	if !pl.enabled {
		return
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if done <= pl.lastDone {
		pl.start = time.Now() // new batch within the same experiment
	}
	pl.lastDone = done
	eta := "?"
	if elapsed := time.Since(pl.start); done > 0 && done < total {
		left := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
		eta = left.Round(time.Second).String()
	} else if done == total {
		eta = "0s"
	}
	line := fmt.Sprintf("[%s] %d/%d jobs (%d%%) eta %s", pl.label, done, total, 100*done/total, eta)
	if len(line) > pl.width {
		pl.width = len(line)
	}
	fmt.Fprintf(pl.out, "\r%-*s", pl.width, line)
}

// clear erases the status line so tables print on a clean row.
func (pl *progressLine) clear() {
	if !pl.enabled {
		return
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.width > 0 {
		fmt.Fprintf(pl.out, "\r%-*s\r", pl.width, "")
	}
	pl.width = 0
}

type printer struct {
	csv    bool
	spark  bool
	svgDir string
}

func (p printer) figure(f *experiments.Figure) {
	fmt.Println(f.Table())
	if p.spark {
		fmt.Println(f.Sparkline(0))
	}
	p.export(f)
}

// export writes the figure's machine-readable forms: CSV on stdout under
// -csv, <id>.svg under -svg.
func (p printer) export(f *experiments.Figure) {
	if p.csv {
		fmt.Println(f.CSV())
	}
	if p.svgDir != "" {
		path := filepath.Join(p.svgDir, f.ID+".svg")
		svg, err := f.Chart().SVG()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mutexsim: rendering %s: %v\n", f.ID, err)
			return
		}
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "mutexsim: writing %s: %v\n", path, err)
			return
		}
		fmt.Printf("wrote %s\n\n", path)
	}
}

func (p printer) fig345(s experiments.Setup, ls []float64) error {
	res, err := experiments.RunFig345(s, ls)
	if err != nil {
		return err
	}
	p.figure(res.Messages)
	p.figure(res.Delay)
	p.figure(res.Forwarded)
	return nil
}

func (p printer) fig6(s experiments.Setup, ls []float64) error {
	fig, err := experiments.RunFig6(s, ls, true)
	if err != nil {
		return err
	}
	p.figure(fig)
	return nil
}

func (p printer) analysis(s experiments.Setup) error {
	res, err := experiments.RunAnalysis(s, 0.1)
	if err != nil {
		return err
	}
	fmt.Println(res.Table())
	return nil
}

func (p printer) monitor(s experiments.Setup, ls []float64) error {
	fig, err := experiments.RunMonitorOverhead(s, ls)
	if err != nil {
		return err
	}
	p.figure(fig)
	return nil
}

func (p printer) recovery(s experiments.Setup) error {
	res, err := experiments.RunRecovery(s, nil)
	if err != nil {
		return err
	}
	fmt.Println(res.Table())
	return nil
}

func (p printer) scaling(s experiments.Setup) error {
	res, err := experiments.RunScaling(s, nil)
	if err != nil {
		return err
	}
	fmt.Println(res.Table())
	return nil
}

func (p printer) ablation(s experiments.Setup) error {
	res, err := experiments.RunPhaseAblation(s, 0.2, nil, nil)
	if err != nil {
		return err
	}
	fmt.Println(res.Table())
	return nil
}

func (p printer) delays(s experiments.Setup, ls []float64) error {
	msgs, delay, err := experiments.RunDelayAblation(s, ls)
	if err != nil {
		return err
	}
	p.figure(msgs)
	p.figure(delay)
	return nil
}

func (p printer) volume(s experiments.Setup, ls []float64) error {
	fig, err := experiments.RunVolumeComparison(s, ls)
	if err != nil {
		return err
	}
	p.figure(fig)
	return nil
}

func (p printer) fairness(s experiments.Setup) error {
	res, err := experiments.RunFairnessComparison(s)
	if err != nil {
		return err
	}
	fmt.Println(res.Table())
	return nil
}

func (p printer) tuning(s experiments.Setup) error {
	res, err := experiments.RunRecoveryTuning(s, 0.005, nil)
	if err != nil {
		return err
	}
	fmt.Println(res.Table())
	return nil
}

func (p printer) window(s experiments.Setup, ls []float64) error {
	res, err := experiments.RunWindowTradeoff(s, ls)
	if err != nil {
		return err
	}
	// The Pareto curve has a different x per point and series, which the
	// per-x figure table cannot show; the sweep's own table is the text
	// form, the figure goes out as CSV/SVG only.
	fmt.Println(res.Table())
	p.export(res.Pareto)
	return nil
}

func (p printer) model(s experiments.Setup, ls []float64) error {
	res, err := experiments.RunModelValidation(s, ls)
	if err != nil {
		return err
	}
	fmt.Println(res.Table())
	return nil
}

// trace replays the paper's §2.2 worked example (Figure 2) — five nodes,
// all protocol parameters set to 1 time unit, the four requests of the
// example — and prints every message on the wire. The expected outcome is
// the paper's: batches {2,5} then {4,3} (1-indexed), one forwarded
// request, critical sections in the order 2, 5, 4, 3.
func (p printer) trace() error {
	rec := &dme.TraceRecorder{}
	cfg := dme.Config{
		N:              5,
		Seed:           1,
		Delay:          sim.ConstantDelay{D: 1},
		Texec:          1,
		TotalRequests:  4,
		MaxVirtualTime: 100,
		Trace:          rec.Record,
	}
	r, err := dme.NewRunner(core.New(core.Options{Treq: 1, Tfwd: 1}), cfg)
	if err != nil {
		return err
	}
	r.ScheduleAt(0.05, func() { r.InjectRequest(1) })
	r.ScheduleAt(0.25, func() { r.InjectRequest(4) })
	r.ScheduleAt(1.30, func() { r.InjectRequest(3) })
	r.ScheduleAt(3.50, func() { r.InjectRequest(2) })
	if _, err := r.Run(); err != nil {
		return err
	}
	fmt.Println("Paper §2.2 worked example (nodes 0-4 = paper nodes 1-5):")
	fmt.Println()
	fmt.Print(rec.String())
	fmt.Printf("\ncritical-section order: %v (paper: 2, 5, 4, 3 → 1, 4, 3, 2)\n", rec.CSOrder())
	return nil
}
