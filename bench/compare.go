package main

import (
	"fmt"
	"io"
	"math"
)

// compareFiles applies each end-to-end metric's bound, and the bounds
// workloadBounds gives single per-layer metrics, workload by workload, to
// candidate b against reference a. It prints one row per (workload,
// metric) and returns the number of breaches: a metric worse than its
// bound allows, an exact count that differs between two runs of one seed,
// a failed operation, or a run marked invalid.
func compareFiles(w io.Writer, a, b *resultFile) int {
	breaches := 0
	sameSeed := a.Provenance.Seed == b.Provenance.Seed
	fmt.Fprintf(w, "%-11s %-34s %14s %14s %9s %7s  %s\n", "workload", "metric", "reference", "candidate", "worse by", "bound", "verdict")
	row := func(workload, name string, av, bv metricValue, worse, bound float64, verdict string) {
		fmt.Fprintf(w, "%-11s %-34s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
			workload, name, av.Value, bv.Value, 100*worse, 100*bound, verdict)
	}
	for _, wd := range workloadDefs {
		ra, rb := a.Workloads[wd.Name], b.Workloads[wd.Name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-11s missing from one file\n", wd.Name)
			breaches++
			continue
		}
		for _, r := range []*workloadResult{ra, rb} {
			if r.Invalid != "" {
				fmt.Fprintf(w, "%-11s INVALID: %s\n", wd.Name, r.Invalid)
				breaches++
			}
		}
		for _, d := range suiteEndToEndDefs {
			av, okA := ra.EndToEnd[d.Name]
			bv, okB := rb.EndToEnd[d.Name]
			if !okA || !okB {
				fmt.Fprintf(w, "%-11s %-34s missing from one file\n", wd.Name, d.Name)
				breaches++
				continue
			}
			bound := boundFor(wd.Name, d)
			worse := relWorse(d, av.Value, bv.Value)
			verdict := "ok"
			switch {
			case d.Name == "failed_ratio":
				if av.Value != 0 || bv.Value != 0 {
					verdict = "BREACH: operations failed"
				}
			case d.Name == "setup_s" && math.Abs(bv.Value-av.Value) <= setupFloorS:
				// within the absolute floor
			case sameSeed && wd.Name == wlSimPaper && simExact[d.Name]:
				if av.Value != bv.Value {
					verdict = "BREACH: exact count differs"
				}
			case worse > bound:
				verdict = "BREACH"
			}
			if verdict != "ok" {
				breaches++
			}
			row(wd.Name, d.Name, av, bv, worse, bound, verdict)
		}
		for _, d := range perLayerDefs {
			av, okA := ra.PerLayer[d.Name]
			bv, okB := rb.PerLayer[d.Name]
			if !okA || !okB || (av.Value == 0 && bv.Value == 0) {
				continue // a layer neither run executed
			}
			verdict, bound := "-", workloadBounds[wd.Name][d.Name]
			worse := relWorse(d, av.Value, bv.Value)
			if bound > 0 {
				verdict = "ok"
				if worse > bound {
					verdict = "BREACH"
					breaches++
				}
			}
			if d.Exact {
				switch {
				case !sameSeed:
					verdict = "exact count, seeds differ"
				case av.Value != bv.Value:
					verdict = "BREACH: exact count differs"
					breaches++
				default:
					verdict = "exact"
				}
			}
			row(wd.Name, d.Name, av, bv, worse, bound, verdict)
		}
	}
	fmt.Fprintf(w, "%d breach(es)\n", breaches)
	return breaches
}

// relWorse is how much worse candidate b is than reference a, as a share
// of a: positive when worse, negative when better.
func relWorse(d metricDef, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	rel := (b - a) / math.Abs(a)
	if d.Better == "higher" {
		return -rel
	}
	return rel
}
