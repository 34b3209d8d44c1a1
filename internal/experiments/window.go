package experiments

import (
	"fmt"
	"strings"

	"tokenarbiter/internal/analytic"
	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/stats"
)

// WindowLambdas is E16's load grid: the sweep of Figures 3–5 with one
// point added toward idle, where the adaptive window has the most to give.
var WindowLambdas = append([]float64{0.005}, DefaultLambdas...)

// windowTreq is the collection phase both rules run in E16 — the paper's
// continuous curve.
const windowTreq = 0.1

// WindowRow is one load point of E16: the paper's fixed collection window
// against the adaptive one (core.Options.AdaptiveWindow), with the
// batch-polling model's prediction for the fixed window as the reference
// column.
type WindowRow struct {
	Lambda     float64
	BatchModel float64 // analytic.BatchSize, fixed window
	MsgsModel  float64 // analytic.MessagesIntermediate, fixed window
	Fixed      RepStats
	Adaptive   RepStats
}

// WindowResult is E16, the fixed-vs-adaptive collection-window sweep.
type WindowResult struct {
	Rows []WindowRow
	// Pareto plots each rule's (messages/CS, mean wait) operating points,
	// one per load; down and to the left is better on both axes.
	Pareto *Figure
}

// Table renders the sweep with 95% intervals across replications and the
// adaptive rule's cost or gain on each axis.
func (r *WindowResult) Table() string {
	var b strings.Builder
	b.WriteString("E16 — fixed vs. adaptive collection window (Treq = 0.1; wait = request arrival to CS entry)\n")
	fmt.Fprintf(&b, "%7s | %6s %6s | %15s %15s %7s | %15s %15s %8s\n",
		"lambda", "k̂", "M̂", "M fixed", "M adaptive", "ΔM", "W fixed", "W adaptive", "ΔW")
	b.WriteString(strings.Repeat("-", 112) + "\n")
	cell := func(w *stats.Welford) string { return fmt.Sprintf("%.3f ± %.3f", w.Mean(), w.CI95()) }
	for _, row := range r.Rows {
		mf, ma := row.Fixed.MsgsPerCS.Mean(), row.Adaptive.MsgsPerCS.Mean()
		wf, wa := row.Fixed.Waiting.Mean(), row.Adaptive.Waiting.Mean()
		fmt.Fprintf(&b, "%7.3g | %6.2f %6.2f | %15s %15s %+6.1f%% | %15s %15s %+8.3f\n",
			row.Lambda, row.BatchModel, row.MsgsModel,
			cell(&row.Fixed.MsgsPerCS), cell(&row.Adaptive.MsgsPerCS), 100*(ma-mf)/mf,
			cell(&row.Fixed.Waiting), cell(&row.Adaptive.Waiting), wa-wf)
	}
	return b.String()
}

// RunWindowTradeoff runs E16: the arbiter algorithm over the load sweep
// twice, once with the paper's fixed collection window and once with the
// adaptive one, same seeds on both sides.
func RunWindowTradeoff(s Setup, lambdas []float64) (*WindowResult, error) {
	if lambdas == nil {
		lambdas = WindowLambdas
	}
	adaptive := arbiterOptions(windowTreq, 0.1)
	adaptive.AdaptiveWindow = true
	algos := []*core.Algorithm{core.New(arbiterOptions(windowTreq, 0.1)), core.New(adaptive)}
	grid, err := runGrid(s, len(algos)*len(lambdas), func(cell, rep int) (*dme.Metrics, error) {
		ai, li := cell/len(lambdas), cell%len(lambdas)
		m, err := dme.Run(algos[ai], s.config(lambdas[li], rep))
		if err != nil {
			return nil, fmt.Errorf("%s λ=%v rep %d: %w", algos[ai].Name(), lambdas[li], rep, err)
		}
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	res := &WindowResult{Pareto: &Figure{
		ID:     "e16",
		Title:  "Collection window: fixed vs. adaptive, one point per load",
		XLabel: "messages per CS",
		YLabel: "mean wait (time units)",
	}}
	p := analytic.Params{N: s.N, Tmsg: s.Tmsg, Texec: s.Texec, Treq: windowTreq}
	for li, lambda := range lambdas {
		row := WindowRow{
			Lambda:   lambda,
			Fixed:    aggregateReps(grid[li]),
			Adaptive: aggregateReps(grid[len(lambdas)+li]),
		}
		if row.BatchModel, err = analytic.BatchSize(p, lambda); err != nil {
			return nil, err
		}
		if row.MsgsModel, err = analytic.MessagesIntermediate(p, lambda); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
		for _, side := range []struct {
			series string
			rs     RepStats
		}{{"fixed Treq", row.Fixed}, {"adaptive", row.Adaptive}} {
			res.Pareto.AddPoint(side.series, Point{X: side.rs.MsgsPerCS.Mean(), Y: side.rs.Waiting.Mean(), CI: side.rs.Waiting.CI95()})
		}
	}
	return res, nil
}
