package experiments

import "testing"

// TestWindowTradeoffRegimes pins what E16 says the adaptive window costs,
// one assertion per regime (EXPERIMENTS.md records the same at full
// scale): at light load it buys most of a Treq for about one percent of
// messages, at heavy load it changes nothing, and in between it is a
// trade — less wait for visibly more messages, not a free lunch.
func TestWindowTradeoffRegimes(t *testing.T) {
	s := DefaultSetup()
	s.Requests = 30_000
	s.Reps = 3
	res, err := RunWindowTradeoff(s, []float64{0.005, 0.01, 0.2, 0.45})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Table())
	delta := func(row WindowRow) (msgsRel, wait float64) {
		mf := row.Fixed.MsgsPerCS.Mean()
		return (row.Adaptive.MsgsPerCS.Mean() - mf) / mf,
			row.Adaptive.Waiting.Mean() - row.Fixed.Waiting.Mean()
	}
	for _, row := range res.Rows[:2] { // light
		dm, dw := delta(row)
		if dw > -0.8*windowTreq {
			t.Errorf("λ=%g: wait moved %+.3f, want a drop of at least 0.8·Treq", row.Lambda, dw)
		}
		if dm > 0.015 {
			t.Errorf("λ=%g: messages/CS %+.1f%%, want within about +1%%", row.Lambda, 100*dm)
		}
	}
	mid := res.Rows[2]
	if dm, dw := delta(mid); dm < 0.03 || dw > -0.03 {
		t.Errorf("λ=%g: messages/CS %+.1f%%, wait %+.3f; the mid-load trade (more messages for less wait) is gone — re-read the constants against the curve",
			mid.Lambda, 100*dm, dw)
	}
	heavy := res.Rows[3]
	dm, dw := delta(heavy)
	if dm > 0.005 || dm < -0.005 {
		t.Errorf("λ=%g: messages/CS %+.2f%%, want within ±0.5%%", heavy.Lambda, 100*dm)
	}
	if ci := heavy.Fixed.Waiting.CI95(); dw > ci || dw < -ci {
		t.Errorf("λ=%g: wait moved %+.3f, outside the fixed window's own interval ±%.3f", heavy.Lambda, dw, ci)
	}
	if len(res.Pareto.Series) != 2 || len(res.Pareto.Series[0].Points) != len(res.Rows) {
		t.Errorf("Pareto figure has %d series; want fixed and adaptive, one point per load", len(res.Pareto.Series))
	}
}
