package experiments

import (
	"repro/internal/core"
	"repro/internal/coverage"
)

// TableVI reproduces Table VI: COMPI with its MPI framework (Fwk) against
// the framework-disabled ablation (No_Fwk: fixed focus, fixed 8 processes,
// focus-only coverage recording) and pure random testing under the same
// input caps.
func TableVI(s Scale) *Table {
	t := &Table{
		ID:    "table6",
		Title: "COMPI framework vs. No_Fwk vs. Random (coverage rate, avg/max)",
		Header: []string{"Program", "Fwk avg", "Fwk max", "No_Fwk avg", "No_Fwk max",
			"Random avg", "Random max"},
		Notes: []string{
			"paper: SUSY 84.7 vs 3.4 vs 38.3; HPL 69.4 vs 58.9 vs 2.2; IMB 69.0 vs 64.2 vs 1.8 (avg %)",
		},
	}
	for _, tn := range tunings() {
		row := []string{tn.name}

		// Fwk: COMPI itself.
		var rates []float64
		for rep := 0; rep < s.Reps; rep++ {
			res := campaign(tn, s, int64(900+rep*13), nil)
			rates = append(rates, rateOf(res.Coverage.Count(), tn, s))
		}
		avg, max := avgMax(rates)
		row = append(row, pct(avg), pct(max))

		// No_Fwk: fixed 8 processes, and — per the paper — the evaluation is
		// performed with each of the 8 ranks as the fixed focus, with the
		// per-focus coverages combined.
		rates = rates[:0]
		for rep := 0; rep < s.Reps; rep++ {
			covered := noFwkCombined(tn, s, int64(1700+rep*13))
			rates = append(rates, rateOf(covered, tn, s))
		}
		avg, max = avgMax(rates)
		row = append(row, pct(avg), pct(max))

		// Random testing under the same caps.
		rates = rates[:0]
		for rep := 0; rep < s.Reps; rep++ {
			res := campaign(tn, s, int64(2600+rep*13), func(c *core.Config) {
				c.PureRandom = true
			})
			rates = append(rates, rateOf(res.Coverage.Count(), tn, s))
		}
		avg, max = avgMax(rates)
		row = append(row, pct(avg), pct(max))

		t.Rows = append(t.Rows, row)
	}
	return t
}

// noFwkCombined runs the framework-disabled ablation once per focus rank
// (splitting the iteration budget), combines the focus-only coverages, and
// returns the combined branch count.
func noFwkCombined(tn tuning, s Scale, seed int64) int {
	const nprocs = 8
	union := coverage.New()
	for focus := 0; focus < nprocs; focus++ {
		res := campaign(tn, s, seed+int64(focus), func(c *core.Config) {
			c.Framework = false
			c.InitialProcs = nprocs
			c.InitialFocus = focus
			c.Iterations = s.Iters / nprocs
		})
		union.Merge(res.Coverage)
	}
	return union.Count()
}
