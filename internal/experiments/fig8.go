package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/targets/hpl"
	"repro/internal/targets/imb"
	"repro/internal/targets/susy"
)

// Fig8 reproduces Figure 8: the input-capping study. For each program, the
// dominant input's cap is varied (SUSY lattice dims 5 vs 10; HPL matrix size
// 300/600/1200; IMB iterations 50/100/400) and Reps campaigns measure the
// testing time against the achieved coverage. The paper's shape: bigger caps
// cost 4-7x more time for comparable coverage. Every (program, cap, rep)
// campaign carries its cap as a per-campaign parameter, so the full grid is
// one scheduler batch.
func Fig8(s Scale) *Table {
	t := &Table{
		ID:     "fig8",
		Title:  "Input capping: testing time vs. coverage at different caps",
		Header: []string{"Program", "Cap", "Avg time", "Max time", "Avg covered", "Max covered"},
		Notes: []string{
			"paper: SUSY 5->10 ~4x time; HPL 300->1200 up to ~7x (worst case); IMB 50->400 ~4x; coverage comparable",
		},
	}

	type study struct {
		tn    tuning
		caps  []int64
		capOf func(cap int64) map[string]int64
		iters int
	}
	studies := []study{
		{tn: tunings()[0], caps: []int64{5, 10},
			capOf: susy.CapParams, iters: s.Iters / 4},
		{tn: tunings()[1], caps: []int64{300, 600, 1200},
			capOf: hpl.CapParams, iters: s.Iters / 2},
		{tn: tunings()[2], caps: []int64{50, 100, 400},
			capOf: imb.CapParams, iters: s.Iters / 2},
	}

	var specs []sched.Spec
	for _, st := range studies {
		for _, cap := range st.caps {
			params := core.MergeParams(st.tn.params, st.capOf(cap))
			for rep := 0; rep < s.Reps; rep++ {
				label := fmt.Sprintf("%s/cap%d/r%d", st.tn.name, cap, rep)
				specs = append(specs, campaignSpec(label, st.tn, s, int64(100*rep+7), func(c *spec.Campaign) {
					c.Iterations = st.iters
					c.Params = params
				}))
			}
		}
	}
	rep := s.runBatch(specs)

	next := 0
	for _, st := range studies {
		for _, cap := range st.caps {
			var times, covs []float64
			for r := 0; r < s.Reps; r++ {
				res := rep.Campaigns[next].Result
				next++
				times = append(times, res.Elapsed.Seconds())
				covs = append(covs, float64(res.Coverage.Count()))
			}
			at, mt := avgMax(times)
			ac, mc := avgMax(covs)
			t.Rows = append(t.Rows, []string{
				st.tn.name, fmt.Sprint(cap),
				(time.Duration(at * float64(time.Second))).Round(time.Millisecond).String(),
				(time.Duration(mt * float64(time.Second))).Round(time.Millisecond).String(),
				fmt.Sprintf("%.0f", ac), fmt.Sprintf("%.0f", mc),
			})
		}
	}
	return t
}
