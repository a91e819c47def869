package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/targets/hpl"
	"repro/internal/targets/imb"
	"repro/internal/targets/susy"
)

// TableIV reproduces Table IV: one-way vs. two-way instrumentation on
// simulated testing with inputs pinned to defaults (dynamic derivation
// disabled). For each program and problem size N, FixedRuns executions run
// once with every rank heavily instrumented (one-way) and once with only the
// focus heavy (two-way); the table reports the time saving and the average
// non-focus log sizes. The whole grid — configs × runs × {one-way,two-way} —
// is one scheduler batch; the enlarged caps and SUSY fixes ride along as
// per-campaign parameters instead of mutated globals.
func TableIV(s Scale) *Table {
	t := &Table{
		ID:    "table4",
		Title: "One-way vs. two-way instrumentation (fixed default inputs)",
		Header: []string{"Program", "N", "1-way time", "2-way time", "Saving",
			"1-way avg log (B)", "2-way avg log (B)"},
		Notes: []string{
			"paper: savings 47-53% (SUSY), 62-67% (HPL), 0-12.5% (IMB);",
			"non-focus logs: MBs one-way vs a few KB two-way",
		},
	}

	type config struct {
		progName string
		n        int64
		nprocs   int
		inputs   func(n int64) map[string]int64
	}
	params := core.MergeParams(
		susy.FixAll(), susy.CapParams(8),
		hpl.CapParams(1200), imb.CapParams(2000),
	)

	// Like the paper's platform, every job runs 8 processes (the savings of
	// two-way instrumentation come from relieving a fully subscribed
	// machine of N-1 heavy processes); the lattice's spatial dimensions
	// carry the problem size N while nt=8 satisfies the 8-way layout.
	susyInputs := func(n int64) map[string]int64 {
		in := susy.DefaultInputs()
		in["nx"], in["ny"], in["nz"], in["nt"] = n, n, n, 8
		// A full-length trajectory schedule, so the measured runs are long
		// enough for the instrumentation cost to dominate launch noise.
		in["trajecs"], in["nstep"], in["niter"] = 8, 10, 20
		return in
	}
	configs := []config{
		{"susy-hmc", 2, 8, susyInputs},
		{"susy-hmc", 4, 8, susyInputs},
		{"hpl", 300, 8, func(n int64) map[string]int64 {
			in := hpl.DefaultInputs()
			in["n"] = n
			return in
		}},
		{"hpl", 600, 8, func(n int64) map[string]int64 {
			in := hpl.DefaultInputs()
			in["n"] = n
			return in
		}},
		{"imb-mpi1", 100, 8, func(n int64) map[string]int64 {
			in := imb.DefaultInputs()
			in["niter"] = n
			return in
		}},
		{"imb-mpi1", 400, 8, func(n int64) map[string]int64 {
			in := imb.DefaultInputs()
			in["niter"] = n
			return in
		}},
		{"imb-mpi1", 1600, 8, func(n int64) map[string]int64 {
			in := imb.DefaultInputs()
			in["niter"] = n
			return in
		}},
	}

	var specs []sched.Spec
	for _, c := range configs {
		for _, oneWay := range []bool{true, false} {
			way := map[bool]string{true: "1way", false: "2way"}[oneWay]
			for i := 0; i < s.FixedRuns; i++ {
				label := fmt.Sprintf("%s/N%d/%s/r%d", c.progName, c.n, way, i)
				specs = append(specs, fixedSpec(label, c.progName, c.inputs(c.n),
					c.nprocs, 0, oneWay, params, s.RunTimeout))
			}
		}
	}
	rep := s.runBatch(specs)

	next := 0
	for _, c := range configs {
		measure := func() (time.Duration, int) {
			var total time.Duration
			var logSum, logN int
			for i := 0; i < s.FixedRuns; i++ {
				fr := fixedResultOf(rep.Campaigns[next])
				next++
				total += fr.elapsed
				logSum += fr.otherAvg
				logN++
			}
			return total, logSum / logN
		}
		t1, l1 := measure()
		t2, l2 := measure()
		saving := "-"
		if t1 > 0 {
			saving = fmt.Sprintf("%.1f%%", 100*(1-t2.Seconds()/t1.Seconds()))
		}
		t.Rows = append(t.Rows, []string{
			c.progName, fmt.Sprint(c.n),
			t1.Round(time.Millisecond).String(), t2.Round(time.Millisecond).String(),
			saving, fmt.Sprint(l1), fmt.Sprint(l2),
		})
	}
	return t
}
