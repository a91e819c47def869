package experiments

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/targets/hpl"
)

// Fig6 reproduces Figure 6: HPL run at matrix sizes 100, 200, ..., 1000 with
// all other inputs at their defaults. The paper observes a small coverage
// increase from 100 to 200, flat coverage beyond, and an execution-time cost
// at N=1000 of 27.2× the cost at N=200 — the motivation for input capping.
// Beside the measured time, each row reports the focus rank's log bytes, a
// work measure that repeats exactly from run to run. The N sweep is one
// scheduler batch; the enlarged cap that admits the big matrices is a
// per-campaign parameter.
func Fig6(s Scale) *Table {
	t := &Table{
		ID:     "fig6",
		Title:  "HPL coverage and time cost vs. matrix size (defaults otherwise)",
		Header: []string{"N", "Covered branches", "Time", "Time / Time(200)", "Focus log (B)"},
		Notes: []string{
			"paper: coverage nearly flat from 200 up; time(1000) ~= 27.2 x time(200)",
		},
	}
	params := hpl.CapParams(int64(s.Fig6MaxN))

	var specs []sched.Spec
	var sizes []int
	for n := 100; n <= s.Fig6MaxN; n += 100 {
		in := hpl.DefaultInputs()
		in["n"] = int64(n)
		specs = append(specs, fixedSpec(fmt.Sprintf("hpl/N%d", n), "hpl", in,
			8, 0, false, params, s.RunTimeout))
		sizes = append(sizes, n)
	}
	rep := s.runBatch(specs)

	var base float64
	for i, n := range sizes {
		fr := fixedResultOf(rep.Campaigns[i])
		if n == 200 {
			base = fr.elapsed.Seconds()
		}
		ratio := "-"
		if base > 0 {
			ratio = fmt.Sprintf("%.1fx", fr.elapsed.Seconds()/base)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			fmt.Sprint(fr.covered),
			fr.elapsed.Round(1000000).String(),
			ratio,
			fmt.Sprint(fr.focusLog),
		})
	}
	return t
}
