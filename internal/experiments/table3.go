package experiments

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/spec"
)

// TableIII reproduces Table III: the complexity of the target programs —
// SLOC, total branches from the instrumentation-time declarations, and the
// reachable-branch estimate (branches of every function encountered during a
// probe campaign, per the CREST FAQ methodology). The three probe campaigns
// are independent, so they run as one parallel scheduler batch.
func TableIII(s Scale) *Table {
	t := &Table{
		ID:     "table3",
		Title:  "Complexity of target programs",
		Header: []string{"Program", "SLOC", "Branches(total)", "Branches(reachable est.)"},
		Notes: []string{
			"paper: SUSY-HMC 19201/2870/2030, HPL 15699/3754/3468, IMB-MPI1 7092/1290/1114",
			"the mini applications are smaller by construction; the total>reachable shape is preserved",
		},
	}
	tns := tunings()
	specs := make([]sched.Spec, len(tns))
	for i, tn := range tns {
		specs[i] = campaignSpec(tn.name, tn, s, 1, func(c *spec.Campaign) {
			c.Iterations = s.Iters / 2
		})
	}
	rep := s.runBatch(specs)
	for i, tn := range tns {
		prog := program(tn.name)
		res := rep.Campaigns[i].Result
		reach := prog.ReachableBranches(res.Coverage.Funcs())
		t.Rows = append(t.Rows, []string{
			tn.name,
			fmt.Sprint(prog.SLOC),
			fmt.Sprint(prog.TotalBranches()),
			fmt.Sprint(reach),
		})
	}
	return t
}
