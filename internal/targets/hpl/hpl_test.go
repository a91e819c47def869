package hpl

import (
	"testing"
	"time"

	"repro/internal/conc"
	"repro/internal/mpi"
	"repro/internal/target"
)

// launch runs the program once with the given inputs on n ranks.
func launch(t *testing.T, n int, inputs map[string]int64) mpi.RunResult {
	t.Helper()
	return mpi.Launch(mpi.Spec{
		NProcs:    n,
		Main:      Main,
		Vars:      conc.NewVarSpace(),
		Reduction: true,
		Seed:      1,
		MaxTicks:  50_000_000,
		Inputs:    inputs,
		Timeout:   60 * time.Second,
	})
}

func TestDefaultInputsSolve(t *testing.T) {
	res := launch(t, 8, DefaultInputs())
	for _, rr := range res.Ranks {
		if rr.Status != mpi.StatusOK || rr.Exit != 0 {
			t.Fatalf("rank %d: %v exit=%d err=%v", rr.Rank, rr.Status, rr.Exit, rr.Err)
		}
	}
}

func TestResidualPassesOnDefaults(t *testing.T) {
	// Exit 0 with checkres=1 means the residual check passed; additionally
	// the cResidPass true branch must be covered on the focus.
	res := launch(t, 8, DefaultInputs())
	if res.Failed() {
		t.Fatal("run failed")
	}
	covered := false
	for _, b := range res.Ranks[0].Log.Covered {
		if b.Site() == cResidPass && b.Outcome() {
			covered = true
		}
	}
	if !covered {
		t.Fatal("residual-pass branch not covered: LU result is wrong")
	}
}

func TestSanityRejectsBadInputs(t *testing.T) {
	cases := []struct {
		name  string
		patch map[string]int64
	}{
		{"n=0", map[string]int64{"n": 0}},
		{"nb=0", map[string]int64{"nb": 0}},
		{"nb>n", map[string]int64{"n": 10, "nb": 20}},
		{"p=0", map[string]int64{"p": 0}},
		{"ndiv=1", map[string]int64{"ndiv": 1}},
		{"align=6", map[string]int64{"align": 6}},
		{"bcast=9", map[string]int64{"bcast": 9}},
		{"nruns=0", map[string]int64{"nruns": 0}},
		{"seed<0", map[string]int64{"seed": -1}},
	}
	for _, c := range cases {
		in := DefaultInputs()
		for k, v := range c.patch {
			in[k] = v
		}
		res := launch(t, 8, in)
		fe, bad := res.FirstError()
		if !bad || fe.Exit != 1 {
			t.Fatalf("%s: want sanity exit 1, got %+v", c.name, fe)
		}
	}
}

func TestGridLargerThanJobRejected(t *testing.T) {
	in := DefaultInputs()
	in["p"], in["q"] = 4, 4 // 16 > 8 ranks
	res := launch(t, 8, in)
	fe, bad := res.FirstError()
	if !bad || fe.Exit != 1 {
		t.Fatalf("want grid-fit rejection, got %+v", fe)
	}
}

func TestSingularMatrixDetected(t *testing.T) {
	in := DefaultInputs()
	in["seed"] = 0 // rank-one matrix
	res := launch(t, 8, in)
	fe, bad := res.FirstError()
	if !bad || fe.Exit != 3 {
		t.Fatalf("want singular exit 3, got %+v", fe)
	}
}

func TestSmallGridAndPartialBlocks(t *testing.T) {
	in := DefaultInputs()
	in["n"], in["nb"], in["p"], in["q"] = 37, 8, 1, 2 // uneven final block
	res := launch(t, 4, in)
	if res.Failed() {
		fe, _ := res.FirstError()
		t.Fatalf("failed: %+v", fe)
	}
}

func TestColumnMajorGrid(t *testing.T) {
	in := DefaultInputs()
	in["pmap"] = 1
	res := launch(t, 8, in)
	if res.Failed() {
		t.Fatal("column-major grid run failed")
	}
}

func TestPanelFactorizationVariants(t *testing.T) {
	// All three PFACT variants must produce a correct factorization: the
	// residual check is the oracle.
	for _, pf := range []int64{0, 1, 2} {
		in := DefaultInputs()
		in["pfact"] = pf
		res := launch(t, 8, in)
		if res.Failed() {
			fe, _ := res.FirstError()
			t.Fatalf("pfact=%d failed: %+v", pf, fe)
		}
		passed := false
		for _, b := range res.Ranks[0].Log.Covered {
			if b.Site() == cResidPass && b.Outcome() {
				passed = true
			}
		}
		if !passed {
			t.Fatalf("pfact=%d: residual check did not pass", pf)
		}
	}
}

func TestBcastVariants(t *testing.T) {
	for _, bc := range []int64{0, 2, 5} {
		in := DefaultInputs()
		in["bcast"] = bc
		res := launch(t, 8, in)
		if res.Failed() {
			t.Fatalf("bcast=%d failed", bc)
		}
	}
}

// TestExecutionTimeScalesWithN checks that a larger matrix costs the focus
// rank more execution work, counted in branch events, which repeat exactly
// from run to run where wall-clock times do not.
func TestExecutionTimeScalesWithN(t *testing.T) {
	events := func(n int64) int {
		in := DefaultInputs()
		in["n"] = n
		res := launch(t, 8, in) // the default p=2 x q=4 grid needs 8 ranks
		if fe, failed := res.FirstError(); failed {
			t.Fatalf("n=%d: rank %d %v exit=%d err=%v", n, fe.Rank, fe.Status, fe.Exit, fe.Err)
		}
		return len(res.Ranks[0].Log.Trace)
	}
	small, large := events(60), events(240)
	t.Logf("focus branch events: %d at n=60, %d at n=240", small, large)
	if large < 2*small {
		t.Fatalf("focus branch events: %d at n=240, %d at n=60; want clear growth", large, small)
	}
}

func TestProgramRegistration(t *testing.T) {
	prog, ok := target.Lookup("hpl")
	if !ok {
		t.Fatal("hpl not registered")
	}
	if prog.TotalBranches() < 80 {
		t.Fatalf("suspiciously few branches: %d", prog.TotalBranches())
	}
	if len(prog.Functions()) < 6 {
		t.Fatalf("functions: %v", prog.Functions())
	}
}

func TestReachableBranchEstimate(t *testing.T) {
	prog, _ := target.Lookup("hpl")
	res := launch(t, 8, DefaultInputs())
	funcs := map[string]struct{}{}
	for _, f := range res.Ranks[0].Log.Funcs {
		funcs[f] = struct{}{}
	}
	reach := prog.ReachableBranches(funcs)
	if reach == 0 || reach > prog.TotalBranches() {
		t.Fatalf("reachable estimate %d/%d", reach, prog.TotalBranches())
	}
}
