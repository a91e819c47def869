package stencil

import (
	"testing"
	"time"

	"repro/internal/conc"
	"repro/internal/mpi"
	"repro/internal/target"
)

// launch runs one job with the given campaign parameters (fix toggles and
// caps), the same bag a campaign carries in core.Config.Params.
func launch(t *testing.T, n int, inputs, params map[string]int64, timeout time.Duration) mpi.RunResult {
	t.Helper()
	if timeout == 0 {
		timeout = 20 * time.Second
	}
	return mpi.Launch(mpi.Spec{
		NProcs:    n,
		Main:      Main,
		Vars:      conc.NewVarSpace(),
		Reduction: true,
		Seed:      1,
		MaxTicks:  3_000_000,
		Params:    params,
		Inputs:    inputs,
		Timeout:   timeout,
	})
}

func TestDefaultsRunClean(t *testing.T) {
	for _, np := range []int{1, 2, 4, 8} {
		res := launch(t, np, DefaultInputs(), FixAll(), 0)
		for _, rr := range res.Ranks {
			if rr.Status != mpi.StatusOK || rr.Exit != 0 {
				t.Fatalf("np=%d rank %d: %v exit=%d err=%v",
					np, rr.Rank, rr.Status, rr.Exit, rr.Err)
			}
		}
	}
}

func TestHeatDiffuses(t *testing.T) {
	// With a tight tolerance and generous iteration budget the solver must
	// exit through the convergence branch on the focus.
	in := DefaultInputs()
	in["tol"] = 2000
	in["maxiter"] = 200
	res := launch(t, 4, in, FixAll(), 0)
	if res.Failed() {
		t.Fatal("run failed")
	}
	conv := false
	for _, b := range res.Ranks[0].Log.Covered {
		if b.Site() == cConverged && b.Outcome() {
			conv = true
		}
	}
	if !conv {
		t.Fatal("never took the converged branch")
	}
}

func TestSanityRejects(t *testing.T) {
	for _, c := range []struct {
		name  string
		patch map[string]int64
	}{
		{"nx=2", map[string]int64{"nx": 2}},
		{"ny<np", map[string]int64{"ny": 3}},
		{"tol<0", map[string]int64{"tol": -1}},
		{"src>1000", map[string]int64{"src": 1500}},
		{"decomp=2", map[string]int64{"decomp": 2}},
	} {
		in := DefaultInputs()
		for k, v := range c.patch {
			in[k] = v
		}
		res := launch(t, 4, in, FixAll(), 0)
		fe, bad := res.FirstError()
		if !bad || fe.Exit != 1 {
			t.Fatalf("%s: want sanity exit 1, got %+v", c.name, fe)
		}
	}
}

func TestInfiniteLoopBugHangs(t *testing.T) {
	in := DefaultInputs()
	in["maxiter"] = 0 // run to convergence...
	in["tol"] = 0     // ...which never happens
	res := launch(t, 2, in, UnfixAll(), 5*time.Second)
	fe, bad := res.FirstError()
	if !bad || fe.Status != mpi.StatusHang {
		t.Fatalf("want hang, got %+v", fe)
	}
}

func TestInfiniteLoopFixRejectsConfig(t *testing.T) {
	in := DefaultInputs()
	in["maxiter"] = 0
	in["tol"] = 0
	res := launch(t, 2, in, FixAll(), 0)
	fe, bad := res.FirstError()
	if !bad || fe.Exit != 3 {
		t.Fatalf("fixed program must reject the config with exit 3, got %+v", fe)
	}
}

func TestRunToConvergenceWorksWhenTolerant(t *testing.T) {
	in := DefaultInputs()
	in["maxiter"] = 0 // unlimited, but tol > 0 converges
	in["tol"] = 5000
	res := launch(t, 2, in, FixAll(), 0)
	if res.Failed() {
		fe, _ := res.FirstError()
		t.Fatalf("run-to-convergence failed: %+v", fe)
	}
}

func TestGhostBugCrashesColumnDecomp(t *testing.T) {
	in := DefaultInputs()
	in["decomp"] = 1
	res := launch(t, 4, in, UnfixAll(), 0)
	fe, bad := res.FirstError()
	if !bad || fe.Status != mpi.StatusCrash {
		t.Fatalf("want crash, got %+v", fe)
	}
	// Single-rank runs never exchange ghosts: no crash.
	res = launch(t, 1, in, UnfixAll(), 0)
	if res.Failed() {
		t.Fatal("ghost bug fired on one rank")
	}
}

func TestRegistered(t *testing.T) {
	prog, ok := target.Lookup("stencil")
	if !ok {
		t.Fatal("not registered")
	}
	if prog.TotalBranches() < 30 {
		t.Fatalf("branches: %d", prog.TotalBranches())
	}
}
