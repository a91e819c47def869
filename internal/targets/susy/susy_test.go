package susy

import (
	"strings"
	"testing"
	"time"

	"repro/internal/conc"
	"repro/internal/mpi"
	"repro/internal/target"
)

// launch runs one job with the given campaign parameters (fix toggles and
// caps) — per-launch state, standing in for what a campaign carries in its
// core.Config.Params.
func launch(t *testing.T, n int, inputs, params map[string]int64) mpi.RunResult {
	t.Helper()
	return mpi.Launch(mpi.Spec{
		NProcs: n,
		Main:   Main,
		Vars:   conc.NewVarSpace(),
		Conc: func(rank int) conc.Config {
			mode := conc.Light
			if rank == 0 {
				mode = conc.Heavy
			}
			return conc.Config{Mode: mode, Reduction: true, Seed: 1,
				MaxTicks: 20_000_000, Params: params}
		},
		Inputs:  inputs,
		Timeout: 30 * time.Second,
	})
}

func TestFixedProgramRunsClean(t *testing.T) {
	res := launch(t, 4, DefaultInputs(), FixAll()) // nt=4 divides 4 ranks
	for _, rr := range res.Ranks {
		if rr.Status != mpi.StatusOK || rr.Exit != 0 {
			t.Fatalf("rank %d: %v exit=%d err=%v", rr.Rank, rr.Status, rr.Exit, rr.Err)
		}
	}
}

func TestLayoutRejectsIndivisibleNT(t *testing.T) {
	res := launch(t, 8, DefaultInputs(), FixAll()) // nt=4 does not divide 8
	fe, bad := res.FirstError()
	if !bad || fe.Exit != 1 {
		t.Fatalf("want layout rejection, got %+v", fe)
	}
}

func TestSanityRejectsBadInputs(t *testing.T) {
	for _, c := range []struct {
		name  string
		patch map[string]int64
	}{
		{"nx=0", map[string]int64{"nx": 0}},
		{"trajecs=0", map[string]int64{"trajecs": 0}},
		{"nroot=0", map[string]int64{"nroot": 0}},
		{"mass=0", map[string]int64{"mass": 0}},
		{"seed<0", map[string]int64{"seed": -5}},
	} {
		in := DefaultInputs()
		for k, v := range c.patch {
			in[k] = v
		}
		res := launch(t, 4, in, FixAll())
		fe, bad := res.FirstError()
		if !bad || fe.Exit != 1 {
			t.Fatalf("%s: want sanity exit 1, got %+v", c.name, fe)
		}
	}
}

func TestBug1RHMCSegfault(t *testing.T) {
	res := launch(t, 4, DefaultInputs(), UnfixAll())
	fe, bad := res.FirstError()
	if !bad || fe.Status != mpi.StatusCrash {
		t.Fatalf("bug 1 did not crash: %+v", fe)
	}
	if !strings.Contains(fe.Err.Error(), "out of range") {
		t.Fatalf("unexpected crash: %v", fe.Err)
	}
}

func TestBug2CongradSegfault(t *testing.T) {
	params := Fixes{RHMC: true, Ploop: true, DivZero: true}.Params() // only bug 2 live
	res := launch(t, 4, DefaultInputs(), params)
	fe, bad := res.FirstError()
	if !bad || fe.Status != mpi.StatusCrash {
		t.Fatalf("bug 2 did not crash: %+v", fe)
	}
}

func TestBug2NeedsMultipleRanks(t *testing.T) {
	params := Fixes{RHMC: true, Ploop: true, DivZero: true}.Params()
	in := DefaultInputs()
	in["nt"] = 2
	res := launch(t, 1, in, params) // single rank: no halo exchange, no crash
	if res.Failed() {
		fe, _ := res.FirstError()
		t.Fatalf("bug 2 fired on one rank: %+v", fe)
	}
}

func TestBug3PloopSegfault(t *testing.T) {
	params := Fixes{RHMC: true, Congrad: true, DivZero: true}.Params() // only bug 3 live
	res := launch(t, 4, DefaultInputs(), params)                       // nsrc=3 >= 2, measurement runs
	fe, bad := res.FirstError()
	if !bad || fe.Status != mpi.StatusCrash {
		t.Fatalf("bug 3 did not crash: %+v", fe)
	}
}

func TestBug3SilentWithSingleSource(t *testing.T) {
	params := Fixes{RHMC: true, Congrad: true, DivZero: true}.Params()
	in := DefaultInputs()
	in["nsrc"] = 1
	res := launch(t, 4, in, params)
	if res.Failed() {
		fe, _ := res.FirstError()
		t.Fatalf("bug 3 fired with nsrc=1: %+v", fe)
	}
}

// TestBug4DivisionByZeroProcessCounts reproduces the paper's floating-point
// exception: it manifests with 2 or 4 processes but not with 1 or 3.
func TestBug4DivisionByZeroProcessCounts(t *testing.T) {
	params := Fixes{RHMC: true, Congrad: true, Ploop: true}.Params() // only bug 4 live

	run := func(np int, nsrc, nt int64) mpi.RunResult {
		in := DefaultInputs()
		in["nsrc"] = nsrc
		in["nt"] = nt
		return launch(t, np, in, params)
	}
	// 2 procs with nsrc=1 (2*1 == 2) and 4 procs with nsrc=2 (2*2 == 4).
	for _, c := range []struct {
		np   int
		nsrc int64
		nt   int64
	}{{2, 1, 4}, {4, 2, 4}} {
		res := run(c.np, c.nsrc, c.nt)
		fe, bad := res.FirstError()
		if !bad || fe.Status != mpi.StatusCrash {
			t.Fatalf("np=%d nsrc=%d: bug 4 did not crash: %+v", c.np, c.nsrc, fe)
		}
		if !strings.Contains(fe.Err.Error(), "divide by zero") {
			t.Fatalf("np=%d: unexpected crash: %v", c.np, fe.Err)
		}
	}
	// 1 and 3 processes never divide by zero (2*nsrc >= 2 is even).
	for _, np := range []int{1, 3} {
		res := run(np, 1, int64(np*2))
		if fe, bad := res.FirstError(); bad && fe.Status == mpi.StatusCrash &&
			strings.Contains(fe.Err.Error(), "divide by zero") {
			t.Fatalf("np=%d: bug 4 fired where the paper says it cannot", np)
		}
	}
}

func TestVariousLatticeShapes(t *testing.T) {
	for _, c := range []struct {
		nx, ny, nz, nt int64
		np             int
	}{
		{1, 1, 1, 1, 1},
		{2, 1, 3, 2, 2},
		{5, 5, 5, 10, 5},
	} {
		in := DefaultInputs()
		in["nx"], in["ny"], in["nz"], in["nt"] = c.nx, c.ny, c.nz, c.nt
		res := launch(t, c.np, in, FixAll())
		if res.Failed() {
			fe, _ := res.FirstError()
			t.Fatalf("%+v failed: %+v", c, fe)
		}
	}
}

func TestProgramRegistration(t *testing.T) {
	prog, ok := target.Lookup("susy-hmc")
	if !ok {
		t.Fatal("susy-hmc not registered")
	}
	if prog.TotalBranches() < 50 {
		t.Fatalf("suspiciously few branches: %d", prog.TotalBranches())
	}
}

func TestRankVariablesMarked(t *testing.T) {
	res := launch(t, 4, DefaultInputs(), FixAll())
	kinds := map[conc.VarKind]int{}
	for _, o := range res.Ranks[0].Log.Obs {
		kinds[o.Kind]++
	}
	if kinds[conc.KindRankWorld] == 0 || kinds[conc.KindSizeWorld] == 0 {
		t.Fatalf("rank/size not marked: %+v", res.Ranks[0].Log.Obs)
	}
	if kinds[conc.KindInput] != 13 {
		t.Fatalf("marked inputs = %d, want 13", kinds[conc.KindInput])
	}
}
