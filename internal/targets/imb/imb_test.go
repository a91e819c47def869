package imb

import (
	"testing"
	"time"

	"repro/internal/conc"
	"repro/internal/mpi"
	"repro/internal/target"
)

func launch(t *testing.T, n int, inputs map[string]int64) mpi.RunResult {
	t.Helper()
	return mpi.Launch(mpi.Spec{
		NProcs:    n,
		Main:      Main,
		Vars:      conc.NewVarSpace(),
		Reduction: true,
		Seed:      1,
		MaxTicks:  20_000_000,
		Inputs:    inputs,
		Timeout:   30 * time.Second,
	})
}

func TestAllBenchmarksRunClean(t *testing.T) {
	for bench := 0; bench < benchCount; bench++ {
		in := DefaultInputs()
		in["bench"] = int64(bench)
		res := launch(t, 8, in)
		for _, rr := range res.Ranks {
			if rr.Status != mpi.StatusOK || rr.Exit != 0 {
				t.Fatalf("bench %d rank %d: %v exit=%d err=%v",
					bench, rr.Rank, rr.Status, rr.Exit, rr.Err)
			}
		}
	}
}

func TestSanityRejectsBadInputs(t *testing.T) {
	for _, c := range []struct {
		name  string
		patch map[string]int64
	}{
		{"bench=-1", map[string]int64{"bench": -1}},
		{"bench=99", map[string]int64{"bench": 99}},
		{"niter=0", map[string]int64{"niter": 0}},
		{"maxlog<minlog", map[string]int64{"minlog": 5, "maxlog": 2}},
		{"npmin=0", map[string]int64{"npmin": 0}},
		{"npmin>nprocs", map[string]int64{"npmin": 9}},
		{"root>=nprocs", map[string]int64{"root": 8}},
		{"validate=2", map[string]int64{"validate": 2}},
	} {
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

func TestSubsetSchedule(t *testing.T) {
	// npmin=2 on 8 ranks must run subsets 2, 4, 8 — visible as three
	// sub-communicator rc observations on the focus? The focus marks the
	// same callsite each time, so instead check the mapping rows: one per
	// Split per subset round (8 ranks, npmin 2 → rounds at np=2,4,8).
	in := DefaultInputs()
	in["npmin"] = 2
	res := launch(t, 8, in)
	if res.Failed() {
		t.Fatal("run failed")
	}
	rows := len(res.Ranks[0].Log.Mapping)
	if rows != 3 {
		t.Fatalf("mapping rows = %d, want 3 (subsets 2,4,8)", rows)
	}
}

func TestSubsetScheduleNonPowerOfTwo(t *testing.T) {
	// npmin=3 on 8 ranks runs subsets 3, 6, 8 (doubling clamps at nprocs).
	in := DefaultInputs()
	in["npmin"] = 3
	res := launch(t, 8, in)
	if res.Failed() {
		t.Fatal("run failed")
	}
	if rows := len(res.Ranks[0].Log.Mapping); rows != 3 {
		t.Fatalf("mapping rows = %d, want 3 (subsets 3,6,8)", rows)
	}
}

func TestVariantBenchmarksExchangeData(t *testing.T) {
	for _, bench := range []int64{BenchReduceScatter, BenchScan, BenchAllgatherv, BenchAlltoallv} {
		in := DefaultInputs()
		in["bench"] = bench
		in["npmin"] = 3
		res := launch(t, 6, in)
		if res.Failed() {
			fe, _ := res.FirstError()
			t.Fatalf("bench %d failed: %+v", bench, fe)
		}
	}
}

func TestSingleRankBarrier(t *testing.T) {
	in := DefaultInputs()
	in["bench"] = BenchBarrier
	in["npmin"] = 1
	in["root"] = 0
	res := launch(t, 1, in)
	if res.Failed() {
		fe, _ := res.FirstError()
		t.Fatalf("single-rank barrier failed: %+v", fe)
	}
}

func TestLargeMessages(t *testing.T) {
	in := DefaultInputs()
	in["bench"] = BenchAlltoall
	in["minlog"], in["maxlog"] = 10, 12
	in["niter"] = 2
	res := launch(t, 4, in)
	if res.Failed() {
		t.Fatal("large alltoall failed")
	}
}

func TestNonRootZeroRoot(t *testing.T) {
	in := DefaultInputs()
	in["bench"] = BenchBcast
	in["root"] = 3
	res := launch(t, 8, in)
	if res.Failed() {
		t.Fatal("bcast with root 3 failed")
	}
}

func TestProgramRegistration(t *testing.T) {
	prog, ok := target.Lookup("imb-mpi1")
	if !ok {
		t.Fatal("imb-mpi1 not registered")
	}
	if prog.TotalBranches() < 50 {
		t.Fatalf("branches: %d", prog.TotalBranches())
	}
	found := false
	for _, n := range target.Names() {
		if n == "imb-mpi1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("registered programs: %v", target.Names())
	}
}

func TestIterationCountDominatesCost(t *testing.T) {
	// The paper's N for IMB is the iteration count; cost should grow with it.
	short := DefaultInputs()
	short["niter"] = 2
	long := DefaultInputs()
	long["niter"] = 100
	r1 := launch(t, 4, short)
	r2 := launch(t, 4, long)
	if r1.Failed() || r2.Failed() {
		t.Fatal("runs failed")
	}
	if r2.Ranks[0].Log.RawCount <= r1.Ranks[0].Log.RawCount {
		t.Fatal("iteration count did not increase the generated constraints")
	}
}
