package core

import (
	"reflect"
	"testing"

	"repro/internal/conc"
	"repro/internal/expr"
	"repro/internal/solver"
)

// directSolver is a SolverService that forwards to the solver package's free
// functions, which compile every predicate afresh.
type directSolver struct{}

func (directSolver) SolveIncremental(preds []expr.Pred, prev map[expr.Var]int64, opt solver.Options) (solver.Result, bool) {
	return solver.SolveIncremental(preds, prev, opt)
}

func (directSolver) Stats() solver.Stats { return solver.Stats{} }

// trajectory is the deterministic projection of a Result: everything except
// wall-clock fields and solver-service counters.
type trajectory struct {
	Branches   []conc.BranchBit
	Iterations []IterationStat
	Errors     []ErrorRecord
	Restarts   int
	RestartAt  []int
	SolverCall int
	UnsatCalls int
}

func projectTrajectory(res Result) trajectory {
	branches := res.Coverage.Branches()
	its := make([]IterationStat, len(res.Iterations))
	for i, it := range res.Iterations {
		it.Elapsed, it.RunTime = 0, 0
		its[i] = it
	}
	return trajectory{
		Branches:   branches,
		Iterations: its,
		Errors:     res.Errors,
		Restarts:   res.Restarts,
		RestartAt:  res.RestartAt,
		SolverCall: res.SolverCall,
		UnsatCalls: res.UnsatCalls,
	}
}

func seamConfig(seed int64) Config {
	return Config{
		Iterations: 40,
		Reduction:  true,
		Seed:       seed,
		DFSPhase:   6,
	}
}

// TestSolverSeamCacheInvisible is the determinism contract of the seam: a
// campaign run against (a) the raw free functions, (b) the default private
// Service, (c) a fresh shared Service, and (d) the same shared Service again,
// reading the forms the first run compiled, must produce byte-identical
// trajectories.
func TestSolverSeamCacheInvisible(t *testing.T) {
	cfg := seamConfig(31)

	cfgDirect := cfg
	cfgDirect.Solver = directSolver{}
	direct := projectTrajectory(runCampaign(t, cfgDirect))

	private := projectTrajectory(runCampaign(t, cfg))

	shared := solver.NewService(solver.ServiceConfig{})
	cfgShared := cfg
	cfgShared.Solver = shared
	sharedCold := projectTrajectory(runCampaign(t, cfgShared))
	sharedWarm := projectTrajectory(runCampaign(t, cfgShared))

	for name, got := range map[string]trajectory{
		"private service": private,
		"shared cold":     sharedCold,
		"shared warm":     sharedWarm,
	} {
		if !reflect.DeepEqual(direct, got) {
			t.Errorf("%s trajectory diverged from the free functions", name)
		}
	}
}

// TestSolverStatsWindow: Result.Solver is the campaign's window of the
// service counters, and for a private service it accounts for every solve
// the engine issued.
func TestSolverStatsWindow(t *testing.T) {
	res := runCampaign(t, seamConfig(31))
	if res.Solver.Calls == 0 {
		t.Fatal("private service recorded no calls")
	}
	if got := res.Solver.SATHits + res.Solver.UnsatHits + res.Solver.Misses; got != res.Solver.Calls {
		t.Fatalf("stats don't add up: hits+misses=%d calls=%d", got, res.Solver.Calls)
	}

	// A shared service's cumulative counters keep growing; the per-campaign
	// window starts at the campaign's own zero.
	shared := solver.NewService(solver.ServiceConfig{})
	cfg := seamConfig(31)
	cfg.Solver = shared
	r1 := runCampaign(t, cfg)
	r2 := runCampaign(t, cfg)
	if r1.Solver.Calls != r2.Solver.Calls {
		t.Fatalf("sequential identical campaigns issued different call counts: %d vs %d",
			r1.Solver.Calls, r2.Solver.Calls)
	}
	if shared.Stats().Calls != r1.Solver.Calls+r2.Solver.Calls {
		t.Fatalf("windows don't sum to the cumulative counters")
	}
}

// TestRestartAtRecorded: the restart record carries the iteration indices
// and stays consistent with the Restarts counter and per-iteration flags.
func TestRestartAtRecorded(t *testing.T) {
	res := runCampaign(t, Config{Iterations: 80, Reduction: true, Seed: 5, DFSPhase: 3})
	if len(res.RestartAt) != res.Restarts {
		t.Fatalf("RestartAt has %d entries for %d restarts", len(res.RestartAt), res.Restarts)
	}
	for i, at := range res.RestartAt {
		if at < 0 || at >= len(res.Iterations) {
			t.Fatalf("restart %d at out-of-range iteration %d", i, at)
		}
		if !res.Iterations[at].Restarted {
			t.Fatalf("iteration %d recorded in RestartAt but not flagged Restarted", at)
		}
		if i > 0 && res.RestartAt[i-1] >= at {
			t.Fatalf("RestartAt not strictly increasing: %v", res.RestartAt)
		}
	}
	for i, it := range res.Iterations {
		if it.Restarted && !containsInt(res.RestartAt, i) {
			t.Fatalf("iteration %d flagged Restarted but missing from RestartAt %v", i, res.RestartAt)
		}
	}
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
