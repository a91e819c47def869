package solver_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/solver"
	"repro/internal/target"
	"repro/internal/targets/susy"
)

// partitionChecker is a core.SolverService that checks, on every call, that
// the dense partition equals the map oracle before solving through svc.
type partitionChecker struct {
	t     *testing.T
	svc   *solver.Service
	calls int
}

func (c *partitionChecker) SolveIncremental(preds []expr.Pred, prev map[expr.Var]int64, opt solver.Options) (solver.Result, bool) {
	if len(preds) > 0 {
		seed := len(preds) - 1
		got, want := solver.DependentSet(preds, seed), solver.DependentSetOracle(preds, seed)
		if !reflect.DeepEqual(got, want) {
			c.t.Fatalf("call %d (%d predicates): dense partition %v, map oracle %v", c.calls, len(preds), got, want)
		}
	}
	c.calls++
	return c.svc.SolveIncremental(preds, prev, opt)
}

func (c *partitionChecker) Stats() solver.Stats { return c.svc.Stats() }

// TestDependentSetOnCampaignCalls runs the campaign BenchmarkSolveIncremental
// records (SUSY-HMC, 150 iterations at seed 5, a 30-execution DFS phase:
// path sets of hundreds of predicates) and checks every one of its solver
// calls' partitions against the map oracle.
func TestDependentSetOnCampaignCalls(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 150-iteration campaign")
	}
	prog, ok := target.Lookup("susy-hmc")
	if !ok {
		t.Fatal("susy-hmc not registered")
	}
	chk := &partitionChecker{t: t, svc: solver.NewService(solver.ServiceConfig{})}
	core.NewEngine(core.Config{
		Program: prog, Params: susy.FixAll(), Iterations: 150, DFSPhase: 30, Seed: 5,
		Reduction: true, Framework: true, RunTimeout: 30 * time.Second, Solver: chk,
	}).Run()
	if chk.calls < 1000 {
		t.Fatalf("campaign made %d solver calls, expected thousands", chk.calls)
	}
}
