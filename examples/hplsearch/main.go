// hplsearch: why search strategy choice matters for MPI programs (Figure 4).
//
// Mini-HPL validates 28 input parameters before it will factorize anything.
// Only a systematic strategy (BoundedDFS) negates the sanity checks in
// execution order and gets through; random and CFG-directed search keep
// re-breaking the top of the chain and never reach the solver.
//
//	go run ./examples/hplsearch
package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/target"
	_ "repro/internal/targets/hpl"
)

func main() {
	prog, _ := target.Lookup("hpl")

	run := func(label string, strat func(prog *target.Program, cov *coverage.Tracker) core.Strategy) {
		res := core.NewEngine(core.Config{
			Program:     prog,
			NewStrategy: strat,
			Iterations:  300,
			Reduction:   true,
			Framework:   true,
			Seed:        11,
			RunTimeout:  30 * time.Second,
		}).Run()
		_, reachedSolver := res.Coverage.Funcs()["pdgesv"]
		verdict := "stuck in the sanity check"
		if reachedSolver {
			verdict = "passed the sanity check and tested the solver"
		}
		fmt.Printf("%-26s %4d branches covered  (%s)\n",
			label, res.Coverage.Count(), verdict)
	}

	run("bounded-dfs (default)", func(*target.Program, *coverage.Tracker) core.Strategy {
		return core.NewBoundedDFS(core.Unbounded)
	})
	run("bounded-dfs (bound 100)", func(*target.Program, *coverage.Tracker) core.Strategy {
		return core.NewBoundedDFS(100)
	})
	run("random-branch", func(*target.Program, *coverage.Tracker) core.Strategy {
		return core.NewRandomBranch(11)
	})
	run("uniform-random", func(*target.Program, *coverage.Tracker) core.Strategy {
		return core.NewUniformRandom(11)
	})
	run("cfg-directed", core.NewCFG)
}
