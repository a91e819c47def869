package core

import (
	"repro/internal/expr"
	"repro/internal/solver"
)

// SolverService is the constraint-solving seam of the engine, the analogue
// of Backend for the solving side: the engine decides *what* to solve (the
// path-prefix-plus-negation constraint set and the previous assignment) and
// the service decides *how* — solver.Service, the default, compiles each
// predicate tree once for all the campaigns sharing it. The engine never
// calls the solver package's free functions directly.
//
// The contract mirrors solver.Service: given identical inputs the service
// must return exactly what a live solver.SolveIncremental would, so that
// campaign trajectories do not depend on service state or on which
// campaigns share the service. A service must be
// safe for concurrent use by multiple engines; unlike a Backend, one
// SolverService may be shared by a whole scheduler batch.
type SolverService interface {
	// SolveIncremental solves preds (the last predicate being the freshly
	// negated constraint) preferring values from prev, with the semantics
	// of solver.SolveIncremental.
	//
	// The preds slice is only valid for the duration of the call: the
	// engine assembles it in a scratch buffer it reuses for the next
	// proposal, so an implementation that needs the predicates afterwards
	// (a recording test double, a deferred queue) must copy the slice. The
	// predicate *trees* are immutable and safe to retain.
	SolveIncremental(preds []expr.Pred, prev map[expr.Var]int64, opt solver.Options) (solver.Result, bool)

	// Stats reports the service's cumulative counters. Implementations
	// that keep none return the zero Stats.
	Stats() solver.Stats
}
