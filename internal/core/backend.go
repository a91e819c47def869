package core

import (
	"time"

	"repro/internal/conc"
	"repro/internal/mpi"
	"repro/internal/target"
)

// LaunchSpec is everything one test iteration needs to execute, fully
// resolved by the engine: the concrete launch configuration (process count,
// focus), the concrete input assignment, and the per-iteration runtime knobs.
// It is deliberately a plain value — no function pointers, no shared state —
// so a backend can serialize it across a process boundary.
type LaunchSpec struct {
	// Iter is the iteration number within the campaign (statistics only;
	// the per-iteration solver and runtime seeds are already folded into
	// Seed by the engine).
	Iter int

	// NProcs and Focus describe the MPMD launch: NProcs ranks, with the
	// focus rank running Heavy instrumentation and the rest Light.
	NProcs int
	Focus  int

	// Inputs is the engine-chosen concrete value per marked input; Params
	// is the campaign parameter bag (per-target caps and fix toggles).
	Inputs map[string]int64
	Params map[string]int64

	// Seed is the concrete per-iteration runtime seed (campaign seed plus
	// iteration offset).
	Seed int64

	// Timeout is the per-iteration watchdog; MaxTicks the per-rank
	// instrumentation-event budget (deterministic hang detection).
	Timeout  time.Duration
	MaxTicks int64

	// Reduction enables constraint set reduction; OneWay disables two-way
	// instrumentation (every rank Heavy).
	Reduction bool
	OneWay    bool

	// TraceHint is the engine's estimate of this iteration's branch-event
	// count (the previous focus trace length). Backends pass it to the
	// runtime as a buffer pre-sizing hint; it never affects behavior.
	TraceHint int

	// Schedules turns on schedule-space semantics in the runtime: wildcard
	// receives match at quiescence and are recorded as choice points.
	Schedules bool

	// MatchOrder directs wildcard match choices per global rank (entry r is
	// the eligible-set indices rank r's choice points consume in order) —
	// plain data, serializable across the pipe protocol like the rest of
	// the spec. Empty means every choice takes the default index.
	MatchOrder [][]int
}

// Backend abstracts how one test iteration is executed. The engine computes
// what to run (a LaunchSpec); the backend decides where: in this process as
// coroutine ranks (the default), or in a separate target process driven over
// a pipe protocol (internal/proto). The engine is otherwise agnostic — it
// consumes the returned per-rank logs and statuses identically.
//
// A Backend belongs to exactly one engine: it may carry cross-iteration
// session state (the focus variable space in-process, a live child process
// for piped runs), so sharing one across engines breaks the scheduler's
// determinism contract. Whoever constructs the backend owns Close.
type Backend interface {
	// Launch executes one test iteration and returns the per-rank
	// outcomes. The returned Ranks slice must have exactly spec.NProcs
	// entries; ranks whose log never materialized (hard hangs, a dead
	// external target) carry a nil Log and a non-OK status.
	Launch(spec LaunchSpec) mpi.RunResult

	// Close releases backend resources (kills an external target, reaps
	// its process). The in-process backend's Close is a no-op.
	Close() error
}

// inProcess is the default backend: ranks run as coroutines under one
// scheduler in this process through the simulated MPI runtime, sharing the
// engine's variable space with each focus process.
type inProcess struct {
	main func(*mpi.Proc) int
	vars *conc.VarSpace
}

// NewInProcess returns the default execution backend for prog: every
// iteration is one mpi.Launch of coroutine ranks inside this process. vars
// is the campaign variable space shared with each focus process (stable
// symbolic variable IDs across iterations); internal/proto's Serve loop uses
// this same backend on the target side of the pipe, which is what makes
// in-process and piped campaigns bit-identical.
func NewInProcess(prog *target.Program, vars *conc.VarSpace) Backend {
	var main func(*mpi.Proc) int
	if prog != nil {
		main = prog.Main
	}
	return &inProcess{main: main, vars: vars}
}

func (b *inProcess) Launch(s LaunchSpec) mpi.RunResult {
	return mpi.Launch(mpi.Spec{
		NProcs:     s.NProcs,
		Main:       b.main,
		Focus:      s.Focus,
		OneWay:     s.OneWay,
		Vars:       b.vars,
		Inputs:     s.Inputs,
		Reduction:  s.Reduction,
		Seed:       s.Seed,
		MaxTicks:   s.MaxTicks,
		Params:     s.Params,
		TraceHint:  s.TraceHint,
		Timeout:    s.Timeout,
		Schedules:  s.Schedules,
		MatchOrder: s.MatchOrder,
	})
}

func (b *inProcess) Close() error { return nil }
