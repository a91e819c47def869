package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/binstat"
	"repro/internal/conc"
	"repro/internal/coverage"
	"repro/internal/expr"
	"repro/internal/mpi"
	"repro/internal/solver"
	"repro/internal/target"
)

// Config parameterizes a testing campaign.
type Config struct {
	Program *target.Program

	// NewStrategy, when non-nil, constructs the search strategy against the
	// engine's own program and live coverage tracker; nil selects COMPI's
	// default two-phase DFS. Strategies are stateful, so each engine builds
	// its own: a Config reused across several engines (the scheduler's
	// determinism contract) never shares one strategy value.
	NewStrategy func(prog *target.Program, cov *coverage.Tracker) Strategy

	// Params is the campaign parameter bag: concrete per-campaign target
	// knobs (input caps, seeded-bug fix toggles) read by target code via
	// the proc handle. It replaces the racy per-target package globals so
	// concurrent campaigns on one target cannot observe each other's
	// settings. Treated as read-only once the campaign starts.
	Params map[string]int64

	// Inputs seeds the first execution's symbolic input values (missing
	// names still receive deterministic pseudo-random values). Combined
	// with Iterations=1 it pins a fixed-input run, which is how the
	// experiment harness replays the paper's fixed configurations through
	// the scheduler.
	Inputs map[string]int64

	// Iterations is the test budget (program executions). TimeBudget, when
	// non-zero, additionally stops the campaign on wall-clock time, which is
	// how the paper's fixed-budget comparisons are run.
	Iterations int
	TimeBudget time.Duration

	// InitialProcs and InitialFocus seed the first launch (the paper uses 8
	// processes with focus 0). MaxProcs caps the derived process count via
	// input capping (the paper restricts it to 16).
	InitialProcs int
	InitialFocus int
	MaxProcs     int

	// Reduction enables constraint set reduction (§IV-C); COMPI default on.
	// DepthBound, when non-zero, is an explicit BoundedDFS bound for the
	// default strategy's second phase. DFSPhase is the number of pure-DFS
	// executions before the switch (§II-B).
	Reduction  bool
	DepthBound int
	DFSPhase   int

	// OneWay disables two-way instrumentation: every rank runs Heavy
	// (§IV-B ablation).
	OneWay bool

	// Framework false disables the MPI framework (§VI-E No_Fwk): the focus
	// and process count stay fixed, and coverage is recorded from the focus
	// process only.
	Framework bool

	// PureRandom replaces concolic input generation with random testing
	// under the same caps (§VI-E Random).
	PureRandom bool

	// Schedules adds the match-order dimension to the search: wildcard
	// receives match at quiescence, every multi-candidate match is a
	// recorded choice point, and the engine negates untried choices into
	// directed runs the same way it negates branch predicates. Off (the
	// default) keeps the runtime's historical eager matching bit-for-bit.
	Schedules bool

	// Backend, when non-nil, executes the campaign's iterations instead of
	// the default in-process MPI runtime — this is how out-of-process
	// targets are driven over the pipe protocol (internal/proto). A
	// backend carries cross-iteration session state, so it must be used by
	// exactly one engine; the caller keeps ownership and closes it after
	// the campaign.
	Backend Backend

	// Solver, when non-nil, answers the engine's constraint-solving
	// requests instead of a private per-campaign solver.Service. Unlike a
	// Backend, a SolverService may be shared by many engines — the
	// scheduler wires one Service across a whole batch so sharded
	// campaigns reuse each other's compiled predicates. Because a service
	// must return exactly what a live solve would (see SolverService),
	// sharing never changes a campaign's trajectory.
	Solver SolverService

	Seed       int64
	RunTimeout time.Duration // per-iteration watchdog (default 10s)
	MaxTicks   int64         // per-rank instrumentation-event budget (default 5e6)

	// SolverMaxNodes overrides the constraint-solver search budget.
	SolverMaxNodes int

	// Profiler, when non-nil, receives per-phase wall-clock bins for every
	// iteration: execute / trace-collect / constraint-build / negate /
	// solve / snapshot (plus the solver service's own bins when it shares
	// the profiler). Profiling is purely observational — a profiled
	// campaign's Result is byte-identical to an unprofiled one (pinned by
	// tests) — and the profiler may be shared across engines (the
	// scheduler wires one per batch), in which case the report aggregates
	// every campaign that used it. nil disables profiling at a few
	// nanoseconds per would-be measurement.
	Profiler *binstat.Profiler

	// Trace, when non-nil, receives each iteration's statistics as they are
	// produced (live progress for the CLI).
	Trace func(it IterationStat)

	// ErrorLog, when non-nil, receives each error-inducing input as one
	// JSON line the moment it is recorded — the persistent bug log COMPI
	// writes for later analysis and replay.
	ErrorLog io.Writer

	// Checkpoint, when non-nil, receives a freshly taken Snapshot after
	// every CheckpointEvery-th iteration (default: every iteration). The
	// engine calls it synchronously from the campaign loop between
	// iterations, so the callback always sees a quiescent engine. The
	// campaign store wires this to persist the campaign as it runs, and a
	// rerun resumes from the last snapshot saved: a killed process loses at
	// most the iterations since it.
	Checkpoint      func(*Snapshot)
	CheckpointEvery int
}

func (c Config) withDefaults() Config {
	if c.InitialProcs == 0 {
		c.InitialProcs = 8
	}
	if c.MaxProcs == 0 {
		c.MaxProcs = 16
	}
	if c.RunTimeout == 0 {
		c.RunTimeout = 10 * time.Second
	}
	if c.MaxTicks == 0 {
		c.MaxTicks = 5_000_000
	}
	if c.Iterations == 0 {
		c.Iterations = 100
	}
	if c.InitialFocus < 0 || c.InitialFocus >= c.InitialProcs {
		c.InitialFocus = 0
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1
	}
	return c
}

// IterationStat records one test iteration for the experiment harness.
type IterationStat struct {
	Iter      int
	NProcs    int
	Focus     int
	Covered   int           // cumulative branches covered
	PathLen   int           // constraint set size of this execution
	RawCount  int64         // constraints before reduction
	Elapsed   time.Duration // cumulative campaign time
	RunTime   time.Duration
	LogBytes  int // total serialized log bytes this iteration
	FocusLog  int // focus log bytes
	OtherLog  int // max non-focus log bytes
	Failed    bool
	Restarted bool
	Scheduled bool // directed match-order run popped off the schedule frontier
}

// ErrorRecord is one error-inducing input COMPI logs for bug analysis.
// Params captures the campaign parameter bag in force when the error fired,
// so Replay reproduces the same caps and fix toggles.
type ErrorRecord struct {
	Iter   int
	NProcs int
	Focus  int
	Status mpi.RankStatus
	Rank   int
	Msg    string
	Inputs map[string]int64
	Params map[string]int64 `json:",omitempty"`

	// Schedules and MatchOrder capture the schedule-space context of the
	// error: Schedules records that the run used quiescent matching, and
	// MatchOrder is the directive prefix that steered it there (empty for a
	// default-order run). Replay feeds both back to the runtime, which is
	// what makes a discovered deadlock reproducible on demand.
	Schedules  bool    `json:",omitempty"`
	MatchOrder [][]int `json:",omitempty"`
}

// Result is the outcome of a campaign.
type Result struct {
	Coverage   *coverage.Tracker
	Iterations []IterationStat
	Errors     []ErrorRecord
	Elapsed    time.Duration
	Restarts   int
	RestartAt  []int // iteration index of each restart, in order
	SolverCall int
	UnsatCalls int

	// RefutedSkips is always 0: the solver service answers every call with
	// a live solve. It remains for readers of the earlier UNSAT cache's
	// counter.
	RefutedSkips int

	// Refutations counts the solver calls proved unsatisfiable (Proven): a
	// constant-false predicate or a bounds-propagation refutation, as
	// opposed to a search that ran out of candidates or budget. These calls
	// are included in UnsatCalls. Observational: not part of a campaign's
	// fingerprint.
	Refutations int

	// Profile is the phase-bin profiler report at campaign end, nil unless
	// Config.Profiler was set. With a private profiler it is exactly this
	// campaign's phase costs; with a shared one it aggregates every
	// campaign on the profiler up to this campaign's finish (per-campaign
	// attribution should window the shared profiler with Report.Delta).
	Profile binstat.Report

	// Solver is the campaign's window of the solver-service counters
	// (Stats at campaign end minus Stats at campaign start). For the
	// default private service this is exactly the campaign's own solving;
	// for a shared service it also includes whatever the other campaigns
	// did in the window, so per-campaign attribution should use
	// SolverCall/UnsatCalls.
	Solver solver.Stats

	// Schedule summarizes the match-order dimension (zero value unless
	// Config.Schedules was on).
	Schedule ScheduleStats
}

// CoverageRate returns covered / reachable-branch estimate.
func (r Result) CoverageRate(prog *target.Program) float64 {
	reach := prog.ReachableBranches(r.Coverage.Funcs())
	return r.Coverage.Rate(reach)
}

// DistinctErrors groups the error records by message, the way a developer
// triages COMPI's error log into distinct bugs.
func (r Result) DistinctErrors() map[string][]ErrorRecord {
	out := map[string][]ErrorRecord{}
	for _, e := range r.Errors {
		out[e.Msg] = append(out[e.Msg], e)
	}
	return out
}

// Engine drives the iterative testing of one program. Once constructed it
// owns all campaign state: the Config is copied by NewEngine and never
// mutated afterwards, so engines can be handed to worker goroutines.
type Engine struct {
	cfg      Config
	strategy Strategy
	backend  Backend
	solver   SolverService
	prof     *binstat.Profiler // nil = profiling disabled
	started  atomic.Bool
	vars     *conc.VarSpace
	cov      *coverage.Tracker
	rng      *prng
	inputs   map[string]int64
	caps     map[string]capInfo
	prev     map[expr.Var]int64
	names    map[expr.Var]string // learned from observations (Snapshot)
	cur      setup

	// Campaign accounting. These live on the engine rather than in Run's
	// locals so Snapshot can capture them mid-campaign and Restore can seed
	// them: a resumed Result then reports the whole campaign's history, not
	// just the final session's. startIter is the global iteration the next
	// Run continues from — per-iteration seeds are iteration-indexed, so a
	// resumed campaign must keep the global numbering.
	startIter   int
	iters       int
	stats       []IterationStat
	errors      []ErrorRecord
	restarts    int
	restartAt   []int
	solverCalls int
	unsatCalls  int
	refutations int

	// predScratch is the reusable buffer constraintSet assembles proposals
	// in: the engine hands each proposal's predicate slice to the solver
	// service and never looks at it again, so one buffer serves the whole
	// campaign (see the SolverService contract — implementations must not
	// retain the slice past the call).
	predScratch []expr.Pred

	// traceHint is the previous focus execution's branch-event count, passed
	// to the backend so the runtime can pre-size its trace and covered
	// buffers. Consecutive iterations of one target execute nearly identical
	// amounts of work, so last iteration's length is an excellent estimate.
	traceHint int

	// Schedule-frontier state (Config.Schedules). schedPend is the LIFO
	// stack of pending directed runs (pop from the end = deepest choice
	// point first, the DFS order); schedSeen holds the serialized key of
	// every child ever enqueued so re-discovered orders are not re-run;
	// schedPoints/schedOrders feed Result.Schedule. All four are snapshotted
	// so a resumed campaign continues the same schedule walk.
	schedPend   []schedRun
	schedSeen   map[string]struct{}
	schedPoints int
	schedOrders int
}

type capInfo struct {
	cap    int64
	hasCap bool
}

// NewEngine prepares a campaign.
func NewEngine(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:       cfg,
		vars:      conc.NewVarSpace(),
		cov:       coverage.New(),
		rng:       newPRNG(cfg.Seed),
		inputs:    cloneInputs(cfg.Inputs),
		caps:      map[string]capInfo{},
		prev:      map[expr.Var]int64{},
		names:     map[expr.Var]string{},
		cur:       setup{nprocs: cfg.InitialProcs, focus: cfg.InitialFocus},
		schedSeen: map[string]struct{}{},
	}
	e.backend = cfg.Backend
	if e.backend == nil {
		e.backend = NewInProcess(cfg.Program, e.vars)
	}
	e.prof = cfg.Profiler
	e.solver = cfg.Solver
	if e.solver == nil {
		// The private default service shares the campaign profiler, so its
		// live-solve bin lands in the same report.
		e.solver = solver.NewService(solver.ServiceConfig{Profiler: cfg.Profiler})
	}
	if cfg.NewStrategy != nil {
		e.strategy = cfg.NewStrategy(cfg.Program, e.cov)
	} else {
		e.strategy = NewTwoPhase(cfg.DFSPhase, cfg.DepthBound)
	}
	return e
}

// Coverage exposes the live tracker (the CFG strategy consults it).
func (e *Engine) Coverage() *coverage.Tracker { return e.cov }

// Run executes the campaign and returns its result. On a restored engine it
// continues from the snapshot's global iteration count, and the Result spans
// the whole campaign (restored history plus this session's iterations).
func (e *Engine) Run() Result {
	e.started.Store(true)
	solver0 := e.solver.Stats()
	start := time.Now()
	for it := e.startIter; it < e.cfg.Iterations; it++ {
		if e.cfg.TimeBudget > 0 && time.Since(start) > e.cfg.TimeBudget {
			break
		}
		stat := e.iterate(it)
		stat.Iter = it
		stat.Elapsed = time.Since(start)
		stat.Covered = e.cov.Count()
		e.stats = append(e.stats, stat)
		e.iters = it + 1
		if e.cfg.Trace != nil {
			e.cfg.Trace(stat)
		}
		if e.cfg.Checkpoint != nil && (it+1-e.startIter)%e.cfg.CheckpointEvery == 0 {
			sp := e.prof.Time("snapshot")
			snap := e.Snapshot()
			sp.End()
			e.cfg.Checkpoint(snap)
		}
	}
	res := Result{
		Coverage:    e.cov,
		Iterations:  append([]IterationStat(nil), e.stats...),
		Errors:      append([]ErrorRecord(nil), e.errors...),
		Elapsed:     time.Since(start),
		Restarts:    e.restarts,
		RestartAt:   append([]int(nil), e.restartAt...),
		SolverCall:  e.solverCalls,
		UnsatCalls:  e.unsatCalls,
		Refutations: e.refutations,
		Schedule:    scheduleStats(e.schedPoints, e.schedOrders, e.errors),
	}
	res.Solver = e.solver.Stats().Delta(solver0)
	res.Profile = e.prof.Report()
	return res
}

// iterate performs one launch + one input-generation step. Pending directed
// runs on the schedule frontier take priority over input exploration — they
// are the deepest untried match orders, exactly as unexplored branch
// negations would be under DFS. A directed run bypasses the input-negation
// machinery entirely (its inputs are pinned to the discovering run's) but
// harvests new choice points like any other execution.
func (e *Engine) iterate(it int) IterationStat {
	if e.cfg.Schedules && len(e.schedPend) > 0 {
		n := len(e.schedPend)
		sr := e.schedPend[n-1]
		e.schedPend = e.schedPend[:n-1]
		e.schedOrders++
		st := setup{nprocs: sr.NProcs, focus: sr.Focus}
		stat, run, sp := e.execute(it, st, sr.Inputs, sr.Order)
		stat.Scheduled = true
		e.harvestMatches(run, sr.Order, sr.Inputs, st)
		sp.End()
		return stat
	}
	stat, run, sp := e.execute(it, e.cur, e.inputs, nil)

	focusLog := run.Ranks[e.cur.focus].Log
	if focusLog == nil || focusLog.Mode != conc.Heavy {
		// The focus leaked (hard hang): restart from fresh inputs.
		sp.End()
		e.restart(it)
		stat.Restarted = true
		return stat
	}
	stat.PathLen = len(focusLog.Path)
	stat.RawCount = focusLog.RawCount
	e.traceHint = len(focusLog.Trace)

	// Learn the values actually used this run.
	for _, o := range focusLog.Obs {
		e.prev[o.V] = o.Val
		e.names[o.V] = o.Name
		if o.Kind == conc.KindInput {
			e.inputs[o.Name] = o.Val
			e.caps[o.Name] = capInfo{cap: o.Cap, hasCap: o.HasCap}
		}
	}

	// Harvest this run's wildcard choice points into the schedule frontier.
	// The run was free (no directives), so every multi-candidate match is a
	// negation opportunity. The harvest happens after observation learning so
	// the inputs pinned into each child are the values this execution
	// actually consumed — that, plus the directive prefix, is what makes the
	// child deterministically reach the same choice point.
	if e.cfg.Schedules {
		e.harvestMatches(run, nil, e.inputs, e.cur)
	}
	sp.End()

	if e.cfg.PureRandom {
		e.randomizeAll()
		return stat
	}

	// Concolic step: pick a constraint to negate and solve. The semantic
	// constraints depend only on this execution's observations, so they are
	// assembled once per iteration, not once per proposal.
	sp = e.prof.Time("constraint-build")
	sem := semanticConstraints(focusLog.Obs, int64(e.cfg.MaxProcs))
	sp.End()
	e.strategy.Observe(focusLog.Path)
	for {
		sp = e.prof.Time("negate")
		path, idx, ok := e.strategy.Propose()
		sp.End()
		if !ok {
			e.restart(it)
			stat.Restarted = true
			return stat
		}
		sp = e.prof.Time("constraint-build")
		preds := e.constraintSet(sem, path, idx)
		sp.End()
		e.solverCalls++

		sp = e.prof.Time("solve")
		sol, sat := e.solver.SolveIncremental(preds, e.prev, solver.Options{
			Seed:     e.cfg.Seed + int64(it)*7919,
			MaxNodes: e.cfg.SolverMaxNodes,
		})
		sp.End()
		if !sat {
			e.unsatCalls++
			if sol.Proven {
				e.refutations++
			}
			e.strategy.Reject()
			continue
		}
		e.strategy.Accept()
		e.apply(focusLog, sol)
		return stat
	}
}

// execute launches one MPMD test at st with inputs under the match-order
// prefix order (nil for a free run) — Heavy at the focus, Light elsewhere,
// or Heavy everywhere under the one-way ablation — through the configured
// execution backend. It then merges the run's coverage, sizes its logs and
// records its first error. It returns the iteration's stat, the run and the
// still-open trace-collect span, which the caller ends once it has learned
// what it needs from the run.
func (e *Engine) execute(it int, st setup, inputs map[string]int64, order [][]int) (IterationStat, mpi.RunResult, binstat.Span) {
	stat := IterationStat{NProcs: st.nprocs, Focus: st.focus}
	sp := e.prof.Time("execute")
	run := e.backend.Launch(LaunchSpec{
		Iter:       it,
		NProcs:     st.nprocs,
		Focus:      st.focus,
		Inputs:     cloneInputs(inputs),
		Params:     e.cfg.Params,
		Seed:       e.cfg.Seed + int64(it),
		Timeout:    e.cfg.RunTimeout,
		MaxTicks:   e.cfg.MaxTicks,
		Reduction:  e.cfg.Reduction,
		OneWay:     e.cfg.OneWay,
		TraceHint:  e.traceHint,
		Schedules:  e.cfg.Schedules,
		MatchOrder: order,
	})
	sp.End()
	stat.RunTime = run.Elapsed
	stat.Failed = run.Failed()

	sp = e.prof.Time("trace-collect")
	// Merge coverage: all recorders with the framework on, focus only with
	// it off (§VI-E).
	for _, rr := range run.Ranks {
		if rr.Log == nil {
			continue
		}
		if e.cfg.Framework || rr.Rank == st.focus {
			e.cov.AddLog(rr.Log)
		}
		stat.LogBytes += rr.LogBytes
		if rr.Rank == st.focus {
			stat.FocusLog = rr.LogBytes
		} else if rr.LogBytes > stat.OtherLog {
			stat.OtherLog = rr.LogBytes
		}
	}
	// Log error-inducing inputs, with the match order that steered the run
	// there attached for replay.
	if fe, bad := run.FirstError(); bad {
		msg := fmt.Sprintf("exit=%d", fe.Exit)
		if fe.Err != nil {
			msg = fe.Err.Error()
		}
		rec := ErrorRecord{
			Iter: it, NProcs: st.nprocs, Focus: st.focus,
			Status: fe.Status, Rank: fe.Rank, Msg: msg,
			Inputs:     cloneInputs(inputs),
			Params:     e.cfg.Params,
			Schedules:  e.cfg.Schedules,
			MatchOrder: order,
		}
		e.errors = append(e.errors, rec)
		e.logError(rec)
	}
	return stat, run, sp
}

// logError emits rec to the persistent error log (one JSON line per record).
func (e *Engine) logError(rec ErrorRecord) {
	if e.cfg.ErrorLog == nil {
		return
	}
	if b, err := json.Marshal(rec); err == nil {
		fmt.Fprintf(e.cfg.ErrorLog, "%s\n", b)
	}
}

// constraintSet assembles [semantics, path prefix, negated constraint] in
// the engine's scratch buffer; the negated constraint is last, which seeds
// the solver's incremental dependency partition. The returned slice is valid
// until the next constraintSet call.
func (e *Engine) constraintSet(sem []expr.Pred, path []conc.PathEntry, idx int) []expr.Pred {
	preds := append(e.predScratch[:0], sem...)
	for i := 0; i < idx; i++ {
		preds = append(preds, path[i].Pred)
	}
	preds = append(preds, path[idx].Pred.Negate())
	e.predScratch = preds
	return preds
}

// apply installs the solved assignment: next inputs, process count and focus
// (with conflict resolution), and the stale-value memory.
func (e *Engine) apply(focusLog *conc.Log, sol solver.Result) {
	for v, x := range sol.Values {
		e.prev[v] = x
	}
	for _, o := range focusLog.Obs {
		if o.Kind != conc.KindInput {
			continue
		}
		if v, ok := sol.Values[o.V]; ok {
			e.inputs[o.Name] = v
		}
	}
	if e.cfg.Framework {
		e.cur = resolveSetup(e.cur, focusLog.Obs, focusLog.Mapping, sol, e.cfg.MaxProcs)
	}
}

// restart begins a fresh exploration from random inputs (the paper redoes
// the testing when exploration gets stuck or the tree is exhausted) and
// records at which iteration it happened.
func (e *Engine) restart(it int) {
	e.restarts++
	e.restartAt = append(e.restartAt, it)
	e.strategy.Reset()
	e.randomizeAll()
	if e.cfg.Framework {
		e.cur = setup{nprocs: e.cfg.InitialProcs, focus: e.cfg.InitialFocus}
		if e.cur.focus >= e.cur.nprocs {
			e.cur.focus = 0
		}
	}
}

// randomizeAll draws fresh random values for every known input under its cap
// (both the Random baseline and restarts use this).
func (e *Engine) randomizeAll() {
	names := make([]string, 0, len(e.inputs))
	for n := range e.inputs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ci := e.caps[n]
		lo, hi := conc.RandomLo, conc.RandomHi
		if ci.hasCap {
			hi = ci.cap
		}
		e.inputs[n] = lo + e.rng.Int63n(hi-lo+1)
	}
	if e.cfg.PureRandom && e.cfg.Framework {
		e.cur = setup{nprocs: 1 + e.rng.Intn(e.cfg.MaxProcs)}
		e.cur.focus = e.rng.Intn(e.cur.nprocs)
	}
}

func cloneInputs(in map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// MergeParams unions campaign parameter maps into a fresh map; later maps
// win on key collisions. Target packages namespace their keys
// ("susy.dimcap", "hpl.ncap", ...), so the fix bags of several targets can
// be combined into one campaign Config.
func MergeParams(maps ...map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for _, m := range maps {
		for k, v := range m {
			out[k] = v
		}
	}
	return out
}

// Replay re-executes one error-inducing input exactly as the campaign ran
// it: same process count, same focus, same inputs — the triggering condition
// COMPI hands to developers for bug confirmation (§VI-A). The returned run
// carries the per-rank statuses for triage.
func Replay(prog *target.Program, rec ErrorRecord, timeout time.Duration) mpi.RunResult {
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	return NewInProcess(prog, conc.NewVarSpace()).Launch(LaunchSpec{
		NProcs:     rec.NProcs,
		Focus:      rec.Focus,
		Inputs:     cloneInputs(rec.Inputs),
		Params:     rec.Params,
		Seed:       1,
		Timeout:    timeout,
		MaxTicks:   50_000_000,
		Reduction:  true,
		Schedules:  rec.Schedules || len(rec.MatchOrder) > 0,
		MatchOrder: rec.MatchOrder,
	})
}
