// Package sched is the parallel campaign scheduler: it runs many COMPI
// testing campaigns concurrently on one machine and merges their outcomes.
//
// The paper's evaluation (§V–VI) is a grid of fixed-budget campaigns —
// strategies × targets × configurations — that COMPI executes one at a
// time. With the target registry immutable after Build and all per-target
// knobs moved into per-campaign parameter bags (core.Config.Params), those
// campaigns share no mutable state, so the grid becomes one multi-core run:
// a worker pool of up to GOMAXPROCS engines, a union coverage.Tracker per
// target, and one deduplicated error log.
//
// Determinism contract: each campaign's Result depends only on its Spec,
// never on scheduling order or worker count. A spec that needs a live search
// strategy passes a factory (Overrides.NewStrategy), so re-running a spec
// list never reuses a stateful strategy value.
package sched

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/binstat"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/proto"
	"repro/internal/solver"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/target"
)

// Spec describes one campaign the scheduler runs: the canonical data-only
// spec.Campaign plus the live, in-process overrides (custom strategies,
// backends, callbacks) that never serialize. Specs are values; running the
// same Spec twice yields the same Result.
//
// External campaigns (Campaign.External set) run against an out-of-process
// target: the scheduler starts one fresh instance of the binary for the
// campaign, drives it over the pipe protocol, and closes it when the
// campaign ends. The program model comes from the registry (when Target or
// Overrides.Program is set) or from the target's handshake manifest; either
// way the campaign flows through the same engine, so external and
// in-process specs mix freely in one batch and the determinism contract
// holds for both.
type Spec struct {
	spec.Campaign

	// Overrides carries the live objects this process runs the campaign
	// with. A spec with live Overrides (beyond Program/Solver wiring) is
	// not portable: it cannot be leased to a fleet worker or keyed into
	// the store — see Portable and SetupKey.
	Overrides spec.Overrides
}

func (s Spec) label() string {
	if s.Label != "" {
		return s.Label
	}
	return fmt.Sprintf("%s/seed%d", s.targetName(), s.Seed)
}

func (s Spec) targetName() string {
	if s.Overrides.Program != nil {
		return s.Overrides.Program.Name
	}
	return s.Campaign.TargetName()
}

// DisplayLabel is the campaign label a spec reports under — the explicit
// Label, or "<target>/seed<seed>" — which also names its store campaign
// file (store.CampaignName).
func (s Spec) DisplayLabel() string { return s.label() }

// Portable returns the data-only campaign this spec ships as — in a fleet
// lease frame or a store batch manifest. Specs carrying live objects are
// refused with an error naming the field (spec.Portable is the check); a
// Program override dispatches by registry name.
func (s Spec) Portable() (spec.Campaign, error) {
	return spec.Portable(s.Campaign, s.Overrides, s.label())
}

// Open lowers the spec to the engine config this process runs: the
// campaign's data fields plus the live overrides, with an external target
// started (the returned close func stops it) and the program resolved — from
// the overrides, the target's handshake manifest, or the registry. It fails
// on an unknown strategy or target and on an external target that does not
// start; on failure nothing is left running.
func (s Spec) Open() (core.Config, func(), error) {
	cfg, err := s.Campaign.EngineConfig()
	if err != nil {
		return cfg, nil, fmt.Errorf("sched: spec %q: %w", s.label(), err)
	}
	s.Overrides.Apply(&cfg)
	closeTarget := func() {}
	if s.External != nil {
		drv, err := proto.Start(s.External.Bin, proto.Options{Args: s.External.Args, Env: s.External.Env})
		if err != nil {
			return cfg, nil, fmt.Errorf("sched: external target for %q: %w", s.label(), err)
		}
		cfg.Backend = drv
		closeTarget = func() { drv.Close() }
		if cfg.Program == nil && s.Target == "" {
			if cfg.Program, err = drv.Program(); err != nil {
				drv.Close()
				return cfg, nil, fmt.Errorf("sched: external target for %q: %w", s.label(), err)
			}
		}
	}
	if cfg.Program == nil {
		prog, ok := target.Lookup(s.Target)
		if !ok {
			closeTarget()
			return cfg, nil, fmt.Errorf("sched: unknown target %q", s.Target)
		}
		cfg.Program = prog
	}
	return cfg, closeTarget, nil
}

// NewEngine builds a campaign's engine, restored from resume when one is
// given. A stale or corrupt snapshot must never fail the campaign: the
// engine then starts cold.
func NewEngine(cfg core.Config, resume *core.Snapshot) *core.Engine {
	eng := core.NewEngine(cfg)
	if resume != nil && eng.Restore(resume) != nil {
		eng = core.NewEngine(cfg)
	}
	return eng
}

// Campaign is one scheduled campaign and its outcome.
type Campaign struct {
	Spec   Spec
	Label  string
	Target string
	Result core.Result
	Err    error // spec error (unknown target); the Result is zero

	// Reused is true when the Result was reattached from the campaign
	// store without running an engine: a prior batch already explored this
	// spec's canonical setup to at least the requested iterations.
	Reused bool
}

// Report is the merged outcome of a scheduler run.
type Report struct {
	// Campaigns holds one entry per input spec, in spec order regardless
	// of completion order.
	Campaigns []Campaign

	// Coverage is the union tracker per target name.
	Coverage map[string]*coverage.Tracker

	// Errors groups every campaign's error records per target, deduped by
	// the same key as core.Result.DistinctErrors (the message).
	Errors map[string]map[string][]core.ErrorRecord

	// Solver is the shared solver service's counter window for this run
	// (zero when every spec brought its own solver).
	Solver solver.Stats

	// Profile is the batch's phase-profile window (nil unless the run was
	// given Options.Profiler): every campaign's engine bins plus the shared
	// solver service's, aggregated across the whole batch.
	Profile binstat.Report

	// BatchID is the store batch manifest this run wrote (empty without a
	// store).
	BatchID string

	// StoreErr joins every store write that failed, each wrapped with its
	// campaign label (nil without a store or when every write succeeded).
	// The campaign results are the same either way; what the store holds
	// is not.
	StoreErr error

	Elapsed time.Duration
	Workers int
}

// DistinctErrorCount returns the number of distinct error keys across all
// targets.
func (r *Report) DistinctErrorCount() int {
	n := 0
	for _, m := range r.Errors {
		n += len(m)
	}
	return n
}

// Targets returns the target names appearing in the report, sorted.
func (r *Report) Targets() []string {
	names := make([]string, 0, len(r.Coverage))
	for n := range r.Coverage {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WriteSummary prints the per-campaign table and per-target rollup the
// `compi sched` subcommand shows.
func (r *Report) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "%-28s %-10s %6s %8s %7s %9s\n",
		"campaign", "target", "iters", "covered", "errors", "elapsed")
	for _, c := range r.Campaigns {
		if c.Err != nil {
			fmt.Fprintf(w, "%-28s %-10s %s\n", c.Label, c.Target, c.Err)
			continue
		}
		elapsed := c.Result.Elapsed.Round(time.Millisecond).String()
		if c.Reused {
			elapsed = "(store)"
		}
		fmt.Fprintf(w, "%-28s %-10s %6d %8d %7d %9s\n",
			c.Label, c.Target, len(c.Result.Iterations),
			c.Result.Coverage.Count(), len(c.Result.Errors), elapsed)
	}
	for _, name := range r.Targets() {
		cov := r.Coverage[name]
		reach := 0
		if prog, ok := target.Lookup(name); ok {
			reach = prog.ReachableBranches(cov.Funcs())
		}
		fmt.Fprintf(w, "\n%s: %d branches covered (reachable est. %d), %d distinct errors\n",
			name, cov.Count(), reach, len(r.Errors[name]))
		msgs := make([]string, 0, len(r.Errors[name]))
		for msg := range r.Errors[name] {
			msgs = append(msgs, msg)
		}
		sort.Strings(msgs)
		for _, msg := range msgs {
			recs := r.Errors[name][msg]
			fmt.Fprintf(w, "  [%s] %s (%d hits, first inputs=%v)\n",
				recs[0].Status, msg, len(recs), recs[0].Inputs)
		}
	}
	for _, g := range r.Groups() {
		fmt.Fprintf(w, "\nshard group %s (%s): %d shards, %d iterations, %d branches covered, %d distinct errors\n",
			g.Group, g.Target, g.Shards, g.Iterations, g.Coverage.Count(), len(g.Errors))
	}
	if r.Solver.Calls > 0 {
		fmt.Fprintf(w, "\n%s\n", r.Solver.Summary())
	}
	if len(r.Profile) > 0 {
		fmt.Fprintf(w, "\n%s", r.Profile.String())
	}
	if r.BatchID != "" {
		fmt.Fprintf(w, "\nstore batch %s\n", r.BatchID)
	}
	if r.StoreErr != nil {
		fmt.Fprintf(w, "\nstore write failed: %v\n", r.StoreErr)
	}
	fmt.Fprintf(w, "\n%d campaigns, %d workers, %s\n",
		len(r.Campaigns), r.Workers, r.Elapsed.Round(time.Millisecond))
}

// Options configures a scheduler run.
type Options struct {
	// Workers bounds the number of concurrently running engines; <= 0
	// selects GOMAXPROCS.
	Workers int

	// Trace, when non-nil, receives every campaign's iteration stats live,
	// tagged with the campaign label. The scheduler serializes calls, so
	// the callback need not be safe for concurrent use. Ordering across
	// campaigns follows completion time and is not deterministic.
	Trace func(label string, it core.IterationStat)

	// Solver, when non-nil, is the shared solver service every campaign in
	// the batch uses (specs whose Config.Solver is already set keep their
	// own). When nil, Run constructs one solver.Service for the batch, so
	// its campaigns share one compile cache. Sharing is safe for the
	// determinism contract because the service returns exactly what the
	// live solve would (see core.SolverService).
	Solver core.SolverService

	// Profiler, when non-nil, is shared by every campaign in the batch
	// (specs whose Config.Profiler is already set keep their own) and by the
	// shared solver service, so the Report's Profile aggregates the whole
	// batch's phase bins. Profiling is observational: trajectories are
	// byte-identical with or without it.
	Profiler *binstat.Profiler

	// Store, when non-nil, makes the batch durable: campaign snapshots are
	// checkpointed into the store as they run, a batch manifest tracks
	// progress, campaign index entries are written at each completion, and
	// specs whose canonical setup a prior batch already explored, or whose
	// own earlier run was killed, are resumed or reattached instead of re-run
	// (see Batch). Campaigns
	// checkpoint every iteration. Determinism is unaffected: resumed and
	// reattached results are identical to freshly computed ones. Failed
	// writes are reported in Report.StoreErr.
	Store *store.Store

	// BatchID names this run's batch manifest in the store; empty derives
	// a stable ID from the spec list, so re-running the same batch resumes
	// it.
	BatchID string
}

// Run drives a Batch over the specs with a pool of workers, each running one
// campaign engine at a time, and returns the merged report. The per-campaign
// Results are deterministic in the specs alone; only wall-clock fields
// (Elapsed, RunTime) vary between runs.
func Run(specs []Spec, opt Options) *Report {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	if workers < 1 {
		workers = 1
	}
	start := time.Now()

	// One solver service per batch: campaigns negating overlapping path
	// prefixes (shards of one target in particular) reuse each other's
	// compiled predicates.
	shared := opt.Solver
	if shared == nil {
		shared = solver.NewService(solver.ServiceConfig{Profiler: opt.Profiler})
	}
	solver0 := shared.Stats()
	prof0 := opt.Profiler.Report()

	b := NewBatch(specs, opt.Store, opt.BatchID)

	var traceMu sync.Mutex
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				runCampaign(b, i, shared, opt, &traceMu)
			}
		}()
	}
	for i := range specs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)

	rep := b.Report(workers)
	rep.Elapsed = elapsed
	rep.Solver = shared.Stats().Delta(solver0)
	if opt.Profiler != nil {
		rep.Profile = opt.Profiler.Report().Delta(prof0)
	}
	return rep
}

// runCampaign drives campaign i of b on the calling worker goroutine. A
// persisted campaign checkpoints every iteration, the store write first and
// the spec's own Checkpoint hook after it.
func runCampaign(b *Batch, i int, shared core.SolverService, opt Options, traceMu *sync.Mutex) {
	resume, reused := b.Start(i)
	if reused {
		return
	}
	c := &b.camps[i]
	cfg, closeTarget, err := c.Spec.Open()
	if err != nil {
		b.Fail(i, err)
		return
	}
	defer closeTarget()
	c.Target = cfg.Program.Name
	if cfg.Solver == nil {
		cfg.Solver = shared
	}
	if cfg.Profiler == nil {
		cfg.Profiler = opt.Profiler
	}
	if trace := opt.Trace; trace != nil {
		inner := cfg.Trace
		cfg.Trace = func(it core.IterationStat) {
			traceMu.Lock()
			trace(c.Label, it)
			traceMu.Unlock()
			if inner != nil {
				inner(it)
			}
		}
	}
	persisted := b.persisted(i)
	if persisted {
		inner := cfg.Checkpoint
		cfg.Checkpoint = func(snap *core.Snapshot) {
			b.Checkpoint(i, snap)
			if inner != nil {
				inner(snap)
			}
		}
	}
	eng := NewEngine(cfg, resume)
	res := eng.Run()
	var final *core.Snapshot
	if persisted {
		final = eng.Snapshot()
	}
	b.Finish(i, res, final)
}
