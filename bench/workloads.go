package main

import (
	"crypto/sha256"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/mpi"
	"repro/internal/proto"
	"repro/internal/sched"
	"repro/internal/solver"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/target"
	_ "repro/internal/targets/hpl"
	_ "repro/internal/targets/mworder"
	_ "repro/internal/targets/relay"
	"repro/internal/targets/stencil"
	"repro/internal/targets/susy"
)

type kind int

const (
	kindCampaign kind = iota // one core.NewEngine campaign per unit
	kindSched                // one store-backed sched.Run batch plus reuse passes per unit
	kindFleet                // one fleet coordinator batch with two workers per unit
)

// workload is one set of inputs the benchmark runs. A run repeats units — a
// campaign or a batch — over the workload's pool of campaign seeds. The pool
// seeds are vetted: each unit finishes in a few seconds, fails no operation,
// and has a golden fingerprint. -seed only rotates the order in which a run
// walks the pool, so every run measures the same work and the run-to-run
// spread is the machine's, not the seeds'. Why each workload was chosen is
// recorded in BENCHMARK.json and README.md.
type workload struct {
	name string
	// golden names the fingerprint family. Workloads that must produce
	// identical output share one: stencil-pipe checks against stencil-wide's
	// fingerprints, batch-fleet against batch-sched's.
	golden string
	kind   kind
	target string // campaign workloads
	pipe   bool   // launch every iteration through proto.Start's child
	pool   []int64
}

var workloads = []*workload{
	{name: "susy-deep", golden: "susy-deep", kind: kindCampaign, target: "susy-hmc", pool: []int64{14, 19}},
	{name: "stencil-wide", golden: "stencil", kind: kindCampaign, target: "stencil", pool: []int64{1, 2, 3}},
	{name: "stencil-pipe", golden: "stencil", kind: kindCampaign, target: "stencil", pipe: true, pool: []int64{1, 2, 3}},
	{name: "batch-sched", golden: "batch", kind: kindSched, pool: []int64{1, 3}},
	{name: "batch-fleet", golden: "batch", kind: kindFleet, pool: []int64{1, 3}},
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// scale sizes the units. full is the benchmark; smoke runs every code path at
// a few iterations for the package test.
type scale struct {
	name         string
	susyIters    int // susy-deep campaign length
	susyDFS      int // and its DFS phase
	stencilIters int // stencil-wide / stencil-pipe campaign length
	batchIters   int // hpl and stencil campaigns in a batch
	schedIters   int // mworder and relay campaigns in a batch
	reusePasses  int // batch-sched passes over the finished store
	cycles       int // fewest cycles an untraced run takes
	setups       int // set-up probes per run
	exprPreds    int // predicate budget of the traced expr replay sample
}

var scales = map[string]scale{
	"full":  {name: "full", susyIters: 35, susyDFS: 30, stencilIters: 1500, batchIters: 200, schedIters: 200, reusePasses: 20, cycles: 3, setups: 15, exprPreds: 20000},
	"smoke": {name: "smoke", susyIters: 12, susyDFS: 6, stencilIters: 150, batchIters: 15, schedIters: 60, reusePasses: 2, cycles: 1, setups: 2, exprPreds: 2000},
}

// batchWorkers is the worker (and fleet connection) count: the 2-core box
// the benchmark is sized for.
const batchWorkers = 2

// baseCampaign is the campaign the CLI's defaults describe, seeded bugs fixed.
func baseCampaign(tgt string, seed int64, iters int) spec.Campaign {
	return spec.Campaign{
		Target: tgt, Seed: seed, Iterations: iters,
		InitialProcs: 8, MaxProcs: 16, Reduction: true, Framework: true,
		DFSPhase: 50, RunTimeout: 30 * time.Second,
		Params: core.MergeParams(susy.FixAll(), stencil.FixAll()),
	}
}

func (w *workload) campaign(sc scale, seed int64, probe bool) spec.Campaign {
	c := baseCampaign(w.target, seed, sc.stencilIters)
	if w.target == "susy-hmc" {
		c.Iterations, c.DFSPhase = sc.susyIters, sc.susyDFS
	}
	if probe {
		c.Iterations = 1
	}
	return c
}

// batchSpecs is the six-campaign batch both batch workloads run: hpl and
// stencil at seeds s and s+1, and the two schedule-space targets at seed s,
// whose wait-for-cycle deadlocks the output check requires.
func batchSpecs(sc scale, seed int64, probe bool) []sched.Spec {
	var out []sched.Spec
	add := func(c spec.Campaign) {
		if probe {
			c.Iterations = 1
		}
		out = append(out, sched.Spec{Campaign: c})
	}
	for _, tgt := range []string{"hpl", "stencil"} {
		for _, s := range []int64{seed, seed + 1} {
			add(baseCampaign(tgt, s, sc.batchIters))
		}
	}
	for _, tgt := range []string{"mworder", "relay"} {
		c := baseCampaign(tgt, seed, sc.schedIters)
		c.InitialProcs, c.MaxProcs, c.Schedules = 3, 3, true
		add(c)
	}
	return out
}

// env is what every unit of one run shares.
type env struct {
	sc        scale
	targetBin string // compi-target, for stencil-pipe
	tmp       string // store directories
}

// unitResult is one unit's measurements and output.
type unitResult struct {
	first    time.Time       // start of the unit's first iteration
	setup    time.Duration   // unit start to first
	iterWall time.Duration   // first iteration start to the last campaign's end
	iters    int             // iterations executed (reattached ones excluded)
	deltas   []time.Duration // successive IterationStat.Elapsed deltas
	covTimes []time.Duration // per campaign: Elapsed when coverage reached its final count
	fp       fingerprint

	campaigns int
	failed    int
	problems  []string
	checks    map[string]int
}

func (u *unitResult) fail(format string, args ...any) {
	u.failed++
	u.problems = append(u.problems, fmt.Sprintf(format, args...))
}

// check counts one output check and records a failure when it does not hold.
func (u *unitResult) check(name string, ok bool, format string, args ...any) {
	if u.checks == nil {
		u.checks = map[string]int{}
	}
	u.checks[name]++
	if !ok {
		u.fail("%s: %s", name, fmt.Sprintf(format, args...))
	}
}

// addCampaign folds one executed campaign into the unit. A campaign fails on
// an error or on any hang: the watchdog is wall-clock, so a hang would make
// the output depend on the machine.
func (u *unitResult) addCampaign(label string, res core.Result, err error) {
	u.campaigns++
	if err != nil {
		u.fail("%s: %v", label, err)
		return
	}
	final := res.Coverage.Count()
	var prev time.Duration
	covered := false
	for _, it := range res.Iterations {
		u.deltas = append(u.deltas, it.Elapsed-prev)
		prev = it.Elapsed
		if !covered && it.Covered == final {
			u.covTimes = append(u.covTimes, it.Elapsed)
			covered = true
		}
	}
	u.iters += len(res.Iterations)
	for _, e := range res.Errors {
		if e.Status == mpi.StatusHang {
			u.fail("%s: hang at iteration %d: %s", label, e.Iter, e.Msg)
			break
		}
	}
	u.fp.Campaigns = append(u.fp.Campaigns, campaignFingerprint(label, res))
}

// run executes one unit. tr, when non-nil, traces it; probe truncates every
// campaign to one iteration and skips the reuse passes, which leaves exactly
// the unit's set-up path.
func (w *workload) run(e *env, seed int64, tr *tracer, probe bool) unitResult {
	switch w.kind {
	case kindSched:
		return w.runSched(e, seed, tr, probe)
	case kindFleet:
		return w.runFleet(e, seed, tr, probe)
	}
	return w.runCampaign(e, seed, tr, probe)
}

func (w *workload) runCampaign(e *env, seed int64, tr *tracer, probe bool) unitResult {
	var u unitResult
	c := w.campaign(e.sc, seed, probe)
	label := c.DisplayLabel()
	start := time.Now()
	tr.beginUnit()

	var first, runEnd time.Time
	res, err := func() (res core.Result, err error) {
		cfg, err := c.EngineConfig()
		if err != nil {
			return res, err
		}
		prog, ok := target.Lookup(c.Target)
		if !ok {
			return res, fmt.Errorf("unknown target %q", c.Target)
		}
		cfg.Program = prog
		if w.pipe {
			t0 := time.Now()
			drv, err := proto.Start(e.targetBin, proto.Options{Args: []string{"-target", c.Target}})
			if err != nil {
				return res, err
			}
			tr.protoStarted(t0, time.Now())
			defer func() {
				if cerr := drv.Close(); cerr != nil && err == nil {
					err = cerr
				}
			}()
			cfg.Backend = drv
		}
		var ct *campTrace
		if tr != nil {
			ct = tr.campaign(label)
			if cfg.Backend == nil {
				cfg.Backend = core.NewInProcess(prog, conc.NewVarSpace())
			}
			cfg.Backend = &tracedBackend{inner: cfg.Backend, c: ct}
			cfg.Solver = &tracedSolver{inner: solver.NewService(solver.ServiceConfig{}), c: ct}
		}
		cfg.Trace = func(it core.IterationStat) {
			now := time.Now()
			if first.IsZero() {
				first = now.Add(-it.Elapsed)
			}
			ct.iterDone(it, now, false)
		}
		res = core.NewEngine(cfg).Run()
		runEnd = time.Now()
		ct.finish()
		return res, nil
	}()
	u.addCampaign(label, res, err)
	if err != nil || first.IsZero() {
		if err == nil {
			u.fail("%s: no iteration ran", label)
		}
		tr.endUnit(start, time.Now())
		return u
	}
	u.first, u.setup, u.iterWall = first, first.Sub(start), runEnd.Sub(first)
	tr.endUnit(start, runEnd)
	if tr != nil {
		tr.campaignResult(res)
		tr.solverStats(res.Solver)
	}
	return u
}

func (w *workload) runSched(e *env, seed int64, tr *tracer, probe bool) unitResult {
	var u unitResult
	dir, err := os.MkdirTemp(e.tmp, "store-")
	if err != nil {
		u.fail("store dir: %v", err)
		return u
	}
	defer os.RemoveAll(dir)
	specs := batchSpecs(e.sc, seed, probe)

	start := time.Now()
	tr.beginUnit()
	st, err := store.Open(dir)
	if err != nil {
		u.fail("store: %v", err)
		return u
	}
	var first time.Time // sched.Run serializes Trace calls
	opt := sched.Options{Workers: batchWorkers, Store: st, Trace: func(_ string, it core.IterationStat) {
		if first.IsZero() {
			first = time.Now().Add(-it.Elapsed)
		}
	}}
	var cts []*campTrace
	if tr != nil {
		// A *solver.Service as Options.Solver keeps the store's warm-cache
		// load and merge; the per-spec wrappers time each campaign's calls.
		svc := solver.NewService(solver.ServiceConfig{})
		opt.Solver = svc
		specs, cts = tr.instrumentBatch(specs, dir, svc)
	}
	rep := sched.Run(specs, opt)
	runEnd := time.Now()
	if err := st.Close(); err != nil {
		u.fail("store close: %v", err)
	}
	for _, c := range rep.Campaigns {
		u.addCampaign(c.Label, c.Result, c.Err)
		if c.Reused {
			u.fail("%s: reattached from a fresh store", c.Label)
		}
	}
	u.fp.Report = reportLines(rep)
	if !probe {
		u.checkDeadlocks()
	}
	if first.IsZero() {
		u.fail("batch ran no iteration")
		tr.endUnit(start, runEnd)
		return u
	}
	u.first, u.setup, u.iterWall = first, first.Sub(start), runEnd.Sub(first)
	tr.endUnit(start, runEnd)
	if tr != nil {
		for i, c := range rep.Campaigns {
			cts[i].finish()
			tr.campaignResult(c.Result)
		}
		tr.solverStats(rep.Solver)
		tr.count("sched.campaigns", float64(len(rep.Campaigns)))
		tr.batchDone("sched", rep, batchWorkers, runEnd.Sub(first), dirBytes(dir))
	}
	if !probe {
		u.reusePasses(e.sc.reusePasses, dir, specs, tr)
	}
	return u
}

// reusePasses re-runs the finished batch against its store: every campaign
// must reattach with the batch phase's exact output, and the index must
// answer the deadlock query for both schedule-space targets.
func (u *unitResult) reusePasses(n int, dir string, specs []sched.Spec, tr *tracer) {
	for p := 0; p < n; p++ {
		t0 := time.Now()
		st, err := store.Open(dir)
		if err != nil {
			u.fail("reuse pass %d: %v", p, err)
			return
		}
		rep := sched.Run(specs, sched.Options{Workers: batchWorkers, Store: st})
		q0 := time.Now()
		entries, err := st.Index()
		deadlocked := store.SetupsWithError(entries, "wait-for cycle")
		targets := store.ByTarget(entries)
		q1 := time.Now()
		cerr := st.Close()
		t1 := time.Now()
		tr.reusePass(t0, q0, q1, t1)
		if err != nil || cerr != nil {
			u.fail("reuse pass %d: index %v, close %v", p, err, cerr)
			continue
		}
		var fp fingerprint
		reused := 0
		for _, c := range rep.Campaigns {
			u.campaigns++
			if c.Err != nil {
				u.fail("reuse pass %d: %s: %v", p, c.Label, c.Err)
				continue
			}
			if c.Reused {
				reused++
			}
			fp.Campaigns = append(fp.Campaigns, campaignFingerprint(c.Label, c.Result))
		}
		fp.Report = reportLines(rep)
		tr.count("sched.reused", float64(reused))
		u.check("reuse==batch", reused == len(specs) && fp.equal(u.fp),
			"pass %d reattached %d of %d campaigns with a different output", p, reused, len(specs))
		u.check("index-query", len(deadlocked) == 2 && len(targets) == 4,
			"pass %d: %d setups with a wait-for cycle, %d targets", p, len(deadlocked), len(targets))
	}
}

// checkDeadlocks requires the wait-for-cycle deadlock in each schedule-space
// campaign of a batch.
func (u *unitResult) checkDeadlocks() {
	found := map[string]bool{}
	for _, c := range u.fp.Campaigns {
		for _, e := range c.Errors {
			if strings.Contains(e, "wait-for cycle") {
				found[strings.SplitN(c.Label, "/", 2)[0]] = true
			}
		}
	}
	u.check("deadlocks", found["mworder"] && found["relay"], "wait-for cycles found: %v", found)
}

func (w *workload) runFleet(e *env, seed int64, tr *tracer, probe bool) unitResult {
	var u unitResult
	dir, err := os.MkdirTemp(e.tmp, "store-")
	if err != nil {
		u.fail("store dir: %v", err)
		return u
	}
	defer os.RemoveAll(dir)
	specs := batchSpecs(e.sc, seed, probe)

	start := time.Now()
	tr.beginUnit()
	st, err := store.Open(dir)
	if err != nil {
		u.fail("store: %v", err)
		return u
	}
	// The worker logs "running lease" immediately before its engine runs, so
	// the first such line marks the batch's first iteration start.
	var mu sync.Mutex
	var first time.Time
	engineStart := map[string]time.Time{}
	workerLog := func(format string, args ...any) {
		if !strings.HasPrefix(format, "fleet: running lease") {
			return
		}
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		if first.IsZero() {
			first = now
		}
		if len(args) == 2 {
			engineStart[fmt.Sprint(args[1])] = now
		}
	}
	coord := fleet.NewCoordinator(specs, fleet.Options{Store: st})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		u.fail("listen: %v", err)
		return u
	}
	var counted *countingListener
	if tr != nil {
		counted = &countingListener{Listener: ln}
		ln = counted
	}
	served := make(chan error, 1)
	go func() { served <- coord.Serve(ln) }()
	var wg sync.WaitGroup
	werrs := make([]error, batchWorkers)
	for i := range werrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			werrs[i] = fleet.Work(ln.Addr().String(), fleet.WorkerOptions{Name: fmt.Sprintf("w%d", i), Logf: workerLog})
		}()
	}
	rep := coord.Wait()
	runEnd := time.Now()
	wg.Wait()
	if err := <-served; err != nil {
		u.fail("serve: %v", err)
	}
	for i, err := range werrs {
		if err != nil {
			u.fail("worker %d: %v", i, err)
		}
	}

	var queryErr error
	if tr != nil {
		q0 := time.Now()
		entries, err := st.Index()
		store.SetupsWithError(entries, "wait-for cycle")
		store.ByTarget(entries)
		tr.queried(q0, time.Now())
		queryErr = err
	}
	if err := st.Close(); err != nil || queryErr != nil {
		u.fail("store: close %v, index %v", err, queryErr)
	}
	for _, c := range rep.Campaigns {
		u.addCampaign(c.Label, c.Result, c.Err)
	}
	u.fp.Report = reportLines(rep)
	if !probe {
		u.checkDeadlocks()
	}
	if first.IsZero() {
		u.fail("fleet ran no iteration")
		tr.endUnit(start, runEnd)
		return u
	}
	u.first, u.setup, u.iterWall = first, first.Sub(start), runEnd.Sub(first)
	tr.endUnit(start, runEnd)
	if tr != nil {
		for _, c := range rep.Campaigns {
			// Fleet engines run inside fleet.Work, out of the benchmark's
			// reach: their iteration spans are placed from the snapshot's
			// Elapsed history, anchored at the worker's running-lease line.
			ct := tr.campaign(c.Label)
			ct.replay(engineStart[c.Label], c.Result.Iterations)
			ct.finish()
			tr.campaignResult(c.Result)
		}
		tr.batchDone("fleet", rep, batchWorkers, runEnd.Sub(first), dirBytes(dir))
		tr.fleetTraffic(counted)
	}
	return u
}

// reportLines is the per-target rollup of a batch report — coverage, distinct
// errors, hit counts and first inputs — without its timing lines. sched and
// fleet must print the same lines for the same specs.
func reportLines(rep *sched.Report) []string {
	var b strings.Builder
	rep.WriteSummary(&b)
	var out []string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.Contains(line, " branches covered (reachable est.") || strings.HasPrefix(line, "  [") {
			out = append(out, line)
		}
	}
	return out
}

// campaignFingerprint digests one campaign's output.
func campaignFingerprint(label string, res core.Result) campaignFP {
	h := sha256.New()
	for _, b := range res.Coverage.Branches() {
		fmt.Fprintf(h, "%d\n", b)
	}
	var errs []string
	for msg, recs := range res.DistinctErrors() {
		errs = append(errs, recs[0].Status.String()+": "+msg)
	}
	sort.Strings(errs)
	return campaignFP{
		Label:    label,
		Covered:  res.Coverage.Count(),
		Branches: fmt.Sprintf("%x", h.Sum(nil)),
		Iters:    len(res.Iterations),
		Solver:   res.SolverCall,
		Unsat:    res.UnsatCalls,
		Errors:   errs,
	}
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}
