// Package repro's top-level benchmarks regenerate each table and figure of
// the paper's evaluation at reduced scale (one benchmark per table/figure;
// run the cmd/compi-experiments binary for the full-scale versions).
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/binstat"
	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/expr"
	"repro/internal/mpi"
	"repro/internal/proto"
	"repro/internal/sched"
	"repro/internal/solver"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/target"
	_ "repro/internal/targets/hpl"
	_ "repro/internal/targets/imb"
	_ "repro/internal/targets/skeleton"
	"repro/internal/targets/stencil"
	"repro/internal/targets/susy"
)

// benchScale keeps each regeneration to a benchmark-friendly size.
var benchScale = experiments.Scale{
	Reps: 1, Iters: 60, Fig4Iters: 60, FixedRuns: 2,
	Fig6MaxN: 300, RunTimeout: 30 * time.Second, Budget: 5 * time.Second,
}

func benchTables(b *testing.B, run func(s experiments.Scale) []*experiments.Table) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		for _, t := range run(benchScale) {
			t.Fprint(io.Discard)
		}
	}
}

// BenchmarkTable3Complexity regenerates Table III (program complexity).
func BenchmarkTable3Complexity(b *testing.B) {
	benchTables(b, func(s experiments.Scale) []*experiments.Table {
		return []*experiments.Table{experiments.TableIII(s)}
	})
}

// BenchmarkFig4SearchStrategies regenerates Figure 4 (HPL coverage under the
// four search strategies).
func BenchmarkFig4SearchStrategies(b *testing.B) {
	benchTables(b, func(s experiments.Scale) []*experiments.Table {
		return []*experiments.Table{experiments.Fig4(s)}
	})
}

// BenchmarkFig6MatrixSize regenerates Figure 6 (HPL cost and coverage vs. N).
func BenchmarkFig6MatrixSize(b *testing.B) {
	benchTables(b, func(s experiments.Scale) []*experiments.Table {
		return []*experiments.Table{experiments.Fig6(s)}
	})
}

// BenchmarkBugHunt regenerates §VI-A (the four SUSY-HMC bugs).
func BenchmarkBugHunt(b *testing.B) {
	benchTables(b, func(s experiments.Scale) []*experiments.Table {
		return []*experiments.Table{experiments.Bugs(s)}
	})
}

// BenchmarkFig8InputCapping regenerates Figure 8 (caps vs. time/coverage).
func BenchmarkFig8InputCapping(b *testing.B) {
	benchTables(b, func(s experiments.Scale) []*experiments.Table {
		return []*experiments.Table{experiments.Fig8(s)}
	})
}

// BenchmarkTable4TwoWay regenerates Table IV (one-way vs. two-way
// instrumentation).
func BenchmarkTable4TwoWay(b *testing.B) {
	benchTables(b, func(s experiments.Scale) []*experiments.Table {
		return []*experiments.Table{experiments.TableIV(s)}
	})
}

// BenchmarkTable5Reduction regenerates Table V and Figure 9 (constraint set
// reduction and set-size distributions; the two share campaigns).
func BenchmarkTable5Reduction(b *testing.B) {
	benchTables(b, func(s experiments.Scale) []*experiments.Table {
		t5, f9 := experiments.TableVFig9(s)
		return []*experiments.Table{t5, f9}
	})
}

// BenchmarkFig9SetSizes is an alias target for Figure 9 (same campaigns as
// Table V).
func BenchmarkFig9SetSizes(b *testing.B) {
	benchTables(b, func(s experiments.Scale) []*experiments.Table {
		t5, f9 := experiments.TableVFig9(s)
		return []*experiments.Table{f9, t5}
	})
}

// BenchmarkTable6Framework regenerates Table VI (Fwk vs No_Fwk vs Random).
func BenchmarkTable6Framework(b *testing.B) {
	benchTables(b, func(s experiments.Scale) []*experiments.Table {
		return []*experiments.Table{experiments.TableVI(s)}
	})
}

// BenchmarkCampaignIteration measures the per-iteration cost of the engine
// itself on the skeleton program (launch + solve + setup).
func BenchmarkCampaignIteration(b *testing.B) {
	prog, _ := target.Lookup("skeleton")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.NewEngine(core.Config{
			Program: prog, Iterations: 10, Reduction: true,
			Framework: true, Seed: int64(i),
		}).Run()
	}
}

// BenchmarkSUSYTrajectory measures one fixed-input SUSY-HMC execution (the
// target-program side of the harness).
func BenchmarkSUSYTrajectory(b *testing.B) {
	prog, _ := target.Lookup("susy-hmc")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.NewEngine(core.Config{
			Program: prog, Params: susy.FixAll(), Iterations: 3, Reduction: true,
			Framework: true, Seed: 9,
		}).Run()
	}
}

// benchEngine runs whole campaigns against one target and reports engine
// throughput as iterations per second per core — the benchmark-trajectory
// number BENCH_engine.json tracks run-over-run (cmd/compi-bench appends it
// and prints the delta vs the previous CI run). The profile=on/off pair is
// the disabled-profiler overhead pin: a nil profiler degrades every
// instrumentation point to a nil check, so the two sub-benchmarks must be
// indistinguishable within noise.
func benchEngine(b *testing.B, name string, params map[string]int64, profile bool) {
	benchCampaign(b, name, core.Config{Params: params, Iterations: 40, Seed: 7}, profile)
}

// benchCampaign repeats the campaign cfg describes on the named target, with
// reduction and the MPI framework on, and reports iterations/s/core.
func benchCampaign(b *testing.B, name string, cfg core.Config, profile bool) {
	cfg = campaignConfig(b, name, cfg)
	b.ReportAllocs()
	iters := 0
	for i := 0; i < b.N; i++ {
		run := cfg
		if profile {
			run.Profiler = binstat.New()
		}
		res := core.NewEngine(run).Run()
		iters += len(res.Iterations)
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(iters)/sec/float64(runtime.GOMAXPROCS(0)), "iters/s/core")
	}
}

// campaignConfig completes cfg into a benchmark campaign on the named
// target: reduction and the MPI framework on, a 30 s run timeout.
func campaignConfig(b *testing.B, name string, cfg core.Config) core.Config {
	prog, ok := target.Lookup(name)
	if !ok {
		b.Fatalf("target %q not registered", name)
	}
	cfg.Program, cfg.Reduction, cfg.Framework = prog, true, true
	cfg.RunTimeout = 30 * time.Second
	return cfg
}

// BenchmarkEngineHPL is the engine-throughput trajectory on HPL (the paper's
// main coverage target).
func BenchmarkEngineHPL(b *testing.B) {
	b.Run("profile=off", func(b *testing.B) { benchEngine(b, "hpl", nil, false) })
	b.Run("profile=on", func(b *testing.B) { benchEngine(b, "hpl", nil, true) })
}

// BenchmarkEngineSUSY is the engine-throughput trajectory on SUSY-HMC (the
// paper's bug-hunt target), seeded bugs fixed so every run completes its 40
// iterations.
func BenchmarkEngineSUSY(b *testing.B) {
	b.Run("profile=off", func(b *testing.B) { benchEngine(b, "susy-hmc", susy.FixAll(), false) })
	b.Run("profile=on", func(b *testing.B) { benchEngine(b, "susy-hmc", susy.FixAll(), true) })
}

// susyLong is the long SUSY-HMC campaign: 150 iterations at seed 5 with a
// 30-execution DFS phase, which runs past the DFS phase into constraint sets
// of hundreds of predicates.
func susyLong() core.Config {
	return core.Config{Params: susy.FixAll(), Iterations: 150, DFSPhase: 30, Seed: 5}
}

// BenchmarkEngineSUSYLong is the long-campaign trajectory on susyLong. The
// 40-iteration benchmarks above never reach its regime, where every
// proposal of an iteration is solved over the same long prefix.
func BenchmarkEngineSUSYLong(b *testing.B) {
	benchCampaign(b, "susy-hmc", susyLong(), false)
}

// solverCall is one recorded engine→solver request.
type solverCall struct {
	preds []expr.Pred
	prev  map[expr.Var]int64
	opt   solver.Options
}

// recordingSolver captures the solving workload of a campaign so it can be
// replayed outside the engine.
type recordingSolver struct {
	svc   core.SolverService
	calls []solverCall
}

func (r *recordingSolver) SolveIncremental(preds []expr.Pred, prev map[expr.Var]int64, opt solver.Options) (solver.Result, bool) {
	p := make(map[expr.Var]int64, len(prev))
	for v, x := range prev { // the engine mutates prev between calls
		p[v] = x
	}
	// Both slices are only valid during the call (the engine reuses its
	// constraint scratch buffer — see core.SolverService).
	r.calls = append(r.calls, solverCall{preds: append([]expr.Pred(nil), preds...), prev: p, opt: opt})
	return r.svc.SolveIncremental(preds, prev, opt)
}

func (r *recordingSolver) Stats() solver.Stats { return r.svc.Stats() }

// solveFunc is the signature of solver.SolveIncremental.
type solveFunc func([]expr.Pred, map[expr.Var]int64, solver.Options) (solver.Result, bool)

// BenchmarkSolveIncremental is the live-solve layer benchmark: the solver
// calls of BenchmarkEngineSUSYLong's campaign, recorded once and replayed in
// order. "fresh" replays them through the free function, which compiles
// every predicate on every call; "service" through a new solver.Service per
// replay, which compiles each predicate tree once, as a campaign's own
// service does. Both report ns per call.
func BenchmarkSolveIncremental(b *testing.B) {
	cfg := campaignConfig(b, "susy-hmc", susyLong())
	rec := &recordingSolver{svc: solver.NewService(solver.ServiceConfig{})}
	cfg.Solver = rec
	core.NewEngine(cfg).Run()
	if len(rec.calls) == 0 {
		b.Fatal("recorded no solver calls")
	}
	for _, bc := range []struct {
		name  string
		solve func() solveFunc
	}{
		{"fresh", func() solveFunc { return solver.SolveIncremental }},
		{"service", func() solveFunc { return solver.NewService(solver.ServiceConfig{}).SolveIncremental }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				solve := bc.solve()
				for _, c := range rec.calls {
					solve(c.preds, c.prev, c.opt)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rec.calls)), "ns/call")
		})
	}
}

// BenchmarkPipeLaunch is the pipe-protocol layer benchmark: one 8-rank
// stencil launch, repeated, through a compi-target child (proto.Start) and
// through the in-process backend the child itself runs. The pipe's cost is
// the difference. "rejected" stops every rank at the first input check;
// "nx64-maxiter1" runs one solver sweep over a 64-column grid. Each reports
// us/launch. The child is $COMPI_TARGET_BIN when set, else built here once.
func BenchmarkPipeLaunch(b *testing.B) {
	bin := os.Getenv("COMPI_TARGET_BIN")
	if bin == "" {
		bin = filepath.Join(b.TempDir(), "compi-target")
		if out, err := exec.Command("go", "build", "-o", bin, "./cmd/compi-target").CombinedOutput(); err != nil {
			b.Fatalf("building compi-target: %v\n%s", err, out)
		}
	}
	prog, ok := target.Lookup("stencil")
	if !ok {
		b.Fatal("stencil target not registered")
	}
	inputs := func(nx, maxiter int64) map[string]int64 {
		in := stencil.DefaultInputs()
		in["nx"], in["maxiter"] = nx, maxiter
		return in
	}
	for _, bc := range []struct {
		name   string
		inputs map[string]int64
	}{
		{"rejected", inputs(0, 50)},
		{"nx64-maxiter1", inputs(64, 1)},
	} {
		s := core.LaunchSpec{NProcs: 8, Inputs: bc.inputs, Params: stencil.FixAll(), Seed: 1,
			Timeout: 30 * time.Second, Reduction: true}
		b.Run(bc.name+"/in-process", func(b *testing.B) {
			benchLaunch(b, core.NewInProcess(prog, conc.NewVarSpace()), s)
		})
		b.Run(bc.name+"/pipe", func(b *testing.B) {
			drv, err := proto.Start(bin, proto.Options{Args: []string{"-target", "stencil"}})
			if err != nil {
				b.Fatal(err)
			}
			defer drv.Close()
			benchLaunch(b, drv, s)
		})
	}
}

// benchLaunch launches s b.N times on be and reports us/launch.
func benchLaunch(b *testing.B, be core.Backend, s core.LaunchSpec) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Iter = i
		if run := be.Launch(s); len(run.Ranks) != s.NProcs {
			b.Fatalf("launch %d returned %d ranks, want %d", i, len(run.Ranks), s.NProcs)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/launch")
}

// BenchmarkMPI is the MPI runtime layer benchmark, over the public
// mpi.Launch with Light ranks. "pingpong" is one two-rank Send/Recv round
// trip, "allreduce8" one eight-rank Allreduce, and "wildcard3" one round of
// a three-rank fan-in under Schedules, whose two wildcard receives both match
// at quiescence; each runs b.N operations inside one launch. "launch8" is one
// launch of eight ranks that return at once.
func BenchmarkMPI(b *testing.B) {
	b.Run("pingpong", func(b *testing.B) {
		benchMPI(b, 2, false, func(p *mpi.Proc) {
			w, buf := p.World(), []float64{1}
			for i := 0; i < b.N; i++ {
				if p.Rank() == 0 {
					p.Send(w, 1, 0, buf)
					p.Recv(w, 1, 0)
				} else {
					p.Recv(w, 0, 0)
					p.Send(w, 0, 0, buf)
				}
			}
		})
	})
	b.Run("allreduce8", func(b *testing.B) {
		benchMPI(b, 8, false, func(p *mpi.Proc) {
			w, buf := p.World(), []float64{1}
			for i := 0; i < b.N; i++ {
				p.Allreduce(w, mpi.OpSum, buf)
			}
		})
	})
	b.Run("wildcard3", func(b *testing.B) {
		benchMPI(b, 3, true, func(p *mpi.Proc) {
			w := p.World()
			for i := 0; i < b.N; i++ {
				if p.Rank() != 0 {
					p.Send(w, 0, 1, nil)
					p.Recv(w, 0, 2)
					continue
				}
				p.Recv(w, mpi.AnySource, 1)
				p.Recv(w, mpi.AnySource, 1)
				p.Send(w, 1, 2, nil)
				p.Send(w, 2, 2, nil)
			}
		})
	})
	b.Run("launch8", func(b *testing.B) {
		spec := mpiSpec(8, false, func(*mpi.Proc) int { return 0 })
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if res := mpi.Launch(spec); res.Failed() {
				b.Fatalf("launch %d failed: %+v", i, res.Ranks)
			}
		}
	})
}

// traceLog keeps BenchmarkTraceRecord's logs reachable, so the compiler
// cannot drop the work that builds them.
var traceLog *conc.Log

// BenchmarkTraceRecord is the trace-recording layer benchmark, over the
// public conc API: one process records traceBranches branch events over a
// symbolic input with constraint set reduction on, then builds its log.
// Heavy is the focus process; Light records coverage only. The events cycle
// over traceSites sites and each site's outcome flips once, halfway, so
// reduction keeps each site's first predicate and its flip and drops the
// rest. Each reports ns per branch event.
func BenchmarkTraceRecord(b *testing.B) {
	const traceBranches, traceSites = 2048, 64
	vars := conc.NewVarSpace()
	inputs := map[string]int64{"x": 7}
	for _, mode := range []conc.Mode{conc.Heavy, conc.Light} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := conc.NewProc(0, vars, inputs, conc.Config{Mode: mode, Reduction: true})
				x := p.InputInt("x")
				for j := 0; j < traceBranches; j++ {
					limit := conc.K(int64(j * 16 / traceBranches))
					p.Branch(conc.CondID(j%traceSites), conc.LT(x, limit))
				}
				traceLog = p.Log()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*traceBranches), "ns/branch")
		})
	}
}

// mpiSpec is a launch of n Light ranks running main.
func mpiSpec(n int, schedules bool, main func(*mpi.Proc) int) mpi.Spec {
	return mpi.Spec{
		NProcs:    n,
		Main:      main,
		Conc:      func(int) conc.Config { return conc.Config{Mode: conc.Light} },
		Timeout:   time.Minute,
		Schedules: schedules,
	}
}

// benchMPI runs body on n Light ranks in one launch; body performs the b.N
// operations being timed.
func benchMPI(b *testing.B, n int, schedules bool, body func(*mpi.Proc)) {
	b.ReportAllocs()
	res := mpi.Launch(mpiSpec(n, schedules, func(p *mpi.Proc) int {
		body(p)
		return 0
	}))
	if fe, failed := res.FirstError(); failed {
		b.Fatalf("rank %d: %v (exit %d): %v", fe.Rank, fe.Status, fe.Exit, fe.Err)
	}
}

// benchQueryStore builds a store with synthetic indexed campaigns spread
// over a handful of targets, a third of them carrying a deadlock error.
func benchQueryStore(b *testing.B, campaigns int) *store.Store {
	b.Helper()
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	man := &store.BatchManifest{ID: "bench"}
	for i := 0; i < campaigns; i++ {
		var bits []conc.BranchBit
		for j := 0; j < 200+i; j++ {
			bits = append(bits, conc.BranchBit(j))
		}
		snap := &core.Snapshot{
			Version: core.SnapshotVersion, Program: fmt.Sprintf("target-%d", i%6),
			Iters: 100 + i, Covered: bits, Funcs: []string{"main", "compute"},
		}
		if i%3 == 0 {
			snap.Errors = []core.ErrorRecord{{
				Status: mpi.StatusDeadlock,
				Msg:    fmt.Sprintf("deadlock: wait-for cycle 0->%d->0", i%4+1),
			}}
		}
		name := fmt.Sprintf("camp-%03d", i)
		if err := st.SaveCampaign(name, snap); err != nil {
			b.Fatal(err)
		}
		man.Entries = append(man.Entries, store.BatchEntry{Label: name, Key: fmt.Sprintf("key-%03d", i),
			Status: store.StatusDone, Campaign: name, Iters: snap.Iters})
	}
	if err := st.SaveBatch(man); err != nil {
		b.Fatal(err)
	}
	if _, err := st.Reindex(); err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkStoreQuery measures the `compi report` read path: load and verify
// the campaign index, answer the which-setups-found-error-X query and the
// coverage-by-target rollup — all without touching a snapshot.
func BenchmarkStoreQuery(b *testing.B) {
	st := benchQueryStore(b, 120)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entries, err := st.Index()
		if err != nil {
			b.Fatal(err)
		}
		if hits := store.SetupsWithError(entries, "wait-for cycle"); len(hits) == 0 {
			b.Fatal("error query found nothing")
		}
		if ts := store.ByTarget(entries); len(ts) != 6 {
			b.Fatalf("target rollup found %d targets", len(ts))
		}
	}
}

// BenchmarkCheckpoint measures the store's writes of a campaign at a
// 200-iteration HPL history. "engine" and "loaded" fold a whole snapshot,
// fsync included, as a store-backed batch does once per campaign when it
// finishes: the engine's own Snapshot, and the same snapshot read back from
// disk, as the fleet coordinator folds the final snapshots its workers
// send. Both report the snapshot file's size. "journal" appends the record
// a store-backed batch appends after every iteration, the one that takes
// the campaign's journal from iteration 199 to 200, and reports its bytes.
// A journal syncs at most once a second, so the append runs unsynced.
func BenchmarkCheckpoint(b *testing.B) {
	prog, ok := target.Lookup("hpl")
	if !ok {
		b.Fatal("hpl not registered")
	}
	var prev, last *core.Snapshot
	eng := core.NewEngine(core.Config{
		Program: prog, Iterations: 200, Reduction: true, Framework: true,
		Seed: 7, RunTimeout: 30 * time.Second,
		Checkpoint: func(s *core.Snapshot) { prev, last = last, s },
	})
	eng.Run()
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if err := st.SaveCampaign("hpl", eng.Snapshot()); err != nil {
		b.Fatal(err)
	}
	loaded, err := st.LoadCampaign("hpl")
	if err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(st.Dir(), "campaigns", "hpl.json"))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		snap func() *core.Snapshot
	}{
		{"engine", eng.Snapshot},
		{"loaded", func() *core.Snapshot { return loaded }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := st.SaveCampaign("hpl", bc.snap()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(fi.Size()), "file-bytes")
		})
	}
	journals := 0 // each op appends to a journal of its own
	b.Run("journal", func(b *testing.B) {
		b.ReportAllocs()
		var record int64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			journals++
			name := fmt.Sprintf("journal-%d", journals)
			if err := st.AppendCampaign(name, prev); err != nil {
				b.Fatal(err)
			}
			log := filepath.Join(st.Dir(), "campaigns", name+".log")
			before, err := os.Stat(log)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := st.AppendCampaign(name, last); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			after, err := os.Stat(log)
			if err != nil {
				b.Fatal(err)
			}
			record = after.Size() - before.Size()
			b.StartTimer()
		}
		b.ReportMetric(float64(record), "record-bytes")
	})
}

// BenchmarkSchedSpeedup measures the scheduler's parallel speedup on four
// identical skeleton campaigns: the serial case runs them on one worker,
// the parallel case on four. The ratio of the two is the machine's effective
// campaign-level parallelism.
func BenchmarkSchedSpeedup(b *testing.B) {
	specs := func() []sched.Spec {
		var out []sched.Spec
		for _, seed := range []int64{1, 2, 3, 4} {
			out = append(out, sched.Spec{Campaign: spec.Campaign{
				Target:     "skeleton",
				Seed:       seed,
				Iterations: 60,
				Reduction:  true,
				Framework:  true,
				RunTimeout: 5 * time.Second,
			}})
		}
		return out
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"j4", 4}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep := sched.Run(specs(), sched.Options{Workers: bc.workers})
				for _, c := range rep.Campaigns {
					if c.Err != nil {
						b.Fatal(c.Err)
					}
				}
			}
		})
	}
}
