// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI). Each driver returns a Table whose rows mirror what the
// paper reports; EXPERIMENTS.md records the paper-vs-measured comparison.
//
// The paper's wall-clock budgets (1.5 h / 3.5 h / 34 min) are scaled to
// laptop-size iteration budgets; the reproduction target is the *shape* of
// each result (who wins, by what rough factor, where crossovers fall), not
// absolute numbers measured on the authors' cluster.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/target"
	_ "repro/internal/targets/hpl"
	_ "repro/internal/targets/imb"
	_ "repro/internal/targets/skeleton"
	"repro/internal/targets/susy"
)

// Scale sets the iteration/repetition budgets. Full is the default for the
// CLI; Quick keeps the benchmark harness fast.
type Scale struct {
	Reps       int // repetitions per configuration (paper: 3 or 10)
	Iters      int // campaign iterations per repetition
	Fig4Iters  int // iterations per strategy in the Figure 4 comparison
	FixedRuns  int // fixed-input executions for Table IV (paper: 10)
	Fig6MaxN   int // largest matrix size in the Figure 6 sweep
	RunTimeout time.Duration
	// Budget caps each campaign's wall-clock time, the way the paper runs
	// its fixed-time-budget comparisons. Without it the non-reduction
	// variants can spend "tens of minutes to derive a set of inputs"
	// (§VI-D) — faithfully, but unhelpfully for a laptop run.
	Budget time.Duration
	// Workers bounds the campaign scheduler's concurrency for the drivers
	// that fan out through sched.Run (table3/table4/fig6/fig8); <= 0
	// selects GOMAXPROCS.
	Workers int

	// StateDir, when non-empty, attaches a campaign store (see
	// internal/store) to every driver that fans out through sched.Run: the
	// campaigns checkpoint as they go, a killed experiment run resumes
	// from its batch manifests instead of starting over, and fixed-budget
	// campaigns whose setups an earlier run already explored continue
	// from their snapshots.
	StateDir string
}

// storeCache keeps one open Store per directory, so every driver of an
// experiment run shares the same store lock.
var storeCache = map[string]*store.Store{}

// runBatch runs the fan-out drivers' campaigns through sched.Run under the
// scale's workers and store. A store that fails to open or to take a write
// panics: an experiment resumed from it could not be trusted.
func (s Scale) runBatch(specs []sched.Spec) *sched.Report {
	opt := sched.Options{Workers: s.Workers}
	if s.StateDir != "" {
		st, ok := storeCache[s.StateDir]
		if !ok {
			var err error
			if st, err = store.Open(s.StateDir); err != nil {
				panic("experiments: " + err.Error())
			}
			storeCache[s.StateDir] = st
		}
		opt.Store = st
	}
	rep := sched.Run(specs, opt)
	if rep.StoreErr != nil {
		panic("experiments: " + rep.StoreErr.Error())
	}
	return rep
}

// Full approximates the paper's budgets at laptop scale.
var Full = Scale{
	Reps: 3, Iters: 400, Fig4Iters: 400, FixedRuns: 10,
	Fig6MaxN: 1000, RunTimeout: 60 * time.Second, Budget: 60 * time.Second,
}

// Quick is for go test -bench and smoke runs.
var Quick = Scale{
	Reps: 2, Iters: 120, Fig4Iters: 120, FixedRuns: 3,
	Fig6MaxN: 400, RunTimeout: 30 * time.Second, Budget: 15 * time.Second,
}

// Table is a printable experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders t in the aligned plain-text form the CLI prints.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// CSV writes the table as comma-separated values (header + rows), the form
// the paper's figures are plotted from.
func (t *Table) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	if err := cw.WriteAll(t.Rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// program looks a target up or panics (experiment drivers are internal).
func program(name string) *target.Program {
	p, ok := target.Lookup(name)
	if !ok {
		panic("experiments: unknown program " + name)
	}
	return p
}

// perProgram holds the per-target tuning from §VI: the pure-DFS phase length
// and the explicit BoundedDFS depth bound (scaled down with the budgets).
type tuning struct {
	name     string
	dfsPhase int
	bound    int
	params   map[string]int64 // e.g. fixing the SUSY bugs for coverage campaigns
}

func tunings() []tuning {
	return []tuning{
		{name: "susy-hmc", dfsPhase: 30, bound: 120, params: susy.FixAll()},
		{name: "hpl", dfsPhase: 60, bound: 150},
		{name: "imb-mpi1", dfsPhase: 60, bound: 100},
	}
}

// campaignCfg assembles the standard campaign configuration for a tuning;
// the drivers either run it directly (campaign) or hand it to the parallel
// scheduler as part of a spec list.
func campaignCfg(tn tuning, s Scale, seed int64, mutate func(*core.Config)) core.Config {
	cfg := core.Config{
		Program:    program(tn.name),
		Iterations: s.Iters,
		TimeBudget: s.Budget,
		Reduction:  true,
		Framework:  true,
		Seed:       seed,
		DFSPhase:   tn.dfsPhase,
		DepthBound: tn.bound,
		RunTimeout: s.RunTimeout,
		Params:     tn.params,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

// campaignSpec is campaignCfg in sched.Spec form: the same standard tuning
// expressed as a data-only campaign for drivers that fan out through
// sched.Run.
func campaignSpec(label string, tn tuning, s Scale, seed int64, mutate func(*spec.Campaign)) sched.Spec {
	c := spec.Campaign{
		Label:      label,
		Target:     tn.name,
		Iterations: s.Iters,
		TimeBudget: s.Budget,
		Reduction:  true,
		Framework:  true,
		Seed:       seed,
		DFSPhase:   tn.dfsPhase,
		DepthBound: tn.bound,
		RunTimeout: s.RunTimeout,
		Params:     tn.params,
	}
	if mutate != nil {
		mutate(&c)
	}
	return sched.Spec{Campaign: c}
}

// campaign runs one COMPI campaign with the standard configuration.
func campaign(tn tuning, s Scale, seed int64, mutate func(*core.Config)) core.Result {
	return core.NewEngine(campaignCfg(tn, s, seed, mutate)).Run()
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// reachCache memoizes the per-program reachable-branch denominator: like the
// paper's Table III, one fixed estimate per program is used by every
// coverage-rate comparison, so weak variants (e.g. random testing) are not
// graded against a denominator shrunk to the little they reached.
var reachCache = map[string]int{}

func reachable(tn tuning, s Scale) int {
	if r, ok := reachCache[tn.name]; ok {
		return r
	}
	res := campaign(tn, s, 3, nil)
	r := program(tn.name).ReachableBranches(res.Coverage.Funcs())
	if r == 0 {
		r = program(tn.name).TotalBranches()
	}
	reachCache[tn.name] = r
	return r
}

// rateOf grades covered branches against the fixed denominator.
func rateOf(covered int, tn tuning, s Scale) float64 {
	return float64(covered) / float64(reachable(tn, s))
}

func avgMax(vals []float64) (avg, max float64) {
	for _, v := range vals {
		avg += v
		if v > max {
			max = v
		}
	}
	if len(vals) > 0 {
		avg /= float64(len(vals))
	}
	return avg, max
}
