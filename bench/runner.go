package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload  *workload
	seed      int64
	seconds   time.Duration
	trace     bool
	sc        scale
	targetBin string
	outDir    string
	exe       string                 // this benchmark's binary, which the set-up probes start
	golden    map[string]fingerprint // expected output per golden key
	collect   map[string]fingerprint // non-nil: record fingerprints instead of checking them
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runResult is a finished run: the printed result plus what produced it.
type runResult struct {
	out      result
	e2e      map[string]float64 // from the untraced units
	layer    map[string]float64 // from the traced units; nil without tracing
	checks   map[string]int
	problems []string
	units    int
	cycles   int
	setups   int
	iters    int
	tr       *tracer
}

// cycle is one walk over the seed pool: its untraced units' iterations, the
// time they took from first iteration to last campaign end, and their
// successive IterationStat.Elapsed deltas.
type cycle struct {
	iters  int
	wall   time.Duration
	deltas []time.Duration
}

// rotate is the pool order a seed selects: the same seed always walks the
// same units in the same order.
func rotate(pool []int64, seed int64) []int64 {
	k := int(uint64(seed) % uint64(len(pool)))
	return append(append([]int64(nil), pool[k:]...), pool[:k]...)
}

// newEnv creates the run's scratch directory for stores; cleanup removes it.
func newEnv(cfg runConfig) (*env, func(), error) {
	if cfg.workload.pipe {
		if _, err := os.Stat(cfg.targetBin); err != nil {
			return nil, nil, fmt.Errorf("%s needs the compi-target binary (-target-bin): %w", cfg.workload.name, err)
		}
	}
	tmp := filepath.Join(cfg.outDir, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, nil, err
	}
	return &env{sc: cfg.sc, targetBin: cfg.targetBin, tmp: tmp}, func() { os.RemoveAll(tmp) }, nil
}

// runWorkload measures one workload. It walks whole cycles over the seed pool
// — every unit untraced, and with tracing a traced twin right after it — and
// starts another cycle only if one more fits in cfg.seconds; set-up probes
// run at the start of the first cycles. Whole cycles keep every run's work
// identical whatever the seed.
func runWorkload(cfg runConfig) (*runResult, error) {
	w := cfg.workload
	e, cleanup, err := newEnv(cfg)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	order := rotate(w.pool, cfg.seed)

	r := &runResult{checks: map[string]int{}}
	if cfg.trace {
		r.tr = newTracer()
	}
	record := func(u unitResult) {
		r.out.Attempted += u.campaigns
		r.out.Failed += u.failed
		r.problems = append(r.problems, u.problems...)
		for k, v := range u.checks {
			r.checks[k] += v
		}
	}
	var covTimes []time.Duration
	var cycles []cycle

	// A full-scale run takes at least three cycles so that the per-cycle
	// median can outvote one cycle slowed by the machine, and spreads its
	// set-up probes over the first cycles for the same reason. The traced run
	// reports totals, not medians, and needs one cycle. It takes no probes:
	// set-up is an end-to-end metric, and probe processes would count in the
	// children's resource usage that proto.child_rss_mb reads.
	minCycles, probes := cfg.sc.cycles, cfg.sc.setups
	if cfg.trace || cfg.collect != nil {
		minCycles = 1
	}
	if cfg.trace {
		probes = 0
	}
	probesPerCycle := (probes + minCycles - 1) / minCycles
	var setups []time.Duration
	begin := time.Now()
	for {
		c0 := time.Now()
		for i := 0; i < probesPerCycle && r.setups < probes; i++ {
			r.setups++
			r.out.Attempted++
			seed := order[r.setups%len(order)]
			d, err := probeSetup(cfg, seed)
			if err != nil {
				r.out.Failed++
				r.problems = append(r.problems, fmt.Sprintf("set-up probe (seed %d): %v", seed, err))
				continue
			}
			setups = append(setups, d)
		}
		var c cycle
		for _, seed := range order {
			// A traced twin runs next to its untraced unit, first on every
			// other unit, so that drift in the machine's speed does not bias
			// trace_overhead_frac.
			var tu unitResult
			tracedFirst := r.tr != nil && r.units%2 == 1
			if tracedFirst {
				runtime.GC()
				tu = w.run(e, seed, r.tr, false)
			}
			runtime.GC()
			u := w.run(e, seed, nil, false)
			cfg.checkGolden(&u, seed)
			if r.tr != nil {
				if !tracedFirst {
					runtime.GC()
					tu = w.run(e, seed, r.tr, false)
				}
				tu.check("traced==untraced", tu.fp.equal(u.fp), "%s seed %d", w.name, seed)
				r.tr.pair(tu.setup+tu.iterWall, u.setup+u.iterWall)
				r.tr.replayExpr(cfg.sc.exprPreds)
				record(tu)
			}
			record(u)
			r.units++
			r.iters += u.iters
			c.iters += u.iters
			c.wall += u.iterWall
			c.deltas = append(c.deltas, u.deltas...)
			covTimes = append(covTimes, u.covTimes...)
		}
		cycles = append(cycles, c)
		if len(cycles) >= minCycles && time.Since(begin)+time.Since(c0) > cfg.seconds {
			break
		}
	}
	r.cycles = len(cycles)
	r.out.Failed = min(r.out.Failed, r.out.Attempted)
	r.out.Correct = r.out.Failed == 0 && r.out.Attempted > 0

	// Every cycle does the same work, so each timing is the median over the
	// run's cycles.
	var tput, p50, p99 []float64
	for _, c := range cycles {
		tput = append(tput, ratio(float64(c.iters), c.wall.Seconds()))
		p50 = append(p50, millis(percentile(c.deltas, 0.50)))
		p99 = append(p99, millis(percentile(c.deltas, 0.99)))
	}
	r.e2e = map[string]float64{
		"setup_s":     median(setups).Seconds(),
		"iters_per_s": medianOf(tput),
		"peak_rss_mb": peakRSSMiB(),
	}
	defs := endToEndMetrics
	values := r.e2e
	if r.tr != nil {
		// Three user-visible timings that repeat too poorly across runs to
		// carry a bound are reported with the layers, from the untraced
		// twins.
		r.layer = r.tr.metrics()
		r.layer["iter_p50_ms"] = medianOf(p50)
		r.layer["iter_p99_ms"] = medianOf(p99)
		r.layer["time_to_cov_s"] = median(covTimes).Seconds()
		defs, values = layerMetrics, r.layer
	}
	r.out.Metrics = map[string]metric{}
	for _, d := range defs {
		r.out.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return r, nil
}

// probeSetup measures set-up the way a user pays it. It starts a fresh
// benchmark process that runs one unit cut to one iteration per campaign; the
// sample runs from just before the process starts to the start of that
// unit's first iteration. It covers process start, package initialization
// (the target registry), and all the unit does before it iterates: engine
// construction, compi-target spawn and handshake, store open, solver-cache
// load, batch manifest, fleet listener and worker handshakes.
func probeSetup(cfg runConfig, seed int64) (time.Duration, error) {
	t0 := time.Now()
	cmd := exec.Command(cfg.exe, "-workload", cfg.workload.name, "-scale", cfg.sc.name,
		"-seed", strconv.FormatInt(seed, 10), "-target-bin", cfg.targetBin, "-out-dir", cfg.outDir,
		"-probe-start", strconv.FormatInt(t0.UnixNano(), 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
	return time.Duration(ns), err
}

// runProbe is a set-up probe's process: it runs one probe unit at campaign
// seed cfg.seed and prints the nanoseconds from start to the unit's first
// iteration.
func runProbe(cfg runConfig, start int64) int {
	e, cleanup, err := newEnv(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer cleanup()
	u := cfg.workload.run(e, cfg.seed, nil, true)
	if u.failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: set-up probe: %v\n", u.problems)
		return 1
	}
	fmt.Println(u.first.UnixNano() - start)
	return 0
}

// peakRSSMiB is this process's resident high-water mark (VmHWM).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// print writes the human-readable report that precedes the JSON line.
func (r *runResult) print(w io.Writer, cfg runConfig) {
	fmt.Fprintf(w, "workload %s  scale %s  seed %d  pool order %v\n",
		cfg.workload.name, cfg.sc.name, cfg.seed, rotate(cfg.workload.pool, cfg.seed))
	fmt.Fprintf(w, "cycles %d  units %d  iterations %d  set-up probes %d  attempted %d  failed %d\n",
		r.cycles, r.units, r.iters, r.setups, r.out.Attempted, r.out.Failed)
	names := make([]string, 0, len(r.checks))
	for k := range r.checks {
		names = append(names, k)
	}
	sort.Strings(names)
	var checks []string
	for _, k := range names {
		checks = append(checks, fmt.Sprintf("%s x%d", k, r.checks[k]))
	}
	fmt.Fprintf(w, "checks: %s\n", strings.Join(checks, ", "))
	for _, p := range r.problems {
		fmt.Fprintf(w, "FAILED: %s\n", p)
	}
	if r.tr == nil {
		fmt.Fprintln(w, "end-to-end (medians over cycles):")
		for _, d := range endToEndMetrics {
			fmt.Fprintf(w, "  %-24s %16.6f %s\n", d.name, r.e2e[d.name], d.unit)
		}
		return
	}
	fmt.Fprintln(w, "per layer (traced units):")
	for _, d := range layerMetrics {
		fmt.Fprintf(w, "  %-24s %16.6f %s\n", d.name, r.layer[d.name], d.unit)
	}
	r.tr.writeSelfTable(w)
}
