// Command bench is the campaign benchmark. It runs fixed workloads through
// the repository's public APIs — core.NewEngine, proto.Start, sched.Run, and
// fleet.NewCoordinator with fleet.Work — checks every output against golden
// fingerprints and cross-checks, and prints the end-to-end metrics by name
// with their units. With -trace 1 it also runs a traced twin of every unit,
// wrapping the seams through which each layer is called, and prints the
// per-layer metrics instead. The last line of standard output is always one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh -workload susy-deep -seed 1 -seconds 12 -trace 0
//	bash bench/run.sh -workload stencil-wide -trace 1   # writes bench/out/trace-*.json
//	bash bench/run.sh -reps 3 -seed 1                   # all workloads, one process each
//	bash bench/run.sh -compare A.json B.json            # apply BENCHMARK.json bounds
//
// See bench/README.md for the workloads, the metrics, and how each layer
// metric maps onto an end-to-end one.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// runLimit bounds one single-workload process, which must exit within three
// minutes even if a campaign hangs; probeLimit bounds a set-up probe, so that
// a hung probe ends before the run that started it.
const (
	runLimit   = 170 * time.Second
	probeLimit = 60 * time.Second
)

func main() {
	var (
		name      = flag.String("workload", "all", "workload to run, or all (each in its own process)")
		seed      = flag.Int64("seed", 1, "workload seed: selects the order in which a run walks the seed pool")
		seconds   = flag.Float64("seconds", 20, "measuring time per run; whole pool cycles run until the next would not fit")
		traceOn   = flag.Int("trace", 0, "1 adds a traced twin of every unit and reports per-layer metrics")
		scaleName = flag.String("scale", "full", "full, or smoke (a few iterations per campaign)")
		reps      = flag.Int("reps", 3, "with -workload all: runs per workload, interleaved")
		outDir    = flag.String("out-dir", filepath.Join("bench", "out"), "directory for traces, result files and scratch stores")
		resultOut = flag.String("result", "", "with -workload all: result file (default <out-dir>/result-seed<N>.json)")
		targetBin = flag.String("target-bin", "", "compi-target binary for stencil-pipe")
		compare   = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		benchFile = flag.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds -compare applies")
		goldenOut = flag.String("update-golden", "", "record the workloads' fingerprints into this golden file instead of checking them")
		probe     = flag.Int64("probe-start", 0, "internal: run one set-up probe at campaign seed -seed, timed from this Unix time in ns")
	)
	flag.Parse()

	if *compare {
		os.Exit(compareFiles(*benchFile, flag.Args()))
	}
	sc, ok := scales[*scaleName]
	if !ok || (*traceOn != 0 && *traceOn != 1) || *seconds < 0 || *reps < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments (see -h)")
		os.Exit(2)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	cfg := runConfig{
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *traceOn == 1,
		sc: sc, targetBin: *targetBin, outDir: *outDir, exe: exe,
	}
	switch {
	case *goldenOut != "":
		os.Exit(updateGolden(cfg, *name, *goldenOut))
	case *name == "all":
		os.Exit(runAll(cfg, *reps, *resultOut))
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cfg.workload = w
	if *probe != 0 {
		exitAfter(probeLimit, "set-up probe of "+w.name)
		os.Exit(runProbe(cfg, *probe))
	}
	exitAfter(runLimit, w.name)
	os.Exit(runOne(cfg))
}

// exitAfter ends the process, without a result, if it still runs after d.
func exitAfter(d time.Duration, what string) {
	time.AfterFunc(d, func() {
		fmt.Fprintf(os.Stderr, "bench: %s did not finish within %s\n", what, d)
		os.Exit(3)
	})
}

// runOne runs one workload in this process and prints its result.
func runOne(cfg runConfig) int {
	g, err := loadGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cfg.golden = g
	r, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	r.print(out, cfg)
	if r.tr != nil {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload.name, cfg.seed))
		if err := r.tr.writeChrome(path, cfg.workload.name); err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing trace:", err)
			return 2
		}
		fmt.Fprintf(out, "trace: %s\n", path)
	}
	line, err := json.Marshal(r.out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(out, "%s\n", line)
	if !r.out.Correct {
		return 1
	}
	return 0
}

// updateGolden runs each named workload (or all) for one cycle and records
// its fingerprints.
func updateGolden(cfg runConfig, name, path string) int {
	ws := workloads
	if name != "all" {
		w, ok := lookupWorkload(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
			return 2
		}
		ws = []*workload{w}
	}
	cfg.collect = map[string]fingerprint{}
	cfg.seconds, cfg.trace = 0, false
	for _, w := range ws {
		cfg.workload = w
		r, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if !r.out.Correct {
			fmt.Fprintf(os.Stderr, "bench: %s failed, golden file left unchanged: %v\n", w.name, r.problems)
			return 1
		}
	}
	if err := writeGolden(path, cfg.collect); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("recorded %d fingerprints into %s\n", len(cfg.collect), path)
	return 0
}

// resultFile is what -workload all writes and -compare reads: every run's
// metric values per workload, with the machine context they were taken in.
type resultFile struct {
	Context   map[string]any                  `json:"context"`
	Units     map[string]string               `json:"units"`
	Runs      map[string][]map[string]float64 `json:"runs"`
	Attempted int                             `json:"attempted"`
	Failed    int                             `json:"failed"`
}

// runAll runs every workload reps times, interleaved, each run in a fresh
// process so that heap and GC state do not carry from one workload to the
// next, and writes the result file.
func runAll(cfg runConfig, reps int, path string) int {
	if path == "" {
		path = filepath.Join(cfg.outDir, fmt.Sprintf("result-seed%d.json", cfg.seed))
	}
	rf := resultFile{
		Context: machineContext(cfg, reps),
		Units:   map[string]string{},
		Runs:    map[string][]map[string]float64{},
	}
	status := 0
	for rep := 1; rep <= reps; rep++ {
		for _, w := range workloads {
			cmd := exec.Command(cfg.exe, "-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds.Seconds(), 'f', -1, 64),
				"-trace", map[bool]string{false: "0", true: "1"}[cfg.trace], "-scale", cfg.sc.name,
				"-target-bin", cfg.targetBin, "-out-dir", cfg.outDir)
			cmd.Stderr = os.Stderr
			out, runErr := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s printed no result (%v)\n", w.name, runErr)
				status = 1
				continue
			}
			if runErr != nil || !res.Correct {
				fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
				status = 1
			}
			vals := map[string]float64{}
			var brief []string
			for _, d := range slices.Concat(endToEndMetrics, layerMetrics) {
				if m, ok := res.Metrics[d.name]; ok {
					vals[d.name] = m.Value
					rf.Units[d.name] = m.Unit
					if len(brief) < len(endToEndMetrics) {
						brief = append(brief, fmt.Sprintf("%s=%.4g", d.name, m.Value))
					}
				}
			}
			rf.Runs[w.name] = append(rf.Runs[w.name], vals)
			rf.Attempted += res.Attempted
			rf.Failed += res.Failed
			fmt.Printf("rep %d %-13s correct=%v failed=%d/%d %s\n", rep, w.name, res.Correct, res.Failed, res.Attempted, strings.Join(brief, " "))
		}
	}
	printSummary(rf)
	raw, err := json.MarshalIndent(rf, "", "  ")
	if err == nil {
		err = os.MkdirAll(filepath.Dir(path), 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, append(raw, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: writing result file:", err)
		return 2
	}
	fmt.Printf("result file: %s (failed %d of %d campaigns)\n", path, rf.Failed, rf.Attempted)
	return status
}

// printSummary prints each workload's median and quartiles per metric.
func printSummary(rf resultFile) {
	for _, w := range workloads {
		runs := rf.Runs[w.name]
		if len(runs) == 0 {
			continue
		}
		fmt.Printf("\n%s (%d runs): median [q1, q3]\n", w.name, len(runs))
		for _, d := range slices.Concat(endToEndMetrics, layerMetrics) {
			vals := column(runs, d.name)
			if len(vals) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(vals)
			fmt.Printf("  %-24s %14.6g [%.6g, %.6g] %s\n", d.name, q2, q1, q3, d.unit)
		}
	}
}

// column is one metric's value across runs.
func column(runs []map[string]float64, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// machineContext records what a result was measured on, so results from
// different machines or settings are never compared as equals.
func machineContext(cfg runConfig, reps int) map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"cpu_model":  cpu,
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
		"seed":       cfg.seed,
		"reps":       reps,
		"seconds":    cfg.seconds.Seconds(),
		"scale":      cfg.sc.name,
		"trace":      cfg.trace,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}
