package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// benchmarkFile is the part of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles applies BENCHMARK.json's bounds to two result files, A the
// baseline and B the candidate, and prints one row per (workload, metric).
// A row is "unresolved" when either side's quartile spread, as a share of its
// median, is wider than the bound — unless every B run beats every A run —
// and otherwise "worse" or "better" when the medians differ by more than the
// bound, "within" when not. It exits 1 when any row is worse.
func compareFiles(benchPath string, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
		return 2
	}
	var bm benchmarkFile
	var a, b resultFile
	for _, f := range []struct {
		path string
		v    any
	}{{benchPath, &bm}, {args[0], &a}, {args[1], &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	fmt.Printf("A: %v\nB: %v\n\n", a.Context, b.Context)
	fmt.Printf("%-13s %-15s %14s %14s %8s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "change", "spread", "bound", "verdict")
	status := 0
	for _, w := range workloads {
		for _, m := range bm.EndToEnd {
			av, bv := column(a.Runs[w.name], m.Name), column(b.Runs[w.name], m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v := judge(av, bv, m.Better == "higher", m.Bound)
			if v.verdict == "worse" {
				status = 1
			}
			fmt.Printf("%-13s %-15s %14.6g %14.6g %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				w.name, m.Name, v.a, v.b, 100*v.change, 100*v.spread, 100*m.Bound, v.verdict)
		}
	}
	return status
}

type verdict struct {
	a, b, change, spread float64
	verdict              string
}

// judge compares one metric's runs. change is signed so that positive is
// worse.
func judge(av, bv []float64, higherBetter bool, bound float64) verdict {
	a1, am, a3 := quartiles(av)
	b1, bm, b3 := quartiles(bv)
	v := verdict{a: am, b: bm, change: ratio(bm-am, am),
		spread: max(ratio(a3-a1, am), ratio(b3-b1, bm))}
	allBetter := slices.Max(bv) < slices.Min(av)
	if higherBetter {
		v.change = -v.change
		allBetter = slices.Min(bv) > slices.Max(av)
	}
	switch {
	case v.spread > bound && !allBetter:
		v.verdict = "unresolved"
	case v.change > bound:
		v.verdict = "worse"
	case v.change < -bound:
		v.verdict = "better"
	default:
		v.verdict = "within"
	}
	return v
}
