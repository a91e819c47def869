package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildBinary builds pkg into dir and returns the binary's path.
func buildBinary(t *testing.T, dir, name, pkg string) string {
	t.Helper()
	out := filepath.Join(dir, name)
	if msg, err := exec.Command("go", "build", "-o", out, pkg).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, msg)
	}
	return out
}

// TestSmoke runs every workload at smoke scale, untraced and traced. Every
// metric BENCHMARK.json names must be emitted and every output check must
// run; how long anything took is never asserted.
func TestSmoke(t *testing.T) {
	bin := t.TempDir()
	exe := buildBinary(t, bin, "bench", ".")
	targetBin := buildBinary(t, bin, "compi-target", "repro/cmd/compi-target")
	var bm struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bm.Workloads), len(workloads))
	}
	for _, bw := range bm.Workloads {
		if _, ok := lookupWorkload(bw.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload", bw.Name)
		}
	}
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}

	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			run := func(trace bool) (*runResult, runConfig) {
				t.Helper()
				cfg := runConfig{
					workload: w, seed: 1, trace: trace, sc: scales["smoke"],
					targetBin: targetBin, outDir: t.TempDir(), exe: exe, golden: golden,
				}
				r, err := runWorkload(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !r.out.Correct {
					t.Fatalf("trace=%v: %d of %d failed: %v", trace, r.out.Failed, r.out.Attempted, r.problems)
				}
				return r, cfg
			}

			plain, _ := run(false)
			if plain.setups != scales["smoke"].setups {
				t.Errorf("%d set-up probes ran, want %d", plain.setups, scales["smoke"].setups)
			}
			for _, m := range bm.EndToEnd {
				if _, ok := plain.out.Metrics[m.Name]; !ok {
					t.Errorf("end-to-end metric %s not emitted", m.Name)
				}
			}
			traced, cfg := run(true)
			for _, m := range bm.PerLayer {
				if _, ok := traced.out.Metrics[m.Name]; !ok {
					t.Errorf("per-layer metric %s not emitted", m.Name)
				}
			}

			want := []string{"golden:" + w.golden}
			switch w.kind {
			case kindSched:
				want = append(want, "deadlocks", "reuse==batch", "index-query")
			case kindFleet:
				want = append(want, "deadlocks")
			}
			for _, c := range want {
				if plain.checks[c] == 0 {
					t.Errorf("check %s never ran (ran: %v)", c, plain.checks)
				}
			}
			if traced.checks["traced==untraced"] == 0 {
				t.Errorf("the traced run never compared a traced unit with its twin")
			}

			path := filepath.Join(cfg.outDir, "trace.json")
			if err := traced.tr.writeChrome(path, w.name); err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []struct{ Ph string } `json:"traceEvents"`
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &trace); err != nil || len(trace.TraceEvents) < 2 {
				t.Errorf("trace file: %d events, %v", len(trace.TraceEvents), err)
			}
		})
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(data, n=4), which judges the benchmark's spreads.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name   string
		b      []float64
		higher bool
		want   string
	}{
		{"within", []float64{102, 101, 103, 102, 102}, false, "within"},
		{"slower", []float64{130, 131, 129, 130, 130}, false, "worse"},
		{"faster", []float64{70, 71, 69, 70, 70}, false, "better"},
		{"throughput drop", []float64{70, 71, 69, 70, 70}, true, "worse"},
		{"noisy", []float64{60, 140, 100, 60, 140}, false, "unresolved"},
		{"noisy but every run faster", []float64{50, 90, 70, 50, 90}, false, "better"},
	} {
		if got := judge(base, tc.b, tc.higher, 0.1).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}
