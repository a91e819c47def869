package core

import (
	"reflect"
	"testing"

	"repro/internal/binstat"
	"repro/internal/targets/stencil"
)

// TestProfilingDeterminism is the measurement-never-perturbs pin at the core
// layer: on two targets, a profiled campaign's trajectory (coverage set,
// per-iteration stats, errors, restarts, solver calls) is byte-identical to
// the unprofiled one. The profiler only reads clocks and bumps counters; if
// it ever leaks into exploration — reordering, seeding, caching — this
// catches it.
func TestProfilingDeterminism(t *testing.T) {
	for _, name := range []string{"skeleton", "stencil"} {
		t.Run(name, func(t *testing.T) {
			cfg := Config{
				Program:    prog(t, name),
				Iterations: 40,
				Reduction:  true,
				DFSPhase:   6,
				Seed:       23,
			}
			if name == "stencil" {
				// The seeded stencil bugs die mid-run with interleaving-
				// dependent trace volumes; fix them so the run-to-run
				// baseline itself is deterministic and the comparison
				// isolates the profiler.
				cfg.Params = stencil.FixAll()
			}
			plain := projectTrajectory(runCampaign(t, cfg))

			profiled := cfg
			profiled.Profiler = binstat.New()
			got := runCampaign(t, profiled)

			if !reflect.DeepEqual(plain, projectTrajectory(got)) {
				t.Fatal("profiled campaign trajectory diverged from unprofiled")
			}
			if got.Profile == nil {
				t.Fatal("profiled campaign returned no Profile")
			}
		})
	}
}

// TestProfileBins checks the report actually carries the per-iteration phase
// taxonomy with sane counts: one execute span per iteration, solver bins
// from the engine's private service on the shared profiler, snapshot spans
// when checkpointing.
func TestProfileBins(t *testing.T) {
	p := binstat.New()
	checkpoints := 0
	res := runCampaign(t, Config{
		Iterations: 30,
		Reduction:  true,
		DFSPhase:   6,
		Seed:       23,
		Profiler:   p,
		Checkpoint: func(*Snapshot) { checkpoints++ },
	})

	exe, ok := res.Profile.Get("execute")
	if !ok || exe.Count != int64(len(res.Iterations)) {
		t.Fatalf("execute bin: %+v (want count %d)", exe, len(res.Iterations))
	}
	if exe.Nanos <= 0 {
		t.Fatalf("execute bin accumulated no time: %+v", exe)
	}
	tc, ok := res.Profile.Get("trace-collect")
	if !ok || tc.Count != int64(len(res.Iterations)) {
		t.Fatalf("trace-collect bin: %+v", tc)
	}
	solve, ok := res.Profile.Get("solve")
	if !ok || solve.Count == 0 {
		t.Fatalf("solve bin: %+v", solve)
	}
	live, ok := res.Profile.Get("solver.live")
	if !ok || live.Count != solve.Count {
		t.Fatalf("solver.live bin %+v does not match solve bin %+v", live, solve)
	}
	snap, ok := res.Profile.Get("snapshot")
	if !ok || snap.Count != int64(checkpoints) {
		t.Fatalf("snapshot bin %+v, want count %d", snap, checkpoints)
	}
	if _, ok := res.Profile.Get("negate"); !ok {
		t.Fatal("negate bin missing")
	}
	if _, ok := res.Profile.Get("constraint-build"); !ok {
		t.Fatal("constraint-build bin missing")
	}

	// Unprofiled campaigns report nil.
	res = runCampaign(t, Config{Iterations: 3, Reduction: true, Seed: 23})
	if res.Profile != nil {
		t.Fatalf("unprofiled campaign produced a Profile: %v", res.Profile)
	}
}
