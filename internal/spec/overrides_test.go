package spec_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/binstat"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/expr"
	"repro/internal/mpi"
	"repro/internal/solver"
	"repro/internal/spec"
	"repro/internal/target"
	_ "repro/internal/targets/skeleton"
)

type nullBackend struct{}

func (nullBackend) Launch(core.LaunchSpec) mpi.RunResult { return mpi.RunResult{} }
func (nullBackend) Close() error                         { return nil }

type nullSolver struct{}

func (nullSolver) SolveIncremental([]expr.Pred, map[expr.Var]int64, solver.Options) (solver.Result, bool) {
	return solver.Result{}, false
}
func (nullSolver) Stats() solver.Stats { return solver.Stats{} }

// TestPortableRefusalText pins the refusal error texts byte-for-byte: they
// are what `compi serve` prints when a shard cannot dispatch, and what the
// old fleet wire layer (SpecToWire) printed before the spec package existed.
// The field names use the "Config." spelling because every override maps
// onto the core.Config field of that name.
func TestPortableRefusalText(t *testing.T) {
	base := spec.Campaign{Target: "skeleton", Seed: 3}
	cases := []struct {
		field string
		set   func(*spec.Overrides)
	}{
		{"Config.NewStrategy", func(o *spec.Overrides) {
			o.NewStrategy = func(*target.Program, *coverage.Tracker) core.Strategy { return nil }
		}},
		{"Config.Backend", func(o *spec.Overrides) { o.Backend = nullBackend{} }},
		{"Config.Solver", func(o *spec.Overrides) { o.Solver = nullSolver{} }},
		{"Config.Trace", func(o *spec.Overrides) { o.Trace = func(core.IterationStat) {} }},
		{"Config.Checkpoint", func(o *spec.Overrides) { o.Checkpoint = func(*core.Snapshot) {} }},
		{"Config.ErrorLog", func(o *spec.Overrides) { o.ErrorLog = os.Stderr }},
		{"Config.Profiler", func(o *spec.Overrides) { o.Profiler = binstat.New() }},
	}
	for _, tc := range cases {
		var o spec.Overrides
		tc.set(&o)
		_, err := spec.Portable(base, o, "shard-1")
		want := `spec "shard-1" carries a live ` + tc.field + ` and cannot be dispatched`
		if err == nil || err.Error() != want {
			t.Errorf("%s: error = %v, want %q", tc.field, err, want)
		}
	}
}

func TestPortableResolvesProgramAndStampsVersion(t *testing.T) {
	prog, ok := target.Lookup("skeleton")
	if !ok {
		t.Fatal("skeleton not registered")
	}
	c, err := spec.Portable(spec.Campaign{Seed: 3}, spec.Overrides{Program: prog}, "x")
	if err != nil {
		t.Fatal(err)
	}
	if c.Target != "skeleton" {
		t.Fatalf("Program override resolved to target %q", c.Target)
	}
	if c.Version != spec.Version {
		t.Fatalf("portable campaign stamped version %d, want %d", c.Version, spec.Version)
	}

	ghost := &target.Program{Name: "not-registered"}
	_, err = spec.Portable(spec.Campaign{}, spec.Overrides{Program: ghost}, "x")
	if err == nil || !strings.Contains(err.Error(), `unregistered program "not-registered"`) {
		t.Fatalf("unregistered program: %v", err)
	}

	_, err = spec.Portable(spec.Campaign{}, spec.Overrides{}, "x")
	if err == nil || !strings.Contains(err.Error(), "names no target") {
		t.Fatalf("targetless campaign: %v", err)
	}
}

// TestOverridesApply checks live objects land on the config.
func TestOverridesApply(t *testing.T) {
	var cfg core.Config
	o := spec.Overrides{
		Trace:    func(core.IterationStat) {},
		ErrorLog: os.Stderr,
	}
	o.Apply(&cfg)
	if cfg.Trace == nil || cfg.ErrorLog != os.Stderr {
		t.Fatalf("Apply dropped fields: %+v", cfg)
	}
}
