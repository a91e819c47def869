package core

import (
	"testing"
	"time"

	"repro/internal/coverage"
	"repro/internal/target"
)

// TestNewStrategyFactoryPerEngine checks the factory path: each NewEngine
// call gets a fresh strategy built against its own live tracker, so running
// the same Config twice cannot share stateful strategy internals.
func TestNewStrategyFactoryPerEngine(t *testing.T) {
	built := 0
	cfg := Config{
		Program:    skeletonProg(t),
		Iterations: 5,
		Reduction:  true,
		Framework:  true,
		Seed:       1,
		RunTimeout: 5 * time.Second,
	}
	cfg.NewStrategy = func(prog *target.Program, cov *coverage.Tracker) Strategy {
		built++
		return NewCFG(prog, cov)
	}
	NewEngine(cfg).Run()
	NewEngine(cfg).Run()
	if built != 2 {
		t.Fatalf("factory built %d strategies for 2 engines", built)
	}
}

// TestConfigNotMutatedByEngine guards the scheduler's reuse of Config
// values: constructing and running an engine must leave the caller's Config
// untouched.
func TestConfigNotMutatedByEngine(t *testing.T) {
	cfg := Config{
		Program:    skeletonProg(t),
		Iterations: 3,
		Reduction:  true,
		Framework:  true,
		Seed:       1,
		RunTimeout: 5 * time.Second,
	}
	NewEngine(cfg).Run()
	if cfg.Iterations != 3 || cfg.Seed != 1 {
		t.Fatalf("engine mutated caller Config: %+v", cfg)
	}
}
