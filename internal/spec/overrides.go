package spec

import (
	"fmt"
	"io"

	"repro/internal/binstat"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/target"
)

// Overrides carries the live, in-process objects a campaign may run with
// but can never serialize: they are what keeps a sched.Spec strictly richer
// than a wire- or store-able Campaign. Every field maps onto the
// core.Config field of the same name; Portable names fields with the
// "Config." prefix for that reason.
type Overrides struct {
	// Program overrides registry lookup with a literal program model (e.g.
	// one built from a manifest file).
	Program *target.Program

	// NewStrategy overrides the campaign's named strategy with a live
	// factory; each engine builds its own strategy (strategies are
	// stateful).
	NewStrategy func(prog *target.Program, cov *coverage.Tracker) core.Strategy

	// Backend executes iterations out of process; it carries session state
	// and is owned by exactly one engine.
	Backend core.Backend

	// Solver answers constraint-solving requests (shareable across
	// engines, unlike the rest).
	Solver core.SolverService

	// Trace, ErrorLog, Profiler, Checkpoint observe the campaign live.
	Trace      func(it core.IterationStat)
	ErrorLog   io.Writer
	Profiler   *binstat.Profiler
	Checkpoint func(*core.Snapshot)
}

// Live returns the name of the first live object the overrides carry that
// cannot cross a process boundary, and whether one is present. The names
// are the core.Config fields the overrides map onto — the exact spelling
// the fleet's dispatch errors have always used.
func (o Overrides) Live() (string, bool) {
	for _, live := range []struct {
		field   string
		present bool
	}{
		{"Config.NewStrategy", o.NewStrategy != nil},
		{"Config.Backend", o.Backend != nil},
		{"Config.Solver", o.Solver != nil},
		{"Config.Trace", o.Trace != nil},
		{"Config.Checkpoint", o.Checkpoint != nil},
		{"Config.ErrorLog", o.ErrorLog != nil},
		{"Config.Profiler", o.Profiler != nil},
	} {
		if live.present {
			return live.field, true
		}
	}
	return "", false
}

// Apply lays the overrides onto an engine config built from the campaign's
// data (Campaign.EngineConfig).
func (o Overrides) Apply(cfg *core.Config) {
	if o.Program != nil {
		cfg.Program = o.Program
	}
	if o.NewStrategy != nil {
		cfg.NewStrategy = o.NewStrategy
	}
	if o.Backend != nil {
		cfg.Backend = o.Backend
	}
	if o.Solver != nil {
		cfg.Solver = o.Solver
	}
	if o.Trace != nil {
		cfg.Trace = o.Trace
	}
	if o.ErrorLog != nil {
		cfg.ErrorLog = o.ErrorLog
	}
	if o.Profiler != nil {
		cfg.Profiler = o.Profiler
	}
	if o.Checkpoint != nil {
		cfg.Checkpoint = o.Checkpoint
	}
}

// Portable returns the data-only campaign a (campaign, overrides) pair may
// ship as — to a fleet lease or a store manifest. Campaigns carrying live
// objects are refused with an error naming the field; a Program override
// dispatches by registry name (the receiving process runs the same binary,
// so the registry resolves the identical program). The label parameter is
// the spec's display label, used in error text.
func Portable(c Campaign, o Overrides, label string) (Campaign, error) {
	if field, live := o.Live(); live {
		return Campaign{}, fmt.Errorf("spec %q carries a live %s and cannot be dispatched", label, field)
	}
	if o.Program != nil {
		if _, ok := target.Lookup(o.Program.Name); !ok {
			return Campaign{}, fmt.Errorf("spec %q uses unregistered program %q and cannot be dispatched",
				label, o.Program.Name)
		}
		c.Target = o.Program.Name
	}
	if c.Target == "" && c.External == nil {
		return Campaign{}, fmt.Errorf("spec %q names no target", label)
	}
	c.Version = Version
	return c, nil
}
