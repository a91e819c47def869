package main

import (
	"flag"

	"repro/internal/binstat"
	"repro/internal/sched"
	"repro/internal/spec"
)

// schedMode runs a grid of campaigns (every requested target × every seed,
// optionally sharded) concurrently through the parallel scheduler, with a
// merged per-target summary at the end.
type schedMode struct {
	fs     *flag.FlagSet
	binder *spec.FlagBinder

	workers  *int
	stateDir *string
	batchID  *string
	verbose  *bool
}

func newSchedMode() *schedMode {
	fs := newFlagSet("sched")
	m := &schedMode{fs: fs, binder: spec.Bind(fs, true, nil)}
	m.workers = fs.Int("j", 0, "concurrently running campaigns (0 = GOMAXPROCS)")
	m.stateDir = fs.String("state-dir", "", "campaign store directory: checkpoint campaigns, resume interrupted batches, reuse setups explored by prior batches")
	m.batchID = fs.String("batch", "", "batch manifest name in the store (default: derived from the spec list)")
	m.verbose = fs.Bool("v", false, "per-iteration trace")
	return m
}

func (m *schedMode) Name() string { return "sched" }
func (m *schedMode) Synopsis() string {
	return "run a campaign grid in-process through the parallel scheduler"
}
func (m *schedMode) Flags() *flag.FlagSet        { return m.fs }
func (m *schedMode) Excluded() map[string]string { return m.binder.Excluded() }

func (m *schedMode) Run(args []string) int {
	m.fs.Parse(args)
	cs, err := m.binder.Campaigns(fixParams())
	if err != nil {
		return usagef("%v", err)
	}

	opt := sched.Options{Workers: *m.workers, BatchID: *m.batchID}
	if m.binder.Profile() {
		opt.Profiler = binstat.New()
	}
	if *m.stateDir != "" {
		st, code := openStateDir(*m.stateDir)
		if st == nil {
			return code
		}
		defer st.Close()
		opt.Store = st
	}
	if *m.verbose {
		opt.Trace = labelTrace()
	}
	return summarize(sched.Run(toSpecs(cs), opt))
}
