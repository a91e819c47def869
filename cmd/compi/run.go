package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/binstat"
	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/target"
)

// runMode is the default mode: one in-process campaign against a registered
// target, plus the -replay and -state conveniences.
type runMode struct {
	fs     *flag.FlagSet
	binder *spec.FlagBinder

	verbose *bool
	list    *bool
	replay  *string
	state   *string
	errlog  *string
}

func newRunMode() *runMode {
	fs := newFlagSet("run")
	m := &runMode{
		fs: fs,
		binder: spec.Bind(fs, false, map[string]string{
			"shard": "one engine runs one campaign; use `compi sched -shard` or `compi drive -shard`",
		}),
	}
	m.verbose = fs.Bool("v", false, "per-iteration trace")
	m.list = fs.Bool("list", false, "list targets")
	m.replay = fs.String("replay", "", `replay one input set, e.g. "x=100,y=50" (skips the campaign)`)
	m.state = fs.String("state", "", "campaign state file: loaded if present, saved after the run")
	m.errlog = fs.String("errlog", "", "append error-inducing inputs as JSON lines to this file")
	return m
}

func (m *runMode) Name() string                { return "run" }
func (m *runMode) Synopsis() string            { return "run one testing campaign in-process (the default mode)" }
func (m *runMode) Flags() *flag.FlagSet        { return m.fs }
func (m *runMode) Excluded() map[string]string { return m.binder.Excluded() }

func (m *runMode) Run(args []string) int {
	m.fs.Parse(args)
	if *m.list {
		fmt.Println(strings.Join(target.Names(), "\n"))
		return 0
	}
	c, err := m.binder.Campaign(fixParams())
	if err != nil {
		return usagef("%v", err)
	}
	prog, _ := target.Lookup(c.Target) // Validate pinned the registry hit

	if *m.replay != "" {
		rec := core.ErrorRecord{NProcs: c.InitialProcs, Focus: 0,
			Inputs: map[string]int64{}, Params: c.Params}
		for _, kv := range strings.Split(*m.replay, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return usagef("bad -replay entry %q", kv)
			}
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return usagef("bad -replay value %q: %v", kv, err)
			}
			rec.Inputs[k] = n
		}
		// Round-trip through the canonical replay campaign, the same shape
		// `compi replay -spec` consumes.
		return replayCampaign(prog, spec.FromErrorRecord(c.Target, rec), c.RunTimeout)
	}

	cfg, err := c.EngineConfig()
	if err != nil {
		return usagef("%v", err)
	}
	cfg.Program = prog
	if m.binder.Profile() {
		cfg.Profiler = binstat.New()
	}
	if *m.errlog != "" {
		f, err := os.OpenFile(*m.errlog, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return fatalf("opening %s: %v", *m.errlog, err)
		}
		defer f.Close()
		cfg.ErrorLog = f
	}
	if *m.verbose {
		cfg.Trace = iterTrace()
	}

	eng := core.NewEngine(cfg)
	if *m.state != "" {
		if f, err := os.Open(*m.state); err == nil {
			snap, err := core.LoadSnapshot(f)
			f.Close()
			if err != nil {
				return fatalf("loading %s: %v", *m.state, err)
			}
			// Restore validates the snapshot against the program (schema
			// version, branch bits, input names) and says what is wrong.
			if err := eng.Restore(snap); err != nil {
				return fatalf("loading %s: %v", *m.state, err)
			}
			fmt.Printf("resumed campaign: %d iterations done, %d branches already covered\n",
				snap.Iters, eng.Coverage().Count())
		}
	}

	res := eng.Run()

	if *m.state != "" {
		if err := store.WriteAtomic(*m.state, eng.Snapshot().Save); err != nil {
			return fatalf("saving %s: %v", *m.state, err)
		}
	}

	printResult(prog, res)
	return 0
}
