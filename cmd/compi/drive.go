package main

import (
	"flag"
	"os"

	"repro/internal/binstat"
	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/target"
)

// driveMode runs a campaign against an out-of-process target binary spoken
// to over the pipe protocol. The program model comes from the target's
// handshake manifest, or from a `compi targets --json` style manifest file
// given with -manifest (cross-checked against the handshake). Arguments
// after "--" are passed to the target binary.
type driveMode struct {
	fs     *flag.FlagSet
	binder *spec.FlagBinder

	bin      *string
	manifest *string
	name     *string
	workers  *int
	stateDir *string
	verbose  *bool
	errlog   *string
}

func newDriveMode() *driveMode {
	fs := newFlagSet("drive")
	m := &driveMode{
		fs: fs,
		binder: spec.Bind(fs, false, map[string]string{
			"target": "the program comes from the target's handshake manifest; drive's own -target selects from a -manifest file",
		}),
	}
	m.bin = fs.String("bin", "", "target binary speaking the pipe protocol (required)")
	m.manifest = fs.String("manifest", "", "load the program model from this manifest file instead of the handshake")
	m.name = fs.String("target", "", "program to select from a multi-program manifest file")
	m.workers = fs.Int("j", 0, "concurrently running shards (0 = GOMAXPROCS)")
	m.stateDir = fs.String("state-dir", "", "campaign store directory: checkpoint the campaign, resume or reuse prior explorations")
	m.verbose = fs.Bool("v", false, "per-iteration trace")
	m.errlog = fs.String("errlog", "", "append error-inducing inputs as JSON lines to this file")
	return m
}

func (m *driveMode) Name() string { return "drive" }
func (m *driveMode) Synopsis() string {
	return "drive an out-of-process target binary over the pipe protocol"
}
func (m *driveMode) Flags() *flag.FlagSet { return m.fs }

// Excluded: the binder skips -target (the program comes from the handshake
// manifest), but drive re-binds the name with its own meaning — selecting a
// program from a -manifest file — so the flag is bound, not missing.
func (m *driveMode) Excluded() map[string]string {
	ex := map[string]string{}
	for name, reason := range m.binder.Excluded() {
		if name == "target" {
			continue // re-bound above with drive-specific meaning
		}
		ex[name] = reason
	}
	return ex
}

func (m *driveMode) Run(args []string) int {
	var rest []string
	for i, a := range args {
		if a == "--" {
			rest = args[i+1:]
			args = args[:i]
			break
		}
	}
	m.fs.Parse(args)
	if *m.bin == "" {
		return usagef("compi drive: -bin is required")
	}

	drv, err := proto.Start(*m.bin, proto.Options{Args: rest})
	if err != nil {
		return fatalf("compi drive: %v", err)
	}
	defer drv.Close()

	man := drv.Manifest()
	if *m.manifest != "" {
		f, err := os.Open(*m.manifest)
		if err != nil {
			return fatalf("compi drive: %v", err)
		}
		ms, err := target.ReadManifests(f)
		f.Close()
		if err != nil {
			return fatalf("compi drive: %s: %v", *m.manifest, err)
		}
		want := *m.name
		if want == "" {
			want = man.Program
		}
		idx := -1
		for i := range ms {
			if ms[i].Program == want {
				idx = i
				break
			}
		}
		if idx < 0 {
			return fatalf("compi drive: manifest file %s has no program %q", *m.manifest, want)
		}
		if ms[idx].Program != man.Program {
			return fatalf("compi drive: manifest file describes %q but the target serves %q",
				ms[idx].Program, man.Program)
		}
		man = ms[idx]
	}
	prog, err := target.FromManifest(man)
	if err != nil {
		return fatalf("compi drive: %v", err)
	}

	c := m.binder.BaseCampaign(fixParams())
	var errFile *os.File
	if *m.errlog != "" {
		errFile, err = os.OpenFile(*m.errlog, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return fatalf("opening %s: %v", *m.errlog, err)
		}
		defer errFile.Close()
	}

	if shard := m.binder.ShardCount(); shard > 1 || *m.stateDir != "" {
		// Sharded (or store-backed) drive: the handshake driver only supplied
		// the program model; the scheduler starts one fresh target process
		// per shard, wires every shard into its shared solver service, and —
		// with a store attached — checkpoints and resumes each campaign.
		if err := drv.Close(); err != nil {
			return fatalf("compi drive: %v", err)
		}
		c.Label = prog.Name + "/drive"
		c.External = &spec.External{Bin: *m.bin, Args: rest}
		base := sched.Spec{Campaign: c, Overrides: spec.Overrides{Program: prog}}
		if errFile != nil {
			base.Overrides.ErrorLog = errFile
		}
		opt := sched.Options{Workers: *m.workers}
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
		return summarize(sched.Run(sched.Shard(base, shard), opt))
	}

	cfg, err := c.EngineConfig()
	if err != nil {
		return usagef("%v", err)
	}
	cfg.Program = prog
	cfg.Backend = drv
	if errFile != nil {
		cfg.ErrorLog = errFile
	}
	if *m.verbose {
		cfg.Trace = iterTrace()
	}
	if m.binder.Profile() {
		cfg.Profiler = binstat.New()
	}

	res := core.NewEngine(cfg).Run()
	printResult(prog, res)
	if err := drv.Close(); err != nil {
		return fatalf("compi drive: %v", err)
	}
	return 0
}
