// Command compi runs COMPI testing campaigns against the bundled target
// programs. It is a registry of modes, each a thin shell around one library
// entry point; every campaign-shaping flag is defined once (internal/spec's
// FlagBinder) and shared by all campaign modes.
//
// Usage:
//
//	compi -target hpl -iters 500            # default mode: one campaign
//	compi run -target susy-hmc -bugs        # same mode, spelled out
//	compi -target imb-mpi1 -strategy random-branch
//	compi -list
//	compi targets                           # declaration summary per target
//	compi targets --json                    # full static manifests
//	compi sched -j 8 -seeds 1,2,3,4         # parallel campaign grid
//	compi sched -targets hpl -shard 8 -j 8  # one campaign split into 8 shards
//	compi drive -bin ./compi-target -- -target stencil
//	                                        # drive an out-of-process target
//	compi serve -state-dir ./state -listen 127.0.0.1:7045
//	                                        # coordinator: lease shards
//	compi work -connect 127.0.0.1:7045 -j 4 # worker: run leased shards
//	compi store compact -dir ./state        # drop superseded snapshots
//	compi report -dir ./state -error dead   # which setups hit a deadlock?
//	compi replay -spec failure.json         # re-execute a recorded failure
//	compi help                              # mode listing
package main

import (
	"fmt"
	"os"
	"strings"
)

// modes is the registry: every subcommand, in the order `compi help` lists
// them. Each call constructs fresh modes (and fresh FlagSets), so a mode can
// be parsed at most once per construction.
func modes() []Mode {
	return []Mode{
		newRunMode(),
		newTargetsMode(),
		newDriveMode(),
		newSchedMode(),
		newServeMode(),
		newWorkMode(),
		newStoreMode(),
		newReportMode(),
		newReplayMode(),
		newHelpMode(),
	}
}

// usageText renders the top-level usage from the registry, so the listing
// can never drift from what dispatch actually accepts.
func usageText() string {
	var b strings.Builder
	b.WriteString("usage: compi [mode] [flags]\n\nmodes:\n")
	for _, m := range modes() {
		fmt.Fprintf(&b, "  %-8s %s\n", m.Name(), m.Synopsis())
	}
	b.WriteString("\nBare flags select the default run mode; `compi <mode> -h` lists a mode's flags.\n")
	return b.String()
}

func main() {
	args := os.Args[1:]
	// Bare flags (or nothing) select the default campaign mode, preserving
	// the original single-command interface.
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		os.Exit(newRunMode().Run(args))
	}
	for _, m := range modes() {
		if m.Name() == args[0] {
			os.Exit(m.Run(args[1:]))
		}
	}
	fmt.Fprintf(os.Stderr, "compi: unknown mode %q\n\n%s", args[0], usageText())
	os.Exit(2)
}
