package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/target"
	_ "repro/internal/targets/hpl"
	_ "repro/internal/targets/imb"
	_ "repro/internal/targets/mworder"
	_ "repro/internal/targets/relay"
	_ "repro/internal/targets/skeleton"
	"repro/internal/targets/stencil"
	"repro/internal/targets/susy"
)

// Mode is one compi subcommand. Run parses args against Flags() and returns
// the process exit code; Flags() carries the mode's full flag set (its
// FlagSet is named "compi <mode>", so -h usage names the mode).
type Mode interface {
	Name() string
	Synopsis() string
	Flags() *flag.FlagSet
	Run(args []string) int
}

// campaignMode is the extra contract of modes that shape campaigns: every
// flag in spec.CampaignFlagNames must be either bound on the mode's FlagSet
// or excluded here with a reason. The registry test walks this.
type campaignMode interface {
	Mode
	Excluded() map[string]string
}

// newFlagSet names a mode's FlagSet "compi <mode>" so its -h usage mentions
// the mode. flag.ExitOnError exits 0 on -h (flag.ErrHelp) and 2 on a bad
// flag, matching the CLI's historical behaviour.
func newFlagSet(mode string) *flag.FlagSet {
	return flag.NewFlagSet("compi "+mode, flag.ExitOnError)
}

// fixParams is the seeded-bug fix parameter bag campaign modes apply unless
// -bugs asks to leave the bugs live.
func fixParams() map[string]int64 {
	return core.MergeParams(susy.FixAll(), stencil.FixAll())
}

// fatalf prints an error and returns exit code 1 (runtime failure).
func fatalf(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	return 1
}

// usagef prints an error and returns exit code 2 (usage error).
func usagef(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	return 2
}

// toSpecs lifts data-only campaigns into scheduler specs (no overrides).
func toSpecs(cs []spec.Campaign) []sched.Spec {
	specs := make([]sched.Spec, len(cs))
	for i, c := range cs {
		specs[i] = sched.Spec{Campaign: c}
	}
	return specs
}

// openStateDir opens (creating if needed) the campaign store behind a
// -state-dir flag. When the store is unusable (e.g. written by a newer
// schema) it prints the store's explanation and returns nil and exit code 1.
func openStateDir(dir string) (*store.Store, int) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, fatalf("compi: %v", err)
	}
	return st, 0
}

// summarize prints a batch report's summary and returns the batch modes'
// exit code: 1 when a store write failed (the summary names it), else 0.
func summarize(rep *sched.Report) int {
	rep.WriteSummary(os.Stdout)
	if rep.StoreErr != nil {
		return 1
	}
	return 0
}

// iterTrace is the -v per-iteration line of the single-engine modes.
func iterTrace() func(core.IterationStat) {
	return func(it core.IterationStat) {
		fmt.Printf("iter %4d  np=%-2d focus=%-2d covered=%-5d set=%-5d %s\n",
			it.Iter, it.NProcs, it.Focus, it.Covered, it.PathLen,
			map[bool]string{true: "FAILED", false: ""}[it.Failed])
	}
}

// labelTrace is the -v per-iteration line of the batch modes, tagged with
// the campaign label.
func labelTrace() func(string, core.IterationStat) {
	return func(label string, it core.IterationStat) {
		fmt.Printf("%-24s iter %4d  np=%-2d focus=%-2d covered=%-5d %s\n",
			label, it.Iter, it.NProcs, it.Focus, it.Covered,
			map[bool]string{true: "FAILED", false: ""}[it.Failed])
	}
}

// printResult writes the end-of-campaign summary shared by `compi run` and
// `compi drive`.
func printResult(prog *target.Program, res core.Result) {
	reach := prog.ReachableBranches(res.Coverage.Funcs())
	fmt.Printf("\ntarget          %s\n", prog.Name)
	fmt.Printf("iterations      %d (restarts %d)\n", len(res.Iterations), res.Restarts)
	fmt.Printf("elapsed         %s\n", res.Elapsed.Round(time.Millisecond))
	fmt.Printf("covered         %d branches (total %d, reachable est. %d)\n",
		res.Coverage.Count(), prog.TotalBranches(), reach)
	fmt.Printf("coverage rate   %.1f%% of reachable\n", 100*res.CoverageRate(prog))
	fmt.Printf("solver calls    %d (%d unsat)\n", res.SolverCall, res.UnsatCalls)
	fmt.Printf("%s\n", res.Solver.Summary())
	if res.Schedule != (core.ScheduleStats{}) {
		fmt.Printf("schedules       %d choice points, %d orders explored, %d deadlocks\n",
			res.Schedule.ChoicePoints, res.Schedule.Orders, res.Schedule.Deadlocks)
	}

	distinct := res.DistinctErrors()
	fmt.Printf("error kinds     %d\n", len(distinct))
	for msg, recs := range distinct {
		r := recs[0]
		fmt.Printf("  [%s] %s\n", r.Status, msg)
		fmt.Printf("      first at iter %d, np=%d focus=%d inputs=%v\n",
			r.Iter, r.NProcs, r.Focus, r.Inputs)
	}
	if len(res.Profile) > 0 {
		fmt.Printf("\n%s", res.Profile.String())
	}
}
