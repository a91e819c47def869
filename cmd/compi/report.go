package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/store"
)

// reportMode answers cross-campaign questions from the store's campaign
// index without replaying anything: which setups found an error, what
// coverage each target reached, which campaigns proved refutations.
type reportMode struct {
	fs *flag.FlagSet

	dir     *string
	errSub  *string
	target  *string
	jsonOut *bool
}

func newReportMode() *reportMode {
	fs := newFlagSet("report")
	m := &reportMode{fs: fs}
	m.dir = fs.String("dir", "", "campaign store directory (required)")
	m.errSub = fs.String("error", "", "list only setups whose errors contain this substring (empty with the flag set: any error)")
	m.target = fs.String("target", "", "restrict to campaigns of this target")
	m.jsonOut = fs.Bool("json", false, "emit the report as JSON")
	return m
}

func (m *reportMode) Name() string { return "report" }
func (m *reportMode) Synopsis() string {
	return "query the campaign index: errors by setup, coverage by target, refutation counts"
}
func (m *reportMode) Flags() *flag.FlagSet { return m.fs }

func (m *reportMode) Run(args []string) int {
	m.fs.Parse(args)
	// -error with an empty value still means "filter to erroring setups",
	// so test the flag's presence rather than its value.
	errFlagSet := false
	m.fs.Visit(func(f *flag.Flag) {
		if f.Name == "error" {
			errFlagSet = true
		}
	})
	if code := storeDir(m.fs, m.dir, "compi report"); code != 0 {
		return code
	}
	st, err := store.Open(*m.dir)
	if err != nil {
		return fatalf("compi report: %v", err)
	}
	defer st.Close()

	entries, err := st.Index()
	if err != nil {
		return fatalf("compi report: %v\n(run `compi store reindex -dir %s` to rebuild the index)", err, *m.dir)
	}
	if entries == nil {
		if n, err := st.Reindex(); err != nil {
			return fatalf("compi report: building index: %v", err)
		} else if n > 0 {
			fmt.Fprintf(os.Stderr, "compi report: no index yet, built one with %d entries\n", n)
		}
		if entries, err = st.Index(); err != nil {
			return fatalf("compi report: %v", err)
		}
	}
	if *m.target != "" {
		kept := entries[:0]
		for _, e := range entries {
			if e.Target == *m.target {
				kept = append(kept, e)
			}
		}
		entries = kept
	}
	if errFlagSet {
		entries = store.SetupsWithError(entries, *m.errSub)
	}

	if *m.jsonOut {
		type report struct {
			Dir     string                `json:"dir"`
			Targets []store.TargetSummary `json:"targets"`
			Setups  []store.IndexEntry    `json:"setups"`
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(report{Dir: st.Dir(), Targets: store.ByTarget(entries), Setups: entries})
		return 0
	}

	fmt.Printf("report over %s: %d setups\n", st.Dir(), len(entries))
	fmt.Println("\ncoverage by target:")
	for _, ts := range store.ByTarget(entries) {
		fmt.Printf("  %-12s setups=%-3d iters=%-6d best=%-5d errors=%d (%d deadlock) unsat-contrib=%d refuted-skips=%d\n",
			ts.Target, ts.Setups, ts.Iters, ts.BestBranches, ts.Errors, ts.Deadlocks,
			ts.UnsatContrib, ts.RefutedSkips)
	}
	fmt.Println("\nsetups:")
	for _, e := range entries {
		fmt.Printf("  %-24s %-12s key=%s iters=%-5d branches=%-5d fp=%s\n",
			e.Campaign, e.Target, e.Key, e.Iters, e.Branches, e.CoverageFP[:12])
		for _, ie := range e.Errors {
			fmt.Printf("      [%s] %s\n", ie.Status, ie.Msg)
		}
	}
	return 0
}
