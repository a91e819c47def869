package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/store"
)

// storeMode maintains a campaign store directory: the default action prints
// an inventory; `compi store compact` drops superseded campaign snapshots and
// folds interrupted campaigns' journals, and `compi store reindex` rebuilds
// the campaign index from the snapshots.
// Cross-campaign queries live in `compi report`.
type storeMode struct {
	fs *flag.FlagSet

	dir     *string
	jsonOut *bool
}

func newStoreMode() *storeMode {
	fs := newFlagSet("store")
	m := &storeMode{fs: fs}
	m.dir = fs.String("dir", "", "campaign store directory (required)")
	m.jsonOut = fs.Bool("json", false, "emit the inventory as JSON")
	return m
}

func (m *storeMode) Name() string { return "store" }
func (m *storeMode) Synopsis() string {
	return "maintain a campaign store: inventory, compact, reindex"
}
func (m *storeMode) Flags() *flag.FlagSet { return m.fs }

// storeDir resolves the -dir flag (with a bare positional fallback) against
// an existing store directory. It returns 0, or prints why not and returns
// the exit code: 2 when no directory was given, 1 when it is not one.
func storeDir(fs *flag.FlagSet, dir *string, what string) int {
	if *dir == "" && fs.NArg() == 1 {
		*dir = fs.Arg(0)
	}
	if *dir == "" {
		return usagef("%s: -dir is required", what)
	}
	if fi, err := os.Stat(*dir); err != nil || !fi.IsDir() {
		return fatalf("%s: %s is not a store directory", what, *dir)
	}
	return 0
}

func (m *storeMode) Run(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "compact":
			return m.runCompact(args[1:])
		case "reindex":
			return m.runReindex(args[1:])
		}
	}
	m.fs.Parse(args)
	// A lone positional is the store directory (`compi store D`); anything
	// else that is not an action is a mistyped one.
	if m.fs.NArg() > 1 || m.fs.NArg() == 1 && *m.dir != "" {
		return usagef("compi store: unknown action %q (actions: compact, reindex)", m.fs.Arg(0))
	}
	if code := storeDir(m.fs, m.dir, "compi store"); code != 0 {
		return code
	}
	st, err := store.Open(*m.dir)
	if err != nil {
		return fatalf("compi store: %v", err)
	}
	defer st.Close()

	type campaignInfo struct {
		Name    string `json:"name"`
		Program string `json:"program"`
		Iters   int    `json:"iters"`
		Covered int    `json:"covered"`
		Errors  int    `json:"errors"`
		// Unfolded is how many of Iters only the campaign's journal holds:
		// an interrupted campaign's checkpoints since its last fold.
		Unfolded int `json:"unfolded,omitempty"`
	}
	type batchInfo struct {
		ID     string         `json:"id"`
		Counts map[string]int `json:"counts"` // status → entries
	}
	type inventory struct {
		Dir       string         `json:"dir"`
		Version   int            `json:"version"`
		Campaigns []campaignInfo `json:"campaigns"`
		Batches   []batchInfo    `json:"batches"`
		Setups    int            `json:"setups"` // campaign index entries
	}
	inv := inventory{Dir: st.Dir(), Version: store.Version}

	names, _ := st.Campaigns()
	for _, n := range names {
		ci := campaignInfo{Name: n}
		if snap, err := st.LoadCampaign(n); err == nil {
			ci.Program = snap.Program
			ci.Iters = snap.Iters
			ci.Covered = len(snap.Covered)
			ci.Errors = len(snap.Errors)
			// The campaign just loaded; a second read of its files that
			// fails leaves the count at 0, as a failed load leaves the rest.
			ci.Unfolded, _ = st.Unfolded(n)
		}
		inv.Campaigns = append(inv.Campaigns, ci)
	}
	ids, _ := st.Batches()
	for _, id := range ids {
		bi := batchInfo{ID: id, Counts: map[string]int{}}
		if man, err := st.LoadBatch(id); err == nil && man != nil {
			for _, e := range man.Entries {
				bi.Counts[e.Status]++
			}
		}
		inv.Batches = append(inv.Batches, bi)
	}
	entries, indexErr := st.Index()
	inv.Setups = len(entries)

	if *m.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(inv)
		return 0
	}
	fmt.Printf("store %s (schema v%d)\n", inv.Dir, inv.Version)
	fmt.Printf("campaigns %d\n", len(inv.Campaigns))
	for _, c := range inv.Campaigns {
		fmt.Printf("  %-40s %-10s iters=%-5d covered=%-5d errors=%d",
			c.Name, c.Program, c.Iters, c.Covered, c.Errors)
		if c.Unfolded > 0 {
			fmt.Printf(" journaled=%d (unfolded)", c.Unfolded)
		}
		fmt.Println()
	}
	fmt.Printf("batches %d\n", len(inv.Batches))
	for _, b := range inv.Batches {
		fmt.Printf("  %-24s", b.ID)
		for _, status := range []string{"pending", "running", "done", "reused", "error"} {
			if b.Counts[status] > 0 {
				fmt.Printf(" %s=%d", status, b.Counts[status])
			}
		}
		fmt.Println()
	}
	if indexErr != nil {
		fmt.Printf("campaign index unreadable: %v\n", indexErr)
	} else {
		fmt.Printf("campaign index %d entries\n", inv.Setups)
	}
	return 0
}

// runCompact implements `compi store compact`: drop campaign snapshots
// superseded by further-progressed runs of the same setup, redirecting batch
// manifests to the surviving files, and fold every kept campaign's journal
// into its snapshot. Resume behaviour is unchanged — the campaign index and
// every interrupted campaign's own file, which the resume path reads, are
// kept.
func (m *storeMode) runCompact(args []string) int {
	fs := newFlagSet("store compact")
	dir := fs.String("dir", "", "campaign store directory (required)")
	fs.Parse(args)
	if code := storeDir(fs, dir, "compi store compact"); code != 0 {
		return code
	}
	st, err := store.Open(*dir)
	if err != nil {
		return fatalf("compi store compact: %v", err)
	}
	defer st.Close()
	stats, err := st.Compact()
	if err != nil {
		return fatalf("compi store compact: %v", err)
	}
	fmt.Printf("compacted %s: removed %d superseded snapshots, kept %d, redirected %d batch entries, folded %d journals\n",
		st.Dir(), len(stats.Removed), stats.Kept, stats.Rewritten, stats.Folded)
	for _, name := range stats.Removed {
		fmt.Printf("  removed %s\n", name)
	}
	return 0
}

// runReindex implements `compi store reindex`: rebuild index.json from the
// batch manifests and the campaign snapshots — the recovery path for a
// corrupted index and the upgrade path for stores written before the index
// existed.
func (m *storeMode) runReindex(args []string) int {
	fs := newFlagSet("store reindex")
	dir := fs.String("dir", "", "campaign store directory (required)")
	fs.Parse(args)
	if code := storeDir(fs, dir, "compi store reindex"); code != 0 {
		return code
	}
	st, err := store.Open(*dir)
	if err != nil {
		return fatalf("compi store reindex: %v", err)
	}
	defer st.Close()
	n, err := st.Reindex()
	if err != nil {
		return fatalf("compi store reindex: %v", err)
	}
	fmt.Printf("reindexed %s: %d campaign entries\n", st.Dir(), n)
	return 0
}
