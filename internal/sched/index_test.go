package sched

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/spec"
	"repro/internal/store"
	_ "repro/internal/targets/mworder"
	_ "repro/internal/targets/relay"
)

// scheduleSpecs is the two-target schedule-space batch the report pins run
// on: mworder and relay at the 3-rank protocol setup whose wildcard-receive
// deadlocks the schedule frontier reaches deterministically.
func scheduleSpecs(iters int) []Spec {
	mk := func(target string) Spec {
		return Spec{Campaign: spec.Campaign{
			Target: target, Seed: 7, Iterations: iters,
			InitialProcs: 3, MaxProcs: 3, Schedules: true,
			Reduction: true, RunTimeout: 5 * time.Second,
		}}
	}
	return []Spec{mk("mworder"), mk("relay")}
}

// TestReportIndexMatchesReplay is the `compi report` acceptance pin: on a
// batch spanning two targets (both finding schedule-space deadlocks), every
// answer the campaign index gives — which setups found error X, coverage by
// target — must equal the answer computed from the full campaign results,
// without the index reader touching a snapshot.
func TestReportIndexMatchesReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	st := openStore(t)
	rep := Run(scheduleSpecs(25), Options{Workers: 2, Store: st})
	for _, c := range rep.Campaigns {
		if c.Err != nil {
			t.Fatalf("campaign %q: %v", c.Label, c.Err)
		}
	}

	entries, err := st.Index()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(rep.Campaigns) {
		t.Fatalf("index has %d entries for %d campaigns", len(entries), len(rep.Campaigns))
	}

	// Per-entry: the index summarizes exactly what the stored snapshot holds.
	for _, e := range entries {
		snap, err := st.LoadCampaign(e.Campaign)
		if err != nil {
			t.Fatalf("index references unreadable campaign %q: %v", e.Campaign, err)
		}
		if e.Target != snap.Program || e.Iters != snap.Iters || e.Branches != len(snap.Covered) {
			t.Fatalf("index entry diverges from snapshot: %+v vs program=%s iters=%d covered=%d",
				e, snap.Program, snap.Iters, len(snap.Covered))
		}
		if e.CoverageFP != store.CoverageFingerprint(snap.Covered, snap.Funcs) {
			t.Fatalf("coverage fingerprint mismatch for %q", e.Campaign)
		}
	}

	// "Which setups found error X" from the index alone vs from the results.
	const cycle = "wait-for cycle"
	var fromIndex []string
	for _, e := range store.SetupsWithError(entries, cycle) {
		fromIndex = append(fromIndex, e.Target)
	}
	var fromResults []string
	for _, c := range rep.Campaigns {
		for msg := range c.Result.DistinctErrors() {
			if strings.Contains(msg, cycle) {
				fromResults = append(fromResults, c.Target)
				break
			}
		}
	}
	if len(fromResults) != 2 {
		t.Fatalf("expected both targets to deadlock, got %v", fromResults)
	}
	sort.Strings(fromIndex)
	sort.Strings(fromResults)
	if !reflect.DeepEqual(fromIndex, fromResults) {
		t.Fatalf("error query: index says %v, results say %v", fromIndex, fromResults)
	}

	// "Coverage by target" from the index alone vs from the results.
	best := map[string]int{}
	for _, c := range rep.Campaigns {
		if n := c.Result.Coverage.Count(); n > best[c.Target] {
			best[c.Target] = n
		}
	}
	byTarget := store.ByTarget(entries)
	if len(byTarget) != 2 {
		t.Fatalf("targets %+v", byTarget)
	}
	for _, ts := range byTarget {
		if ts.BestBranches != best[ts.Target] {
			t.Fatalf("%s: index best coverage %d, results say %d",
				ts.Target, ts.BestBranches, best[ts.Target])
		}
		if ts.Deadlocks == 0 {
			t.Fatalf("%s summary records no deadlock: %+v", ts.Target, ts)
		}
	}
}

// TestOldLayoutStoreOpensAndReindexes is the migration pin: a store without
// index.json but with the setups.json earlier versions kept (any store
// written before the index existed, or before setups.json was dropped, looks
// like this) opens and resumes unchanged. Resuming writes no index, Reindex
// rebuilds the bytes a never-deleted index would hold, and setups.json is
// left as it was.
func TestOldLayoutStoreOpensAndReindexes(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	const n = 25
	st := openStore(t)
	rep1 := Run(storeSpecs(n), Options{Workers: 2, Store: st})
	want := fingerprintOf(rep1)

	indexPath := filepath.Join(st.Dir(), "index.json")
	orig, err := os.ReadFile(indexPath)
	if err != nil {
		t.Fatalf("batch completion left no index: %v", err)
	}
	entries, err := st.Index()
	if err != nil || len(entries) != len(rep1.Campaigns) {
		t.Fatalf("index: %d entries (err %v)", len(entries), err)
	}
	if err := os.Remove(indexPath); err != nil {
		t.Fatal(err)
	}
	// setups.json as earlier versions wrote it: setup key → campaign file,
	// iterations and batch, indented.
	type setupRecord struct {
		Campaign string `json:"campaign"`
		Iters    int    `json:"iters"`
		Batch    string `json:"batch,omitempty"`
	}
	setups := map[string]setupRecord{}
	for _, e := range entries {
		setups[e.Key] = setupRecord{Campaign: e.Campaign, Iters: e.Iters, Batch: e.Batch}
	}
	legacy, err := json.MarshalIndent(setups, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	legacy = append(legacy, '\n')
	setupsPath := filepath.Join(st.Dir(), "setups.json")
	if err := os.WriteFile(setupsPath, legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	rep2 := Run(storeSpecs(n), Options{Workers: 2, Store: st})
	for _, c := range rep2.Campaigns {
		if c.Err != nil || !c.Reused {
			t.Fatalf("old-layout campaign %q: err=%v reused=%v", c.Label, c.Err, c.Reused)
		}
	}
	if !reflect.DeepEqual(fingerprintOf(rep2), want) {
		t.Fatal("old-layout store resumed differently")
	}
	if _, err := os.Stat(indexPath); !os.IsNotExist(err) {
		t.Fatalf("a reuse pass wrote the index (stat err %v)", err)
	}

	if _, err := st.Reindex(); err != nil {
		t.Fatal(err)
	}
	rebuilt, _ := os.ReadFile(indexPath)
	if string(rebuilt) != string(orig) {
		t.Fatalf("reindexed bytes differ from the incrementally built index:\n%s\nvs\n%s", rebuilt, orig)
	}
	if b, err := os.ReadFile(setupsPath); err != nil || string(b) != string(legacy) {
		t.Fatalf("setups.json was rewritten (err %v)", err)
	}
}

// TestStoreWideCacheAcrossTargets: a batch over a store that batches on two
// other targets already wrote is fingerprint-identical to a cold, storeless
// run.
func TestStoreWideCacheAcrossTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	mkSpecs := func() []Spec {
		a := skeletonSpec(21)
		a.Iterations = 30
		b := skeletonSpec(22)
		b.Iterations = 30
		return []Spec{a, b}
	}
	cold := fingerprintOf(Run(mkSpecs(), Options{Workers: 2}))

	st := openStore(t)
	// Two seeding batches on different targets.
	stencilOnly := storeSpecs(40)[1:] // the stencil spec alone
	Run(stencilOnly, Options{Workers: 1, Store: st})
	seedSpecs := []Spec{skeletonSpec(7)}
	seedSpecs[0].Iterations = 40
	rep0 := Run(seedSpecs, Options{Workers: 1, Store: st})
	if rep0.Solver.Misses == 0 {
		t.Fatal("seeding batch never solved")
	}

	warm := Run(mkSpecs(), Options{Workers: 2, Store: st})
	if !reflect.DeepEqual(fingerprintOf(warm), cold) {
		t.Fatal("a store written by batches on other targets changed campaign results")
	}
}
