package store

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/mpi"
)

// indexedStore builds a store with two campaigns on different targets (one
// with a deadlock error) indexed incrementally, the way sched and the fleet
// coordinator do it at campaign completion.
func indexedStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snapA := &core.Snapshot{
		Version: core.SnapshotVersion, Program: "stencil", Iters: 40,
		Covered: []conc.BranchBit{3, 1, 7}, Funcs: []string{"main", "halo"},
		Errors: []core.ErrorRecord{
			{Status: mpi.StatusCrash, Msg: "assert: halo mismatch"},
			{Status: mpi.StatusCrash, Msg: "assert: halo mismatch"}, // dup key
		},
		UnsatCalls: 9, RefutedSkips: 5, Refutations: 2,
	}
	snapB := &core.Snapshot{
		Version: core.SnapshotVersion, Program: "mworder", Iters: 25,
		Covered: []conc.BranchBit{2, 9},
		Errors: []core.ErrorRecord{
			{Status: mpi.StatusDeadlock, Msg: "deadlock: wait-for cycle 0->2->0"},
		},
	}
	for name, snap := range map[string]*core.Snapshot{"camp-a": snapA, "camp-b": snapB} {
		if err := s.SaveCampaign(name, snap); err != nil {
			t.Fatal(err)
		}
	}
	man := &BatchManifest{ID: "batch-1", Entries: []BatchEntry{
		{Label: "a", Key: "key-a", Status: StatusDone, Campaign: "camp-a", Iters: 40},
		{Label: "b", Key: "key-b", Status: StatusDone, Campaign: "camp-b", Iters: 25},
	}}
	if err := s.SaveBatch(man); err != nil {
		t.Fatal(err)
	}
	for i, snap := range []*core.Snapshot{snapA, snapB} {
		if err := s.IndexCampaign(man.ID, man.Entries[i], snap); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestIndexCampaignAndQueries(t *testing.T) {
	s := indexedStore(t)
	entries, err := s.Index()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Key != "key-a" || entries[1].Key != "key-b" {
		t.Fatalf("entries %+v", entries)
	}
	a := entries[0]
	if a.Target != "stencil" || a.Iters != 40 || a.Branches != 3 ||
		a.UnsatContrib != 2 || a.RefutedSkips != 5 {
		t.Fatalf("entry a %+v", a)
	}
	if len(a.Errors) != 1 {
		t.Fatalf("duplicate error keys not collapsed: %+v", a.Errors)
	}
	if a.CoverageFP != CoverageFingerprint([]conc.BranchBit{1, 3, 7}, []string{"halo", "main"}) {
		t.Fatal("fingerprint not order-invariant")
	}

	// "Which setups found error X."
	hits := SetupsWithError(entries, "wait-for cycle")
	if len(hits) != 1 || hits[0].Key != "key-b" {
		t.Fatalf("error query %+v", hits)
	}
	if all := SetupsWithError(entries, ""); len(all) != 2 {
		t.Fatalf("empty substring should match any erroring setup: %+v", all)
	}

	// "Coverage by target."
	byTarget := ByTarget(entries)
	if len(byTarget) != 2 || byTarget[0].Target != "mworder" || byTarget[1].Target != "stencil" {
		t.Fatalf("targets %+v", byTarget)
	}
	if byTarget[0].Deadlocks != 1 || byTarget[0].BestBranches != 2 {
		t.Fatalf("mworder summary %+v", byTarget[0])
	}
	if byTarget[1].UnsatContrib != 2 || byTarget[1].RefutedSkips != 5 {
		t.Fatalf("stencil cache economics %+v", byTarget[1])
	}
}

// TestIndexIncrementalEqualsRebuilt pins the derivation contract: the
// incrementally maintained index and a from-scratch Reindex produce
// byte-identical files.
func TestIndexIncrementalEqualsRebuilt(t *testing.T) {
	s := indexedStore(t)
	path := s.indexPath()
	incremental, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.Reindex()
	if err != nil || n != 2 {
		t.Fatalf("reindex: n=%d err=%v", n, err)
	}
	rebuilt, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(incremental) != string(rebuilt) {
		t.Fatalf("incremental and rebuilt indexes differ:\n%s\nvs\n%s", incremental, rebuilt)
	}
}

// TestIndexCorruptionDetectedAndRecovered pins verification-on-load: a
// truncated or garbage index.json is a descriptive error pointing at
// Reindex, and Reindex recovers the exact previous bytes.
func TestIndexCorruptionDetectedAndRecovered(t *testing.T) {
	s := indexedStore(t)
	path := s.indexPath()
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for name, bytes := range map[string][]byte{
		"truncated": orig[:len(orig)/2],
		"garbage":   []byte("}{ not json"),
		"tampered":  []byte(strings.Replace(string(orig), `"iters": 40`, `"iters": 41`, 1)),
	} {
		if err := os.WriteFile(path, bytes, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := s.Index()
		if err == nil {
			t.Fatalf("%s index served", name)
		}
		if !strings.Contains(err.Error(), "Reindex") {
			t.Fatalf("%s error does not point at recovery: %v", name, err)
		}
	}

	if n, err := s.Reindex(); err != nil || n != 2 {
		t.Fatalf("reindex: n=%d err=%v", n, err)
	}
	recovered, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(recovered) != string(orig) {
		t.Fatal("reindex did not recover the exact index")
	}

	// The incremental writer self-heals too: an upsert over a corrupt or
	// missing index rebuilds it before patching, so the other setup's entry
	// survives.
	snap, err := s.LoadCampaign("camp-a")
	if err != nil {
		t.Fatal(err)
	}
	man, err := s.LoadBatch("batch-1")
	if err != nil || man == nil {
		t.Fatalf("manifest: %v %v", man, err)
	}
	for name, damage := range map[string]func() error{
		"garbage": func() error { return os.WriteFile(path, []byte("garbage"), 0o644) },
		"missing": func() error { return os.Remove(path) },
	} {
		if err := damage(); err != nil {
			t.Fatal(err)
		}
		if err := s.IndexCampaign(man.ID, man.Entries[0], snap); err != nil {
			t.Fatal(err)
		}
		if healed, _ := os.ReadFile(path); string(healed) != string(orig) {
			t.Fatalf("incremental writer did not heal the %s index", name)
		}
	}
}

// TestIndexChoosesLikeReindex pins the selection rule IndexCampaign and
// Reindex share: per setup, the manifest entry recorded at the most
// iterations, then the smaller campaign name, then a finished entry before a
// reused one, then the smaller batch ID. After every step below the
// incremental index must equal a rebuild byte for byte.
func TestIndexChoosesLikeReindex(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	snap := func(iters int) *core.Snapshot {
		return &core.Snapshot{Version: core.SnapshotVersion, Program: "p", Iters: iters,
			Covered: []conc.BranchBit{conc.BranchBit(iters)}}
	}
	done := func(label string, iters int) BatchEntry {
		return BatchEntry{Label: label, Key: "k", Status: StatusDone, Campaign: label + "-k", Iters: iters}
	}
	// finish records a campaign the way sched.Batch does: Start leaves the
	// manifest entry running, and Finish saves the final snapshot, upserts
	// the index and then writes the manifest entry done.
	finish := func(batch string, e BatchEntry) {
		t.Helper()
		running := e
		running.Status = StatusRunning
		for _, step := range []func() error{
			func() error { return s.SaveBatch(&BatchManifest{ID: batch, Entries: []BatchEntry{running}}) },
			func() error { return s.SaveCampaign(e.Campaign, snap(e.Iters)) },
			func() error { return s.IndexCampaign(batch, e, snap(e.Iters)) },
			func() error { return s.SaveBatch(&BatchManifest{ID: batch, Entries: []BatchEntry{e}}) },
		} {
			if err := step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(step, campaign, batch string, iters int) {
		t.Helper()
		entries, err := s.Index()
		if err != nil || len(entries) != 1 {
			t.Fatalf("%s: index %+v (err %v)", step, entries, err)
		}
		if e := entries[0]; e.Campaign != campaign || e.Batch != batch || e.Iters != iters {
			t.Fatalf("%s: entry %s/%s@%d, want %s/%s@%d", step, e.Campaign, e.Batch, e.Iters, campaign, batch, iters)
		}
		incremental, _ := os.ReadFile(s.indexPath())
		if _, err := s.Reindex(); err != nil {
			t.Fatal(err)
		}
		if rebuilt, _ := os.ReadFile(s.indexPath()); string(rebuilt) != string(incremental) {
			t.Fatalf("%s: rebuilt index differs:\n%s\nvs\n%s", step, incremental, rebuilt)
		}
	}

	finish("b2", done("m", 20))
	check("first", "m-k", "b2", 20)
	finish("b3", done("z", 30))
	check("more iterations", "z-k", "b3", 30)
	finish("b4", done("c", 30))
	check("same iterations, smaller name", "c-k", "b4", 30)
	// c's entry re-finishes at fewer iterations (a cold restart under a time
	// budget): the index falls back to the best remaining entry.
	finish("b4", done("c", 10))
	check("re-finished shorter", "z-k", "b3", 30)
	// A batch that reused z's file records it at the same iterations: the
	// finished entry still stands for the setup, whatever the batch IDs.
	if err := s.SaveBatch(&BatchManifest{ID: "b0", Entries: []BatchEntry{
		{Label: "r", Key: "k", Status: StatusReused, Campaign: "z-k", Iters: 30},
	}}); err != nil {
		t.Fatal(err)
	}
	check("reused elsewhere", "z-k", "b3", 30)
}

func TestMinimizeDropsSubsumedCorpus(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap := &core.Snapshot{
		Version: core.SnapshotVersion, Program: "stencil", Iters: 10,
		Corpus: map[string]map[string]int64{
			"4/0": {"x": 1}, // covers {1,2,3} — retained (biggest set)
			"4/1": {"x": 2}, // covers {1,2} — subsumed by 4/0
			"4/2": {"x": 3}, // covers {9} — retained (unique branch)
			"4/3": {"x": 4}, // no attribution — kept
		},
		CorpusCov: map[string][]conc.BranchBit{
			"4/0": {1, 2, 3},
			"4/1": {1, 2},
			"4/2": {9},
		},
	}
	if err := s.SaveCampaign("camp", snap); err != nil {
		t.Fatal(err)
	}
	stats, err := s.Minimize()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Campaigns != 1 || stats.Dropped != 1 || stats.Kept != 3 {
		t.Fatalf("stats %+v", stats)
	}
	got, err := s.LoadCampaign("camp")
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := map[string]bool{"4/0": true, "4/2": true, "4/3": true}
	for k := range got.Corpus {
		if !wantKeys[k] {
			t.Fatalf("kept subsumed entry %q", k)
		}
		delete(wantKeys, k)
	}
	if len(wantKeys) != 0 {
		t.Fatalf("minimize dropped needed entries, missing %v", wantKeys)
	}
	if _, stale := got.CorpusCov["4/1"]; stale {
		t.Fatal("dropped entry's attribution survived")
	}
	// Idempotent: a second pass drops nothing.
	if stats, err := s.Minimize(); err != nil || stats.Dropped != 0 {
		t.Fatalf("second pass: %+v err=%v", stats, err)
	}
}

func TestCoverRetainedGreedy(t *testing.T) {
	// Greedy picks a (gain 4) first; b is then fully subsumed, and c and d
	// both gain exactly {5} — the lexicographic tie-break keeps c.
	retained := coverRetained(map[string][]conc.BranchBit{
		"a": {1, 2, 3, 4},
		"b": {1, 2},
		"c": {5},
		"d": {3, 4, 5},
	})
	want := map[string]struct{}{"a": {}, "c": {}}
	if !reflect.DeepEqual(retained, want) {
		t.Fatalf("retained %v, want %v", retained, want)
	}
	if got := coverRetained(nil); len(got) != 0 {
		t.Fatalf("empty cover retained %v", got)
	}
}
