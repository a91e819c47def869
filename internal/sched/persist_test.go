package sched

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/target"
	"repro/internal/targets/stencil"
	"repro/internal/targets/susy"
)

func storeSpecs(iters int) []Spec {
	stSpec := Spec{Campaign: spec.Campaign{
		Target:     "stencil",
		Seed:       11,
		Iterations: iters, Reduction: true, Framework: true,
		Params: stencil.FixAll(), DFSPhase: 10,
		RunTimeout: 5 * time.Second,
	}}
	sk := skeletonSpec(3)
	sk.Iterations = iters
	return []Spec{sk, stSpec}
}

// TestDeriveBatchIDGolden pins the derived batch ID for the grid the old CLI
// built from `compi sched -targets skeleton -seeds 3,4 -iters 60`: batch IDs
// are store filenames, so a changed derivation would strand every existing
// batch manifest. Captured from the pre-spec implementation.
func TestDeriveBatchIDGolden(t *testing.T) {
	st := openStore(t)
	grid := core.MergeParams(susy.FixAll(), stencil.FixAll())
	mk := func(seed int64) Spec {
		return Spec{Campaign: spec.Campaign{
			Target: "skeleton", Seed: seed, Params: grid,
			Iterations: 60, InitialProcs: 8, MaxProcs: 16,
			Reduction: true, Framework: true, DFSPhase: 50,
			RunTimeout: 30 * time.Second,
		}}
	}
	if got := NewBatch([]Spec{mk(3), mk(4)}, st, "").ID(); got != "batch-2ce6a0ac773d" {
		t.Fatalf("derived batch ID = %q, want legacy batch-2ce6a0ac773d", got)
	}
}

func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSetupKeyContract(t *testing.T) {
	a := skeletonSpec(1)
	b := skeletonSpec(1)
	b.Iterations = a.Iterations * 3
	b.TimeBudget = time.Hour
	ka, ok := SetupKey(a)
	if !ok {
		t.Fatal("plain spec not persistable")
	}
	if kb, _ := SetupKey(b); kb != ka {
		t.Fatal("iteration/time budget changed the setup key")
	}
	c := skeletonSpec(2)
	if kc, _ := SetupKey(c); kc == ka {
		t.Fatal("different seeds share a setup key")
	}
	s := skeletonSpec(1)
	s.Schedules = true
	if ks, _ := SetupKey(s); ks == ka {
		t.Fatal("schedule-space exploration did not change the setup key")
	}
	d := skeletonSpec(1)
	d.Overrides.NewStrategy = func(*target.Program, *coverage.Tracker) core.Strategy { return core.NewBoundedDFS(4) }
	if _, ok := SetupKey(d); ok {
		t.Fatal("spec with a live strategy factory reported persistable")
	}
}

// TestStoreBatchResumeEqualsFresh is the scheduler half of the resume
// determinism contract: a batch run to k iterations, then re-run (same
// store, same derived batch ID) to n, must match a storeless n-iteration
// batch in every deterministic dimension.
func TestStoreBatchResumeEqualsFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	const k, n = 12, 30
	want := fingerprintOf(Run(storeSpecs(n), Options{Workers: 2}))

	st := openStore(t)
	rep1 := Run(storeSpecs(k), Options{Workers: 2, Store: st})
	if rep1.BatchID == "" {
		t.Fatal("store-backed run reported no batch ID")
	}
	for _, c := range rep1.Campaigns {
		if c.Err != nil || c.Reused {
			t.Fatalf("first batch campaign %q: err=%v reused=%v", c.Label, c.Err, c.Reused)
		}
	}

	rep2 := Run(storeSpecs(n), Options{Workers: 2, Store: st})
	if rep2.BatchID != rep1.BatchID {
		t.Fatalf("resumed batch got a new ID: %s vs %s", rep2.BatchID, rep1.BatchID)
	}
	for _, c := range rep2.Campaigns {
		if c.Err != nil {
			t.Fatalf("resumed campaign %q: %v", c.Label, c.Err)
		}
		if len(c.Result.Iterations) != n {
			t.Fatalf("resumed campaign %q spans %d iterations, want %d",
				c.Label, len(c.Result.Iterations), n)
		}
	}
	if got := fingerprintOf(rep2); !reflect.DeepEqual(got, want) {
		t.Fatal("resumed batch differs from the uninterrupted reference")
	}

	man, err := st.LoadBatch(rep2.BatchID)
	if err != nil || man == nil {
		t.Fatalf("manifest: %v %v", man, err)
	}
	for _, e := range man.Entries {
		if e.Status != store.StatusDone || e.Iters != n {
			t.Fatalf("manifest entry %+v not done at %d", e, n)
		}
	}
}

// TestStoreCrossBatchReuse pins the dedup: re-running an already-complete
// batch answers every campaign from the store without an engine run.
func TestStoreCrossBatchReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	const n = 25
	st := openStore(t)
	rep1 := Run(storeSpecs(n), Options{Workers: 2, Store: st})
	want := fingerprintOf(rep1)

	rep2 := Run(storeSpecs(n), Options{Workers: 2, Store: st})
	for _, c := range rep2.Campaigns {
		if c.Err != nil || !c.Reused {
			t.Fatalf("campaign %q not reused: err=%v", c.Label, c.Err)
		}
		if len(c.Result.Iterations) != n {
			t.Fatalf("reused campaign %q lost history: %d iterations", c.Label, len(c.Result.Iterations))
		}
	}
	if got := fingerprintOf(rep2); !reflect.DeepEqual(got, want) {
		t.Fatal("reused results differ from the originals")
	}
	man, _ := st.LoadBatch(rep2.BatchID)
	for _, e := range man.Entries {
		if e.Status != store.StatusReused {
			t.Fatalf("entry %+v not marked reused", e)
		}
	}
	// A shorter re-run is also answered from the store (prefix property).
	rep3 := Run(storeSpecs(10), Options{Workers: 1, Store: st})
	for _, c := range rep3.Campaigns {
		if !c.Reused {
			t.Fatalf("shorter re-run of %q not reused", c.Label)
		}
	}
}

// TestStoreWriteFailuresSurface is the store fault pin. Spec 0's Checkpoint
// hook replaces campaigns/ with a plain file after its 6th checkpoint, so
// every later snapshot write fails. The batch must report the failures
// without changing a result, write no index entry for the failed campaigns,
// and mark every manifest entry error. The store is then repaired, left with
// a torn write's temp file and a truncated index: Reindex succeeds, and a
// rerun, which resumes spec 0 from its 6-iteration checkpoint, equals the
// uninterrupted run with a full index.
func TestStoreWriteFailuresSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	const n = 30
	want := fingerprintOf(Run(storeSpecs(n), Options{Workers: 1}))

	st := openStore(t)
	camps := filepath.Join(st.Dir(), "campaigns")
	saved := camps + ".saved"
	specs := storeSpecs(n)
	ckpts := 0
	specs[0].Overrides.Checkpoint = func(*core.Snapshot) {
		if ckpts++; ckpts == 6 {
			if err := os.Rename(camps, saved); err != nil {
				t.Error(err)
			}
			if err := os.WriteFile(camps, nil, 0o644); err != nil {
				t.Error(err)
			}
		}
	}
	rep := Run(specs, Options{Workers: 1, Store: st})
	if rep.StoreErr == nil {
		t.Fatal("failed snapshot writes were not reported")
	}
	if got := fingerprintOf(rep); !reflect.DeepEqual(got, want) {
		t.Fatal("store write failures changed campaign results")
	}
	if entries, err := st.Index(); err != nil || len(entries) != 0 {
		t.Fatalf("index after failed writes: %+v (err %v), want no entry", entries, err)
	}
	man, err := st.LoadBatch(rep.BatchID)
	if err != nil || man == nil {
		t.Fatalf("manifest: %v %v", man, err)
	}
	for _, e := range man.Entries {
		if e.Status != store.StatusError || e.Error == "" {
			t.Fatalf("manifest entry %+v not marked error", e)
		}
	}
	var sum strings.Builder
	rep.WriteSummary(&sum)
	if !strings.Contains(sum.String(), "store write failed: "+specs[0].label()) {
		t.Fatalf("summary does not report the failed writes:\n%s", sum.String())
	}

	if err := os.Remove(camps); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(saved, camps); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(camps, "."+store.CampaignName(specs[1].label(), "x")+".json.tmp-1")
	if err := os.WriteFile(torn, []byte(`{"version":3,"prog`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(st.Dir(), "index.json"), []byte(`{"version":1,"entries":[{"key":"`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Reindex(); err != nil {
		t.Fatalf("reindex after repair: %v", err)
	}

	ran := map[string]int{}
	rep2 := Run(storeSpecs(n), Options{Workers: 1, Store: st, Trace: func(label string, _ core.IterationStat) {
		ran[label]++
	}})
	if rep2.StoreErr != nil {
		t.Fatalf("rerun on the repaired store: %v", rep2.StoreErr)
	}
	if got := fingerprintOf(rep2); !reflect.DeepEqual(got, want) {
		t.Fatal("rerun on the repaired store differs from the uninterrupted run")
	}
	if got := ran[specs[0].label()]; got != n-6 {
		t.Fatalf("rerun ran %d iterations of %s, want %d (resumed from its 6th checkpoint)", got, specs[0].label(), n-6)
	}
	entries, err := st.Index()
	if err != nil || len(entries) != len(specs) {
		t.Fatalf("index after rerun: %d entries (err %v), want %d", len(entries), err, len(specs))
	}
	for _, e := range entries {
		if e.Iters != n {
			t.Fatalf("index entry %+v not at %d iterations", e, n)
		}
	}
}

// TestStoreWarmCacheDoesNotPerturb runs a second, differently-seeded batch
// against a store a first batch already wrote: its results must equal a
// cold, storeless run.
func TestStoreWarmCacheDoesNotPerturb(t *testing.T) {
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
	seedSpecs := []Spec{skeletonSpec(7)}
	seedSpecs[0].Iterations = 40
	rep0 := Run(seedSpecs, Options{Workers: 1, Store: st})
	if rep0.Solver.Misses == 0 {
		t.Fatal("seeding batch never solved")
	}

	warm := Run(mkSpecs(), Options{Workers: 2, Store: st})
	if got := fingerprintOf(warm); !reflect.DeepEqual(got, cold) {
		t.Fatal("a store written by an earlier batch changed campaign results")
	}
}

// TestStoreSkipsNonPersistableSpecs checks a spec the store cannot key
// (live strategy factory) still runs normally alongside persisted ones.
func TestStoreSkipsNonPersistableSpecs(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	st := openStore(t)
	free := skeletonSpec(5)
	free.Label = "free"
	free.Iterations = 10
	free.Overrides.NewStrategy = func(*target.Program, *coverage.Tracker) core.Strategy { return core.NewBoundedDFS(6) }
	kept := skeletonSpec(6)
	kept.Iterations = 10
	specs := []Spec{free, kept}

	rep := Run(specs, Options{Workers: 2, Store: st})
	for _, c := range rep.Campaigns {
		if c.Err != nil {
			t.Fatal(c.Err)
		}
	}
	man, _ := st.LoadBatch(rep.BatchID)
	if man.Entries[0].Key != "" || man.Entries[0].Status != store.StatusPending {
		t.Fatalf("non-persistable entry recorded as %+v", man.Entries[0])
	}
	if man.Entries[1].Status != store.StatusDone {
		t.Fatalf("persistable entry %+v", man.Entries[1])
	}

	rep2 := Run(specs, Options{Workers: 2, Store: st})
	if rep2.Campaigns[0].Reused {
		t.Fatal("non-persistable campaign reused")
	}
	if !rep2.Campaigns[1].Reused {
		t.Fatal("persistable campaign not reused")
	}
}

// TestStoreCompactPreservesResume pins the compaction safety contract:
// compacting a store between batches changes nothing about how the next
// batch resumes. Two stores run the same short-batch → longer-batch sequence
// under changing labels (which is what strands superseded snapshot files);
// one compacts between every step, the other never does, and both must end
// at the uninterrupted reference fingerprint.
func TestStoreCompactPreservesResume(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	const k, n = 12, 30
	want := fingerprintOf(Run(storeSpecs(n), Options{Workers: 2}))

	relabel := func(iters int, tag string) []Spec {
		specs := storeSpecs(iters)
		for i := range specs {
			specs[i].Label = tag + "/" + specs[i].label()
		}
		return specs
	}
	runSeq := func(st *store.Store, compact bool) *Report {
		step := func() {
			if compact {
				if _, err := st.Compact(); err != nil {
					t.Fatal(err)
				}
			}
		}
		Run(relabel(k, "v1"), Options{Workers: 2, Store: st})
		step()
		Run(relabel(n, "v2"), Options{Workers: 2, Store: st})
		step()
		return Run(relabel(n, "v3"), Options{Workers: 2, Store: st})
	}

	plain := runSeq(openStore(t), false)
	stC := openStore(t)
	compacted := runSeq(stC, true)
	for _, c := range compacted.Campaigns {
		if c.Err != nil || !c.Reused {
			t.Fatalf("final compacted batch campaign %q: err=%v reused=%v", c.Label, c.Err, c.Reused)
		}
	}
	got := fingerprintOf(compacted)
	if !reflect.DeepEqual(got, fingerprintOf(plain)) {
		t.Fatal("resume after compact diverged from resume without compact")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("compacted-store sequence diverged from the uninterrupted reference")
	}

	// The v2 resume moved the index off v1's files, so the final compact
	// actually dropped them — the test would vacuously pass otherwise.
	stats, err := stC.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Removed) != 0 {
		t.Fatalf("final compact left work behind: %+v", stats)
	}
	names, _ := stC.Campaigns()
	for _, name := range names {
		if strings.HasPrefix(name, "v1-") {
			t.Fatalf("superseded v1 snapshot survived compaction: %v", names)
		}
	}
}

// legacySolverJSON is a solver.json in the format stores kept while the
// solver service persisted its proven-UNSAT cache: the first two entries
// `compi sched -targets skeleton -seeds 3 -iters 40 -state-dir` wrote, with
// their checksum. Nothing reads or writes that file now.
const legacySolverJSON = `{"version":1,"canon":1,"entries":[` +
	`{"key":"17b044d0f49cd7fcd4538f8154ce978d","lo":-2147483648,"hi":2147483648},` +
	`{"key":"65f4ad40006d6f952bfd4e9888ccc966","lo":-2147483648,"hi":2147483648}],` +
	`"sum":"c2c6b7b8292cbf63da4cbd1188f9999917f8b299696b4e977a788b4f49774a51"}` + "\n"

// TestStoreIgnoresLegacySolverCache: a store that still holds a solver.json,
// valid or failing its checksum, runs a batch and a reuse pass exactly as a
// store without one does, and leaves the file's bytes as they were.
func TestStoreIgnoresLegacySolverCache(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	const n = 30
	passes := func(st *store.Store) []fingerprint {
		var fps []fingerprint
		for pass := 0; pass < 2; pass++ {
			rep := Run(storeSpecs(n), Options{Workers: 2, Store: st})
			if rep.StoreErr != nil {
				t.Fatalf("pass %d: %v", pass, rep.StoreErr)
			}
			for _, c := range rep.Campaigns {
				if c.Err != nil || c.Reused != (pass == 1) {
					t.Fatalf("pass %d: campaign %q err=%v reused=%v", pass, c.Label, c.Err, c.Reused)
				}
			}
			fps = append(fps, fingerprintOf(rep))
		}
		return fps
	}
	want := passes(openStore(t))

	for name, file := range map[string]string{
		"valid":        legacySolverJSON,
		"bad checksum": strings.Replace(legacySolverJSON, `"sum":"c2`, `"sum":"d2`, 1),
	} {
		t.Run(name, func(t *testing.T) {
			st := openStore(t)
			path := filepath.Join(st.Dir(), "solver.json")
			if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
				t.Fatal(err)
			}
			if got := passes(st); !reflect.DeepEqual(got, want) {
				t.Fatal("a store holding solver.json ran differently from one without it")
			}
			if b, err := os.ReadFile(path); err != nil || string(b) != file {
				t.Fatalf("solver.json was rewritten (err %v)", err)
			}
		})
	}
}
