package sched

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

// journaledRun is a store-backed run of killSpec("B", n) with everything
// its campaign journal held: the journal's bytes after the last checkpoint,
// the offset each record ends at, and the snapshot (as Save writes it) each
// record took the campaign to.
type journaledRun struct {
	dir, name string
	journal   []byte
	ends      []int
	snaps     [][]byte
}

// runJournaled runs killSpec("B", n) into a fresh store and captures its
// journal before Finish folds it away.
func runJournaled(t *testing.T, n int) journaledRun {
	t.Helper()
	st := openStore(t)
	defer st.Close()
	sp := killSpec("B", n)
	key, _ := SetupKey(sp)
	r := journaledRun{dir: st.Dir(), name: store.CampaignName(sp.label(), key)}
	log := filepath.Join(st.Dir(), "campaigns", r.name+".log")
	sp.Overrides.Checkpoint = func(s *core.Snapshot) {
		b, err := os.ReadFile(log)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		r.journal = b
		r.ends = append(r.ends, len(b))
		r.snaps = append(r.snaps, buf.Bytes())
	}
	if rep := Run([]Spec{sp}, Options{Workers: 1, Store: st}); rep.StoreErr != nil {
		t.Fatal(rep.StoreErr)
	}
	if len(r.ends) != n {
		t.Fatalf("%d checkpoints for %d iterations", len(r.ends), n)
	}
	if _, err := os.Stat(log); !os.IsNotExist(err) {
		t.Fatalf("journal left after Finish: %v", err)
	}
	return r
}

// storeWithJournal opens a fresh store whose campaign r.name has journal as
// its only file.
func storeWithJournal(t *testing.T, r journaledRun, journal []byte) *store.Store {
	t.Helper()
	st := openStore(t)
	if err := os.WriteFile(filepath.Join(st.Dir(), "campaigns", r.name+".log"), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	return st
}

// checkLoads requires campaign r.name in st to load as the snapshot of its
// first complete records (none: nothing loads).
func checkLoads(t *testing.T, st *store.Store, r journaledRun, complete int) {
	t.Helper()
	snap, err := st.LoadCampaign(r.name)
	if complete == 0 {
		if err == nil {
			t.Fatalf("a journal without a complete record loaded a campaign at iteration %d", snap.Iters)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := snap.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), r.snaps[complete-1]) {
		t.Fatalf("loaded %d iterations, want the snapshot of record %d:\n got  %s\n want %s",
			snap.Iters, complete, got.Bytes(), r.snaps[complete-1])
	}
}

// checkResumes reruns killSpec("B", n) on st: it must run exactly the
// iterations the store does not hold and equal the uninterrupted run. Its
// last checkpoint, appended after whatever the cut left, must load before
// Finish folds it. A campaign the rerun finished is left folded; one the
// store already held whole is reattached as it is.
func checkResumes(t *testing.T, st *store.Store, r journaledRun, n, held int, want fingerprint) {
	t.Helper()
	ran := 0
	sp := killSpec("B", n)
	sp.Overrides.Trace = func(core.IterationStat) { ran++ }
	sp.Overrides.Checkpoint = func(s *core.Snapshot) {
		if s.Iters < n {
			return
		}
		if snap, err := st.LoadCampaign(r.name); err != nil || snap.Iters != n {
			t.Errorf("the rerun's last checkpoint does not load: %v", err)
		}
	}
	rep := Run([]Spec{sp}, Options{Workers: 1, Store: st})
	if rep.StoreErr != nil {
		t.Fatal(rep.StoreErr)
	}
	if ran != n-held {
		t.Fatalf("rerun ran %d iterations, want %d", ran, n-held)
	}
	if got := fingerprintOf(rep); !reflect.DeepEqual(got, want) {
		t.Fatal("resumed campaign differs from the uninterrupted run")
	}
	if unfolded, err := st.Unfolded(r.name); held < n && (err != nil || unfolded != 0) {
		t.Fatalf("after the rerun the campaign has %d unfolded iterations (%v)", unfolded, err)
	}
}

// TestJournalTruncatedResume cuts the journal of a 40-iteration campaign at
// every record boundary, in the middle of every record's header and in the
// middle of every record's payload. Each cut must load as the snapshot of
// the last complete record, and the rerun must run only the iterations
// after it and equal the uninterrupted run.
func TestJournalTruncatedResume(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	const n = 40
	want := fingerprintOf(Run([]Spec{killSpec("B", n)}, Options{Workers: 1}))
	r := runJournaled(t, n)
	start := 0
	for k, end := range r.ends {
		for _, cut := range []int{start, start + 4, (start + end) / 2} {
			st := storeWithJournal(t, r, r.journal[:cut])
			checkLoads(t, st, r, k)
			checkResumes(t, st, r, n, k, want)
			st.Close()
		}
		start = end
	}
	st := storeWithJournal(t, r, r.journal)
	checkLoads(t, st, r, n)
	checkResumes(t, st, r, n, n, want)
	st.Close()
}

// TestJournalFlippedChecksum flips a checksum byte of record k: the load
// drops record k and every record after it, and the rerun runs them again.
func TestJournalFlippedChecksum(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	const n = 40
	want := fingerprintOf(Run([]Spec{killSpec("B", n)}, Options{Workers: 1}))
	r := runJournaled(t, n)
	start := 0
	for k, end := range r.ends {
		flipped := bytes.Clone(r.journal)
		flipped[start+5] ^= 0x40
		st := storeWithJournal(t, r, flipped)
		checkLoads(t, st, r, k)
		if k == n/2 {
			checkResumes(t, st, r, n, k, want)
		}
		st.Close()
		start = end
	}
}

// TestJournalFoldCrash puts a finished campaign's journal back beside the
// snapshot Finish folded it into, as a crash between the snapshot write and
// the journal's removal leaves them. The campaign loads once, not twice,
// and the rerun reattaches it without running an iteration.
func TestJournalFoldCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	const n = 40
	want := fingerprintOf(Run([]Spec{killSpec("B", n)}, Options{Workers: 1}))
	r := runJournaled(t, n)
	if err := os.WriteFile(filepath.Join(r.dir, "campaigns", r.name+".log"), r.journal, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(r.dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	checkLoads(t, st, r, n)
	if snap, _ := st.LoadCampaign(r.name); len(snap.Stats) != n || snap.Iters != n {
		t.Fatalf("folded campaign loads %d stats at iteration %d, want %d", len(snap.Stats), snap.Iters, n)
	}
	rep := Run([]Spec{killSpec("B", n)}, Options{Workers: 1, Store: st})
	if rep.StoreErr != nil || !rep.Campaigns[0].Reused {
		t.Fatalf("rerun did not reattach the folded campaign (reused %v, store error %v)", rep.Campaigns[0].Reused, rep.StoreErr)
	}
	if got := fingerprintOf(rep); !reflect.DeepEqual(got, want) {
		t.Fatal("reattached campaign differs from the uninterrupted run")
	}
}

// TestStoreWithoutJournalResumes: a store written before journals existed
// holds only snapshots. The committed v3 fixture (skeleton, seed 3, taken at
// iteration 70 of 120) as a campaign's own file resumes unchanged: the
// rerun runs the 50 iterations left and equals the uninterrupted run.
func TestStoreWithoutJournalResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	raw, err := os.ReadFile("../core/testdata/snapshot_v3_refuted.json")
	if err != nil {
		t.Fatal(err)
	}
	sp := skeletonSpec(3)
	sp.Iterations = 120
	want := fingerprintOf(Run([]Spec{sp}, Options{Workers: 1}))
	st := openStore(t)
	defer st.Close()
	key, _ := SetupKey(sp)
	name := store.CampaignName(sp.label(), key)
	if err := os.WriteFile(filepath.Join(st.Dir(), "campaigns", name+".json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ran := 0
	sp.Overrides.Trace = func(core.IterationStat) { ran++ }
	rep := Run([]Spec{sp}, Options{Workers: 1, Store: st})
	if rep.StoreErr != nil {
		t.Fatal(rep.StoreErr)
	}
	if ran != 50 {
		t.Fatalf("rerun ran %d iterations, want 50", ran)
	}
	if got := fingerprintOf(rep); !reflect.DeepEqual(got, want) {
		t.Fatal("campaign resumed from a journal-less store differs from the uninterrupted run")
	}
}
