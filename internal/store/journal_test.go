package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

var errInjected = errors.New("injected write fault")

// faultAt makes the nth write through the fileWrite seam, counted from the
// call, fail without writing, or, with tear set, write half its bytes and
// then fail, the way a crash or a full disk leaves a write.
func faultAt(t *testing.T, n int, tear bool) {
	t.Helper()
	calls, saved := 0, fileWrite
	fileWrite = func(f *os.File, b []byte) (int, error) {
		if calls++; calls != n {
			return f.Write(b)
		}
		if !tear {
			return 0, errInjected
		}
		k, _ := f.Write(b[:len(b)/2])
		return k, errInjected
	}
	t.Cleanup(func() { fileWrite = saved })
}

// campaignAt is a campaign's snapshot after k iterations: one stat per
// iteration and an error record every third.
func campaignAt(k int) *core.Snapshot {
	s := &core.Snapshot{
		Version: core.SnapshotVersion, Program: "p", Iters: k, RNG: uint64(k),
		Inputs: map[string]int64{"x": int64(k)}, Prev: map[string]int64{},
	}
	for i := 0; i < k; i++ {
		s.Stats = append(s.Stats, core.IterationStat{Iter: i, Covered: i})
		if i%3 == 0 {
			s.Errors = append(s.Errors, core.ErrorRecord{Iter: i, Msg: "crash"})
		}
	}
	return s
}

// requireLoads requires campaign name to load as campaignAt(k), or not to
// load when k is 0.
func requireLoads(t *testing.T, s *Store, name string, k int) {
	t.Helper()
	got, err := s.LoadCampaign(name)
	if k == 0 {
		if err == nil {
			t.Fatalf("loaded a campaign at iteration %d, want none", got.Iters)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	var g, w bytes.Buffer
	got.Save(&g)
	campaignAt(k).Save(&w)
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		t.Fatalf("loaded\n %s\nwant the campaign at iteration %d\n %s", g.Bytes(), k, w.Bytes())
	}
}

// TestJournalWriteFaults fails, then tears, the nth of a campaign's twelve
// appends. The failed append reports its error; right after it the campaign
// loads at the last record that landed, so a torn record is dropped; and
// the appends after it cut the torn bytes and continue the campaign, so the
// journal ends whole.
func TestJournalWriteFaults(t *testing.T) {
	const records = 12
	for _, tear := range []bool{false, true} {
		for n := 1; n <= records; n++ {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			faultAt(t, n, tear)
			for k := 1; k <= records; k++ {
				err := s.AppendCampaign("c", campaignAt(k))
				if (err != nil) != (k == n) {
					t.Fatalf("tear=%v n=%d: append %d returned %v", tear, n, k, err)
				}
				if k == n {
					requireLoads(t, s, "c", n-1)
				}
			}
			if n == records {
				s.Close()
				continue
			}
			requireLoads(t, s, "c", records)
			if c, err := s.loadCampaign("c"); err != nil || c.valid != c.size {
				t.Fatalf("tear=%v n=%d: journal holds %d bytes past its valid %d (%v)", tear, n, c.size-c.valid, c.valid, err)
			}
			s.Close()
		}
	}
}

// TestFoldWriteFault tears the fold's snapshot write. SaveCampaign reports
// it, leaves no temp file, and the journal still loads the campaign; a
// retried fold writes the snapshot and removes the journal.
func TestFoldWriteFault(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.SaveCampaign("c", campaignAt(2)); err != nil {
		t.Fatal(err)
	}
	for k := 3; k <= 6; k++ {
		if err := s.AppendCampaign("c", campaignAt(k)); err != nil {
			t.Fatal(err)
		}
	}
	faultAt(t, 1, true)
	if err := s.SaveCampaign("c", campaignAt(6)); !errors.Is(err, errInjected) {
		t.Fatalf("torn fold returned %v", err)
	}
	ents, err := os.ReadDir(filepath.Join(s.Dir(), "campaigns"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".") {
			t.Fatalf("torn fold left %s", e.Name())
		}
	}
	requireLoads(t, s, "c", 6)
	if n, err := s.Unfolded("c"); err != nil || n != 4 {
		t.Fatalf("after a torn fold: %d unfolded iterations (%v), want 4", n, err)
	}
	if err := s.SaveCampaign("c", campaignAt(6)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.journalPath("c")); !os.IsNotExist(err) {
		t.Fatalf("journal left after the fold: %v", err)
	}
	requireLoads(t, s, "c", 6)
}

// TestJournalAppendsOnlyAhead: a checkpoint no further than what the store
// holds appends nothing, whether the journal or the folded snapshot holds
// it, and a store handle opened later continues the journal another left.
func TestJournalAppendsOnlyAhead(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	size := func() int64 {
		fi, err := os.Stat(s.journalPath("c"))
		if err != nil {
			return 0
		}
		return fi.Size()
	}
	for _, k := range []int{1, 4, 2, 4} {
		if err := s.AppendCampaign("c", campaignAt(k)); err != nil {
			t.Fatal(err)
		}
	}
	grown := size()
	if err := s.AppendCampaign("c", campaignAt(3)); err != nil || size() != grown {
		t.Fatalf("a checkpoint behind the journal appended %d bytes (%v)", size()-grown, err)
	}
	requireLoads(t, s, "c", 4)

	again, err := Open(dir) // same process: a second handle on the store
	if err != nil {
		t.Fatal(err)
	}
	if err := again.AppendCampaign("c", campaignAt(7)); err != nil {
		t.Fatal(err)
	}
	requireLoads(t, again, "c", 7)
	if err := again.SaveCampaign("c", campaignAt(7)); err != nil {
		t.Fatal(err)
	}
	if err := again.AppendCampaign("c", campaignAt(5)); err != nil || size() != 0 {
		t.Fatalf("a checkpoint behind the folded snapshot started a journal (%v)", err)
	}
	requireLoads(t, again, "c", 7)
}

// TestCampaignsListsJournals: a campaign with only a journal is listed, and
// one with a snapshot and a journal is listed once.
func TestCampaignsListsJournals(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.SaveCampaign("both", campaignAt(2)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"both", "journal-only"} {
		if err := s.AppendCampaign(name, campaignAt(3)); err != nil {
			t.Fatal(err)
		}
	}
	names, err := s.Campaigns()
	if err != nil || strings.Join(names, ",") != "both,journal-only" {
		t.Fatalf("campaigns %v (%v)", names, err)
	}
	if n, err := s.Unfolded("both"); err != nil || n != 1 {
		t.Fatalf("both: %d unfolded iterations (%v), want 1", n, err)
	}
}

// TestCompactFoldsJournals: Compact folds the journal of a campaign a
// manifest still references and removes both files of one nothing
// references.
func TestCompactFoldsJournals(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, name := range []string{"kept", "dropped"} {
		if err := s.SaveCampaign(name, campaignAt(2)); err != nil {
			t.Fatal(err)
		}
		for k := 3; k <= 5; k++ {
			if err := s.AppendCampaign(name, campaignAt(k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.SaveBatch(&BatchManifest{ID: "b", Entries: []BatchEntry{
		{Label: "kept", Key: "k", Status: StatusRunning, Campaign: "kept"},
	}}); err != nil {
		t.Fatal(err)
	}
	st, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.Folded != 1 || st.Kept != 1 || strings.Join(st.Removed, ",") != "dropped" {
		t.Fatalf("compact stats %+v, want kept folded and dropped removed", st)
	}
	for _, path := range []string{s.journalPath("kept"), s.journalPath("dropped"), s.campaignPath("dropped")} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s left after compaction: %v", path, err)
		}
	}
	requireLoads(t, s, "kept", 5)
	if n, err := s.Unfolded("kept"); err != nil || n != 0 {
		t.Fatalf("kept: %d unfolded iterations after compaction (%v)", n, err)
	}
}

// TestJournalConcurrentAppends checkpoints one campaign from four
// goroutines, each sending every snapshot in its own order, as reclaimed and
// re-leased fleet shards can. Every record lands whole and continues the
// journal, so the campaign loads at the furthest snapshot, and the fold
// racing the last appends leaves that snapshot too. Run it under -race.
func TestJournalConcurrentAppends(t *testing.T) {
	const n, writers = 24, 4
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := s.AppendCampaign("c", campaignAt(1+(i*(w+1))%n)); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	requireLoads(t, s, "c", n)
	if c, err := s.loadCampaign("c"); err != nil || c.valid != c.size {
		t.Fatalf("journal holds %d bytes past its valid %d (%v)", c.size-c.valid, c.valid, err)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var err error
			if w == 0 {
				err = s.SaveCampaign("c", campaignAt(n))
			} else {
				err = s.AppendCampaign("c", campaignAt(n-w))
			}
			if err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	requireLoads(t, s, "c", n)
}
