package store

import (
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestCompactDropsSupersededOnly builds the superseded-file shape by hand: a
// setup re-explored under a new label leaves the old label's file behind,
// referenced only by the old batch manifest. Compact must redirect that
// manifest entry (and that of a second run as far as the index's) to the
// index's file, delete the old files, and touch nothing else — in particular not the checkpoint of a campaign killed mid-run, even
// when the index holds a further snapshot of its setup. It must do the same
// when the index is missing, and leave an index a rebuild reproduces.
func TestCompactDropsSupersededOnly(t *testing.T) {
	for _, missingIndex := range []bool{false, true} {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		snap := func(iters int) *core.Snapshot {
			return &core.Snapshot{Version: core.SnapshotVersion, Program: "p", Iters: iters}
		}
		// record saves a campaign's snapshot and batch manifest, and indexes
		// the entries that finished.
		record := func(id string, entries ...BatchEntry) {
			t.Helper()
			for _, e := range entries {
				if err := s.SaveCampaign(e.Campaign, snap(max(e.Iters, 4))); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.SaveBatch(&BatchManifest{ID: id, Entries: entries}); err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if e.Status == StatusDone {
					if err := s.IndexCampaign(id, e, snap(e.Iters)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		// Batch b1 explored key k1 to 10 iterations under label old, and an
		// unrelated setup k2 to 20.
		record("b1",
			BatchEntry{Label: "old", Key: "k1", Status: StatusDone, Campaign: "old-k1", Iters: 10},
			BatchEntry{Label: "solo", Key: "k2", Status: StatusDone, Campaign: "solo-k2", Iters: 20})
		// Batch b2 resumed k1 to 30 under label new; the index moved with it.
		// Batch b0 ran k1 to 30 under label twin as well; the index keeps
		// new's file, the smaller name.
		record("b2", BatchEntry{Label: "new", Key: "k1", Status: StatusDone, Campaign: "new-k1", Iters: 30})
		record("b0", BatchEntry{Label: "twin", Key: "k1", Status: StatusDone, Campaign: "twin-k1", Iters: 30})
		// Two campaigns killed mid-run (each in a manifest, running, its
		// checkpoint on disk), one of them a relabeled run of k1.
		record("b3",
			BatchEntry{Label: "running", Key: "k3", Status: StatusRunning, Campaign: "running-k3"},
			BatchEntry{Label: "retry", Key: "k1", Status: StatusRunning, Campaign: "retry-k1"})
		if missingIndex {
			if err := os.Remove(s.indexPath()); err != nil {
				t.Fatal(err)
			}
		}

		st, err := s.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st.Removed, []string{"old-k1", "twin-k1"}) {
			t.Fatalf("removed %v, want exactly [old-k1 twin-k1]", st.Removed)
		}
		if st.Kept != 4 || st.Rewritten != 2 {
			t.Fatalf("kept=%d rewritten=%d, want 4 and 2", st.Kept, st.Rewritten)
		}
		names, _ := s.Campaigns()
		if !reflect.DeepEqual(names, []string{"new-k1", "retry-k1", "running-k3", "solo-k2"}) {
			t.Fatalf("surviving campaigns %v", names)
		}
		// b0's and b1's entries now point at the file that actually holds
		// k1's exploration; b3's interrupted entry still points at its own.
		for _, id := range []string{"b0", "b1"} {
			if man, _ := s.LoadBatch(id); man.Entries[0].Campaign != "new-k1" {
				t.Fatalf("%s entry not redirected: %+v", id, man.Entries[0])
			}
		}
		if b3, _ := s.LoadBatch("b3"); b3.Entries[1].Campaign != "retry-k1" {
			t.Fatalf("interrupted entry redirected: %+v", b3.Entries[1])
		}
		if got, err := s.LoadCampaign("new-k1"); err != nil || got.Iters != 30 {
			t.Fatalf("authoritative snapshot damaged: %v %v", got, err)
		}
		compacted, err := os.ReadFile(s.indexPath())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Reindex(); err != nil {
			t.Fatal(err)
		}
		if rebuilt, _ := os.ReadFile(s.indexPath()); string(rebuilt) != string(compacted) {
			t.Fatalf("index after compact differs from a rebuild:\n%s\nvs\n%s", compacted, rebuilt)
		}

		// Idempotent: a second pass finds nothing to do.
		st2, err := s.Compact()
		if err != nil || len(st2.Removed) != 0 || st2.Rewritten != 0 || st2.Kept != 4 {
			t.Fatalf("second compact not a no-op: %+v (%v)", st2, err)
		}
	}
}
