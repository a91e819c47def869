package store

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// CompactStats summarizes one Compact pass.
type CompactStats struct {
	// Removed lists the campaigns deleted, snapshot and journal, sorted.
	Removed []string
	// Kept is the number of campaigns retained.
	Kept int
	// Rewritten is the number of batch manifest entries redirected to the
	// campaign index's authoritative campaign file.
	Rewritten int
	// Folded is the number of retained campaigns whose journal, left by an
	// interrupted campaign, was folded into their snapshot.
	Folded int
}

// Compact drops superseded campaign snapshot files. A snapshot is superseded
// when the campaign index points the same canonical setup at a different,
// at-least-as-far-explored campaign file — which happens whenever a later
// batch resumes a setup under a different label: the longer snapshot is saved
// under the new label's file and the index moves, leaving the old file as
// dead weight.
//
// Compaction keeps exactly what resume can reach (sched.Batch.Start reads the
// index's file for a setup and the campaign's own file). Every file the index
// names survives. So does the file of every manifest entry that is neither
// done nor reused: it is an interrupted campaign's checkpoint, the point its
// batch resumes from. Done and reused entries pointing at a superseded file
// are rewritten to the index's file (so `compi store` inspection stays
// consistent, and the index is then rewritten from the manifests, as Reindex
// would), and only then are unreferenced files removed. Resuming after a
// Compact therefore reads the same snapshots as resuming before it — the
// equality the store test suite pins. A missing or unreadable index is
// rebuilt from the manifests first. Every retained campaign with a journal
// is folded as Finish folds it: its snapshot rewritten with the journal's
// records applied, then the journal removed. A campaign that does not load
// is left as it is, for the resume path to start over.
func (s *Store) Compact() (CompactStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st CompactStats

	entries, err := s.readIndexLocked()
	if err != nil || entries == nil {
		if entries, err = s.rebuildLocked(); err != nil {
			return st, err
		}
	}
	indexed := map[string]IndexEntry{}
	referenced := map[string]bool{}
	for _, e := range entries {
		indexed[e.Key] = e
		referenced[e.Campaign] = true
	}

	// Redirect finished entries whose file the index has superseded, then
	// count whatever the manifests still reference as live.
	ids, err := s.Batches()
	if err != nil {
		return st, err
	}
	for _, id := range ids {
		man, err := s.LoadBatch(id)
		if err != nil || man == nil {
			continue // an unreadable manifest pins nothing, but aborts nothing
		}
		changed := false
		for i := range man.Entries {
			e := &man.Entries[i]
			if e.Key == "" || e.Campaign == "" {
				continue
			}
			idx, ok := indexed[e.Key]
			if ok && (e.Status == StatusDone || e.Status == StatusReused) &&
				idx.Campaign != e.Campaign && idx.Iters >= e.Iters {
				e.Campaign = idx.Campaign
				st.Rewritten++
				changed = true
			}
			referenced[e.Campaign] = true
		}
		if changed {
			if err := s.saveBatch(man); err != nil {
				return st, err
			}
		}
	}
	if st.Rewritten > 0 {
		if _, err := s.reindexLocked(); err != nil {
			return st, err
		}
	}

	names, err := s.Campaigns()
	if err != nil {
		return st, err
	}
	for _, name := range names {
		if referenced[name] {
			st.Kept++
			folded, err := s.foldJournal(name)
			if err != nil {
				return st, err
			}
			if folded {
				st.Folded++
			}
			continue
		}
		for _, path := range []string{s.campaignPath(name), s.journalPath(name)} {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return st, err
			}
		}
		st.Removed = append(st.Removed, name)
	}
	return st, nil
}

// foldJournal folds campaign name's journal, if it has one and the
// campaign loads, and reports whether it did.
func (s *Store) foldJournal(name string) (bool, error) {
	j := s.journal(name)
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := os.Stat(s.journalPath(name)); err != nil {
		return false, nil
	}
	c, err := s.loadCampaign(name)
	if err != nil {
		return false, nil
	}
	return true, s.foldLocked(name, j, c.snap)
}

// saveBatch is SaveBatch for callers already holding s.mu.
func (s *Store) saveBatch(m *BatchManifest) error {
	if m.ID == "" {
		return fmt.Errorf("store: batch manifest without ID")
	}
	return WriteAtomic(filepath.Join(s.dir, "batches", m.ID+".json"), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
}
