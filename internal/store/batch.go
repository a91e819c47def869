package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/spec"
)

// Batch entry statuses. A batch whose process was killed leaves entries in
// StatusRunning. The campaign's own snapshot with its journal, which every
// checkpoint extends, is then its resume point: rerunning the batch resumes
// from it (or from the index's snapshot of the setup, when that got
// further), so a killed batch loses only the iterations since its last
// checkpoint.
const (
	StatusPending = "pending"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusReused  = "reused" // answered from a stored campaign
	StatusError   = "error"  // spec error, or a failed completion write
)

// BatchEntry is one campaign of a scheduler batch.
type BatchEntry struct {
	Label    string `json:"label"`
	Key      string `json:"key,omitempty"` // setup key; empty = not persistable
	Status   string `json:"status"`
	Campaign string `json:"campaign,omitempty"` // campaign file name (no .json)
	Iters    int    `json:"iters,omitempty"`
	Error    string `json:"error,omitempty"`

	// Spec is the portable campaign this entry ran, stamped by
	// sched.NewBatch so a manifest is self-describing: `compi store`
	// can show what a batch actually asked for, and a reloaded batch whose
	// spec drifted from the stored one is detected (and diffed) instead of
	// silently reattached. Nil for entries written before the spec layer
	// existed or for non-portable specs.
	Spec *spec.Campaign `json:"spec,omitempty"`
}

// BatchManifest records a scheduler batch: which campaigns it contains and
// how far each has come. sched.Batch writes it, for sched.Run and the fleet
// coordinator alike, when a store is attached; re-running the batch resumes
// every campaign from its own checkpoint file or the campaign index's, and
// Reindex rebuilds the index from the manifests' done and reused entries.
type BatchManifest struct {
	ID      string       `json:"id"`
	Entries []BatchEntry `json:"entries"`
}

// SaveBatch atomically writes the batch manifest.
func (s *Store) SaveBatch(m *BatchManifest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saveBatch(m)
}

// LoadBatch reads a batch manifest by ID; a missing batch returns
// (nil, nil).
func (s *Store) LoadBatch(id string) (*BatchManifest, error) {
	b, err := os.ReadFile(filepath.Join(s.dir, "batches", id+".json"))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m BatchManifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("store: batch %s: %w", id, err)
	}
	return &m, nil
}

// Batches lists the stored batch IDs, sorted.
func (s *Store) Batches() ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(s.dir, "batches"))
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range ents {
		if id, ok := strings.CutSuffix(e.Name(), ".json"); ok && !strings.HasPrefix(id, ".") {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids, nil
}
