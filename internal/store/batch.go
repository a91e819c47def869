package store

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/spec"
)

// Batch entry statuses. A batch whose process was killed leaves entries in
// StatusRunning; the campaign snapshot on disk (written every checkpoint)
// is the authoritative resume point, so at most the in-flight iteration is
// lost.
const (
	StatusPending = "pending"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusReused  = "reused" // answered from a prior batch's campaign
	StatusError   = "error"  // spec error (unknown target etc.)
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
// from it and the setup index.
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

// SetupRecord locates the stored exploration of one canonical campaign
// setup: which campaign file holds it, how many iterations it has run, and
// which batch ran it.
type SetupRecord struct {
	Campaign string `json:"campaign"`
	Iters    int    `json:"iters"`
	Batch    string `json:"batch,omitempty"`
}

// setupsPath is the setup index file.
func (s *Store) setupsPath() string { return filepath.Join(s.dir, "setups.json") }

func (s *Store) readSetups() (map[string]SetupRecord, error) {
	b, err := os.ReadFile(s.setupsPath())
	if os.IsNotExist(err) {
		return map[string]SetupRecord{}, nil
	}
	if err != nil {
		return nil, err
	}
	var m map[string]SetupRecord
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("store: setup index: %w", err)
	}
	if m == nil {
		m = map[string]SetupRecord{}
	}
	return m, nil
}

// MarkExplored records (read-modify-write) that the canonical setup key has
// been explored up to rec.Iters in rec.Campaign. Later batches consult this
// through Explored to skip or resume identical setups.
func (s *Store) MarkExplored(key string, rec SetupRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := s.readSetups()
	if err != nil {
		return err
	}
	m[key] = rec
	return WriteAtomic(s.setupsPath(), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
}

// Explored looks up a canonical setup key in the index.
func (s *Store) Explored(key string) (SetupRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := s.readSetups()
	if err != nil {
		return SetupRecord{}, false
	}
	rec, ok := m[key]
	return rec, ok
}

// Setups returns a copy of the whole setup index.
func (s *Store) Setups() (map[string]SetupRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readSetups()
}
