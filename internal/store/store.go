// Package store is the campaign store: the versioned, atomically written
// persistence layer every level of the system shares — and the queryable
// system of record over it. COMPI operates through files between executions
// (§IV); the store is that idea grown up — one directory holding
// per-campaign snapshots, batch manifests for resumable scheduler runs, and
// a campaign index (index.go), one entry per canonical setup, that both
// dedups identical setups across batches and answers cross-campaign
// questions — which setups found an error, what coverage each target
// reached, which campaigns proved refutations — without replaying anything.
//
// Layout of a store directory:
//
//	store.json        — store schema version
//	campaigns/<name>.json — one core.Snapshot per campaign, as last folded
//	campaigns/<name>.log  — the checkpoints since, one record each (journal.go)
//	batches/<id>.json — one BatchManifest per scheduler batch
//	index.json        — setup key → campaign file and summary, checksummed (index.go)
//
// A setups.json or solver.json that earlier versions wrote is left in place
// and ignored, and a build that predates journals ignores the .log files.
//
// Every file but a journal is written through WriteAtomic, so a killed
// process can truncate none of them: readers see the previous complete
// state. A journal's torn tail is dropped when it is read. One process owns
// a store directory at a time — Open takes an advisory lockfile (see
// lock.go) and refuses directories another live process holds, naming the
// holder's PID. Within the owning process the store is goroutine-safe.
package store

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
)

// Version is the store directory schema version.
const Version = 1

// Store is an open campaign store directory.
type Store struct {
	dir      string
	mu       sync.Mutex
	ownsLock bool

	jmu      sync.Mutex // guards journals
	journals map[string]*journal
}

// storeManifest is the store.json header. Stores written by earlier builds
// also carry a "canon" field, which is ignored; those builds ignore its
// absence in turn.
type storeManifest struct {
	Version int `json:"version"`
}

// Open opens (creating if necessary) a campaign store at dir and takes the
// directory's advisory lock. It refuses directories written by a newer store
// schema, and directories locked by another live process (a *LockHeldError
// naming the holder PID). Release the lock with Close; locks left behind by
// dead processes are reclaimed automatically.
func Open(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, "campaigns"), filepath.Join(dir, "batches")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	owns, err := acquireLock(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, ownsLock: owns, journals: map[string]*journal{}}
	manifestPath := filepath.Join(dir, "store.json")
	if b, err := os.ReadFile(manifestPath); err == nil {
		var m storeManifest
		if err := json.Unmarshal(b, &m); err != nil {
			s.Close()
			return nil, fmt.Errorf("store: %s: %w", manifestPath, err)
		}
		if m.Version > Version {
			s.Close()
			return nil, fmt.Errorf("store: %s has schema version %d, this build supports ≤ %d",
				dir, m.Version, Version)
		}
		return s, nil
	}
	if err := WriteAtomic(manifestPath, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(storeManifest{Version: Version})
	}); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// CampaignName derives a filesystem-safe campaign file name from a label
// plus a disambiguating key suffix (labels alone may collide after
// sanitization).
func CampaignName(label, key string) string {
	var b strings.Builder
	for _, r := range label {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	name := b.String()
	if len(name) > 80 {
		name = name[:80]
	}
	if key != "" {
		if len(key) > 12 {
			key = key[:12]
		}
		name += "-" + key
	}
	return name
}

// campaignPath is the snapshot file a campaign name persists under.
func (s *Store) campaignPath(name string) string {
	return filepath.Join(s.dir, "campaigns", name+".json")
}

// SaveCampaign folds a campaign: it atomically writes snap as name's
// snapshot, then removes name's journal, whose records snap supersedes.
// Campaigns fold and append concurrently, each serialized on its own.
func (s *Store) SaveCampaign(name string, snap *core.Snapshot) error {
	j := s.journal(name)
	j.mu.Lock()
	defer j.mu.Unlock()
	return s.foldLocked(name, j, snap)
}

// LoadCampaign reads a campaign saved under name: its snapshot, if any,
// with its journal's records applied.
func (s *Store) LoadCampaign(name string) (*core.Snapshot, error) {
	c, err := s.loadCampaign(name)
	if err != nil {
		return nil, err
	}
	return c.snap, nil
}

// Campaigns lists the stored campaign names, sorted: every campaign with a
// snapshot, a journal or both.
func (s *Store) Campaigns() ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(s.dir, "campaigns"))
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok {
			n, ok = strings.CutSuffix(e.Name(), ".log")
		}
		if ok && !strings.HasPrefix(n, ".") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return slices.Compact(names), nil
}
