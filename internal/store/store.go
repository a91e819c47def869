// Package store is the campaign store: the versioned, atomically written
// persistence layer every level of the system shares — and the queryable
// system of record over it. COMPI operates through files between executions
// (§IV); the store is that idea grown up — one directory holding
// per-campaign snapshots, the store-wide proven-UNSAT cache keyed on
// canonical constraint forms (shared across targets and batches), batch
// manifests for resumable scheduler runs, a setup index that dedups
// identical shard setups across batches, and a campaign index (index.go)
// that answers cross-campaign questions — which setups found an error, what
// coverage each target reached, who contributed to the solver cache —
// without replaying anything.
//
// Layout of a store directory:
//
//	store.json        — store schema version + expr.CanonVersion at creation
//	campaigns/<name>.json — one core.Snapshot per campaign
//	solver.json       — merged store-wide UNSAT cache entries, checksummed
//	batches/<id>.json — one BatchManifest per scheduler batch
//	setups.json       — setup key → campaign file (cross-batch dedup index)
//	index.json        — per-campaign summary index, checksummed (index.go)
//
// Every write goes through WriteAtomic, so a killed process can truncate
// nothing: readers see the previous complete state. One process owns a store
// directory at a time — Open takes an advisory lockfile (see lock.go) and
// refuses directories another live process holds, naming the holder's PID.
// Within the owning process the store is goroutine-safe.
package store

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/solver"
)

// Version is the store directory schema version.
const Version = 1

// Store is an open campaign store directory.
type Store struct {
	dir      string
	mu       sync.Mutex
	ownsLock bool
}

// storeManifest is the store.json header.
type storeManifest struct {
	Version int `json:"version"`
	Canon   int `json:"canon"`
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
	s := &Store{dir: dir, ownsLock: owns}
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
		return json.NewEncoder(w).Encode(storeManifest{Version: Version, Canon: expr.CanonVersion})
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

// SaveCampaign atomically writes one campaign snapshot under name. It
// encodes the snapshot (core.Snapshot.Save's bytes) before taking the store
// lock, so concurrent campaigns serialize only on the file write.
func (s *Store) SaveCampaign(name string, snap *core.Snapshot) error {
	b, err := snap.MarshalJSON()
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return WriteAtomic(s.campaignPath(name), func(w io.Writer) error {
		_, err := w.Write(append(b, '\n'))
		return err
	})
}

// LoadCampaign reads a campaign snapshot saved under name.
func (s *Store) LoadCampaign(name string) (*core.Snapshot, error) {
	f, err := os.Open(s.campaignPath(name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.LoadSnapshot(f)
}

// Campaigns lists the stored campaign names, sorted.
func (s *Store) Campaigns() ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(s.dir, "campaigns"))
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if n, ok := strings.CutSuffix(e.Name(), ".json"); ok && !strings.HasPrefix(n, ".") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// solverFile is the persisted UNSAT cache: the entries plus everything
// needed to verify on load that serving them is still sound — the canonical-
// form algorithm version they were keyed under and a checksum over the
// entries. Verification failure discards the whole cache: a cold second run
// is always correct, a warm run against re-keyed or corrupted entries might
// not be.
type solverFile struct {
	Version int                 `json:"version"`
	Canon   int                 `json:"canon"`
	Entries []solver.UnsatEntry `json:"entries"`
	Sum     string              `json:"sum"`
}

// entrySum checksums the canonical serialization of the entries.
func entrySum(entries []solver.UnsatEntry) string {
	h := sha256.New()
	for _, e := range entries {
		fmt.Fprintf(h, "%s,%d,%d\n", e.Key, e.Lo, e.Hi)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// SaveSolverCache merges svc's proven-UNSAT cache into the store. The cache
// is store-wide, not per-batch: entries are keyed by expr.CanonicalKey,
// which is rename/reorder-invariant and carries no target identity, so a
// refutation proven under one target warms every later batch on any target.
// Saving therefore unions the service's entries with whatever solver.json
// already holds instead of overwriting it — batches accumulate into one
// shared cache, and a batch that imported nothing can never erase earlier
// batches' contributions. Unverifiable existing entries (stale canon
// version, checksum mismatch) are discarded during the merge, the same
// policy LoadSolverCacheInto applies on read.
func (s *Store) SaveSolverCache(svc *solver.Service) error {
	entries := svc.ExportUnsat()
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, err := s.readSolverEntriesLocked(); err == nil {
		seen := make(map[solver.UnsatEntry]struct{}, len(entries))
		for _, e := range entries {
			seen[e] = struct{}{}
		}
		for _, e := range existing {
			if _, dup := seen[e]; !dup {
				entries = append(entries, e)
			}
		}
		solver.SortUnsatEntries(entries)
	}
	return WriteAtomic(filepath.Join(s.dir, "solver.json"), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(solverFile{
			Version: Version,
			Canon:   expr.CanonVersion,
			Entries: entries,
			Sum:     entrySum(entries),
		})
	})
}

// readSolverEntriesLocked loads and verifies solver.json, returning the
// entries. Missing file is (nil, nil); anything unverifiable is an error
// describing why the cache is unusable.
func (s *Store) readSolverEntriesLocked() ([]solver.UnsatEntry, error) {
	b, err := os.ReadFile(filepath.Join(s.dir, "solver.json"))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var sf solverFile
	if err := json.Unmarshal(b, &sf); err != nil {
		return nil, fmt.Errorf("store: solver cache: %w", err)
	}
	if sf.Version != Version {
		return nil, fmt.Errorf("store: solver cache has store version %d, want %d", sf.Version, Version)
	}
	if sf.Canon != expr.CanonVersion {
		return nil, fmt.Errorf("store: solver cache keyed under canon version %d, this build uses %d — discarding",
			sf.Canon, expr.CanonVersion)
	}
	if got := entrySum(sf.Entries); got != sf.Sum {
		return nil, fmt.Errorf("store: solver cache checksum mismatch (%s != %s) — discarding", got, sf.Sum)
	}
	return sf.Entries, nil
}

// LoadSolverCacheInto imports the persisted UNSAT cache into svc and returns
// the number of entries admitted. Verification-on-load: a missing file is
// (0, nil); a version or expr.CanonVersion mismatch, a checksum mismatch, or
// malformed entries discard the cache entirely — svc is left untouched and
// an error describes why. Stale entries can therefore never change results;
// the worst failure mode is a cold start.
func (s *Store) LoadSolverCacheInto(svc *solver.Service) (int, error) {
	s.mu.Lock()
	entries, err := s.readSolverEntriesLocked()
	s.mu.Unlock()
	if err != nil || entries == nil {
		return 0, err
	}
	return svc.ImportUnsat(entries), nil
}
