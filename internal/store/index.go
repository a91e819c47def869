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

	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/mpi"
)

// This file is the campaign index: the store's queryable summary of every
// persisted campaign, one entry per canonical setup key. The index is what
// turns the store from a snapshot filer into a service — `compi report`
// answers "which setups found error X", "coverage by target", and
// "refutations by setup" from index.json alone, without replaying or even
// loading a snapshot.
//
// The index is derived data. Every entry is computed by one function
// (deriveIndexEntry) from exactly three sources — the setup key, its
// SetupRecord, and the campaign snapshot (params resolved from the batch
// manifests) — whether the entry is written incrementally at campaign
// completion (sched.Batch, for sched.Run and the fleet coordinator) or
// rebuilt wholesale by Reindex. Incremental and rebuilt indexes are therefore byte-identical by
// construction, which the store tests pin, and a lost or corrupted
// index.json is never more than one Reindex away from recovery.
//
// index.json is schema-versioned and checksummed: verification failure on
// load reports a descriptive error and the reader falls back to Reindex
// rather than serving garbage.

// IndexVersion is the index.json schema version.
const IndexVersion = 1

// IndexError is one distinct error key a campaign found: the rank status
// class plus the deduplicated message (the same key Result.DistinctErrors
// groups by).
type IndexError struct {
	Status string `json:"status"`
	Msg    string `json:"msg"`
}

// IndexEntry summarizes one campaign: identity (setup key, target, campaign
// file, batch), outcome (iterations, coverage, errors), and refutation
// counts.
type IndexEntry struct {
	Key      string `json:"key"`
	Target   string `json:"target"`
	Campaign string `json:"campaign"`
	Batch    string `json:"batch,omitempty"`
	Iters    int    `json:"iters"`

	// Branches is the campaign's covered-branch count and CoverageFP a
	// fingerprint over the exact covered branch and function sets — two
	// campaigns with equal fingerprints reached identical coverage.
	Branches   int    `json:"branches"`
	CoverageFP string `json:"coverageFP"`

	// Errors is the campaign's distinct error keys, sorted; Deadlocks
	// counts the distinct deadlock keys among them.
	Errors    []IndexError `json:"errors,omitempty"`
	Deadlocks int          `json:"deadlocks,omitempty"`

	// UnsatContrib is the campaign's proven refutations
	// (core.Snapshot.Refutations). RefutedSkips is carried from snapshots
	// written while the solver service kept an UNSAT cache: the calls that
	// cache answered without solving. Neither is part of the coverage
	// fingerprint.
	UnsatContrib int `json:"unsatContrib,omitempty"`
	RefutedSkips int `json:"refutedSkips,omitempty"`

	// Params is the campaign parameter bag, resolved from the batch
	// manifest that ran the setup (params are part of the canonical key,
	// so any manifest entry with this key carries the same bag).
	Params map[string]int64 `json:"params,omitempty"`
}

// indexFile is the persisted index: schema version, entries sorted by key,
// and a checksum over their canonical serialization.
type indexFile struct {
	Version int          `json:"version"`
	Entries []IndexEntry `json:"entries"`
	Sum     string       `json:"sum"`
}

// indexSum checksums the canonical serialization of the entries (JSON, one
// line per entry; encoding/json sorts map keys, so the bytes are
// deterministic in the entry values).
func indexSum(entries []IndexEntry) string {
	h := sha256.New()
	for _, e := range entries {
		b, _ := json.Marshal(e)
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// CoverageFingerprint digests a snapshot's covered branch and function sets
// into the fingerprint index entries carry. Inputs are sorted internally, so
// the fingerprint depends only on the sets.
func CoverageFingerprint(covered []conc.BranchBit, funcs []string) string {
	bits := append([]conc.BranchBit(nil), covered...)
	sort.Slice(bits, func(i, j int) bool { return bits[i] < bits[j] })
	fns := append([]string(nil), funcs...)
	sort.Strings(fns)
	h := sha256.New()
	for _, b := range bits {
		fmt.Fprintf(h, "%d\n", b)
	}
	h.Write([]byte{0})
	for _, f := range fns {
		fmt.Fprintf(h, "%s\n", f)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

func (s *Store) indexPath() string { return filepath.Join(s.dir, "index.json") }

// deriveIndexEntry computes the index entry for one campaign. It is the
// single derivation both the incremental writers and Reindex use.
func deriveIndexEntry(key string, rec SetupRecord, snap *core.Snapshot, params map[string]int64) IndexEntry {
	e := IndexEntry{
		Key:          key,
		Target:       snap.Program,
		Campaign:     rec.Campaign,
		Batch:        rec.Batch,
		Iters:        snap.Iters,
		Branches:     len(snap.Covered),
		CoverageFP:   CoverageFingerprint(snap.Covered, snap.Funcs),
		UnsatContrib: snap.Refutations,
		RefutedSkips: snap.RefutedSkips,
		Params:       params,
	}
	seen := map[IndexError]struct{}{}
	for _, rec := range snap.Errors {
		ie := IndexError{Status: rec.Status.String(), Msg: rec.Msg}
		if _, dup := seen[ie]; dup {
			continue
		}
		seen[ie] = struct{}{}
		e.Errors = append(e.Errors, ie)
		if rec.Status == mpi.StatusDeadlock {
			e.Deadlocks++
		}
	}
	sort.Slice(e.Errors, func(i, j int) bool {
		if e.Errors[i].Msg != e.Errors[j].Msg {
			return e.Errors[i].Msg < e.Errors[j].Msg
		}
		return e.Errors[i].Status < e.Errors[j].Status
	})
	return e
}

// lookupParamsLocked resolves a setup key's campaign parameter bag from the
// batch manifests. Params are hashed into the canonical key, so every
// manifest entry with this key carries the same bag; scanning batch IDs in
// sorted order just makes the (equal) answer deterministic.
func (s *Store) lookupParamsLocked(key string) map[string]int64 {
	ids, err := s.Batches()
	if err != nil {
		return nil
	}
	for _, id := range ids {
		man, err := s.LoadBatch(id)
		if err != nil || man == nil {
			continue
		}
		for _, e := range man.Entries {
			if e.Key == key && e.Spec != nil && len(e.Spec.Params) > 0 {
				return e.Spec.Params
			}
		}
	}
	return nil
}

// readIndexLocked loads and verifies index.json. A missing file is
// (nil, nil); a version mismatch, checksum mismatch, or malformed file is a
// descriptive error — the caller recovers with Reindex, never by trusting
// the bytes.
func (s *Store) readIndexLocked() ([]IndexEntry, error) {
	b, err := os.ReadFile(s.indexPath())
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var f indexFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("store: campaign index: %w — run Reindex to rebuild", err)
	}
	if f.Version != IndexVersion {
		return nil, fmt.Errorf("store: campaign index has schema version %d, want %d — run Reindex to rebuild", f.Version, IndexVersion)
	}
	if got := indexSum(f.Entries); got != f.Sum {
		return nil, fmt.Errorf("store: campaign index checksum mismatch (%s != %s) — run Reindex to rebuild", got, f.Sum)
	}
	return f.Entries, nil
}

// writeIndexLocked sorts the entries by key and atomically rewrites
// index.json with a fresh checksum.
func (s *Store) writeIndexLocked(entries []IndexEntry) error {
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	return WriteAtomic(s.indexPath(), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(indexFile{Version: IndexVersion, Entries: entries, Sum: indexSum(entries)})
	})
}

// IndexCampaign upserts one campaign's index entry — the completion hook
// sched.Batch calls right after MarkExplored succeeds. A
// key the store cannot derive (empty: non-persistable spec) is a no-op. An
// unreadable or corrupted index is rebuilt from scratch instead of patched,
// so the incremental path can never propagate damage.
func (s *Store) IndexCampaign(key string, rec SetupRecord, snap *core.Snapshot) error {
	if key == "" {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := s.readIndexLocked()
	if err != nil {
		_, err := s.reindexLocked()
		return err
	}
	e := deriveIndexEntry(key, rec, snap, s.lookupParamsLocked(key))
	replaced := false
	for i := range entries {
		if entries[i].Key == key {
			entries[i] = e
			replaced = true
			break
		}
	}
	if !replaced {
		entries = append(entries, e)
	}
	return s.writeIndexLocked(entries)
}

// Index returns the verified campaign index, sorted by setup key. A store
// without an index yet returns (nil, nil).
func (s *Store) Index() ([]IndexEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readIndexLocked()
}

// Reindex rebuilds index.json from the setup index and the campaign
// snapshots, returning the number of entries written. The rebuilt index is
// byte-identical to the incrementally maintained one — Reindex is the
// recovery path for a corrupted index and the upgrade path for a store
// written before the index existed.
func (s *Store) Reindex() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reindexLocked()
}

func (s *Store) reindexLocked() (int, error) {
	setups, err := s.readSetups()
	if err != nil {
		return 0, err
	}
	keys := make([]string, 0, len(setups))
	for k := range setups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var entries []IndexEntry
	for _, key := range keys {
		rec := setups[key]
		snap, err := s.LoadCampaign(rec.Campaign)
		if err != nil {
			continue // no snapshot, nothing to summarize
		}
		entries = append(entries, deriveIndexEntry(key, rec, snap, s.lookupParamsLocked(key)))
	}
	if err := s.writeIndexLocked(entries); err != nil {
		return 0, err
	}
	return len(entries), nil
}

// SetupsWithError filters index entries to those whose distinct error set
// contains substr (substring match over the messages; empty matches any
// entry that found at least one error) — the "which setups found error X"
// query.
func SetupsWithError(entries []IndexEntry, substr string) []IndexEntry {
	var out []IndexEntry
	for _, e := range entries {
		for _, ie := range e.Errors {
			if substr == "" || strings.Contains(ie.Msg, substr) {
				out = append(out, e)
				break
			}
		}
	}
	return out
}

// TargetSummary is the per-target rollup ByTarget computes from the index:
// how many setups ran the target, the best single-campaign coverage, the
// distinct error keys across all setups, and the refutation counts.
type TargetSummary struct {
	Target       string `json:"target"`
	Setups       int    `json:"setups"`
	Iters        int    `json:"iters"` // total across setups
	BestBranches int    `json:"bestBranches"`
	Errors       int    `json:"errors"` // distinct keys across setups
	Deadlocks    int    `json:"deadlocks"`
	UnsatContrib int    `json:"unsatContrib"`
	RefutedSkips int    `json:"refutedSkips"`
}

// ByTarget folds index entries into per-target summaries, sorted by target
// name — the "coverage by target" query.
func ByTarget(entries []IndexEntry) []TargetSummary {
	byName := map[string]*TargetSummary{}
	distinct := map[string]map[IndexError]struct{}{}
	for _, e := range entries {
		ts := byName[e.Target]
		if ts == nil {
			ts = &TargetSummary{Target: e.Target}
			byName[e.Target] = ts
			distinct[e.Target] = map[IndexError]struct{}{}
		}
		ts.Setups++
		ts.Iters += e.Iters
		if e.Branches > ts.BestBranches {
			ts.BestBranches = e.Branches
		}
		ts.UnsatContrib += e.UnsatContrib
		ts.RefutedSkips += e.RefutedSkips
		for _, ie := range e.Errors {
			distinct[e.Target][ie] = struct{}{}
		}
	}
	var out []TargetSummary
	for name, ts := range byName {
		ts.Errors = len(distinct[name])
		for ie := range distinct[name] {
			if ie.Status == mpi.StatusDeadlock.String() {
				ts.Deadlocks++
			}
		}
		out = append(out, *ts)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Target < out[j].Target })
	return out
}
