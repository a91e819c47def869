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
// persisted campaign, one entry per canonical setup key, and its only setup
// index. sched.Batch.Start reads it to find a stored exploration of a setup;
// `compi report` answers "which setups found error X", "coverage by
// target", and "refutations by setup" from index.json alone, without
// replaying or even loading a snapshot.
//
// The index is derived data. An entry stands for one batch manifest entry
// that finished the setup (done) or answered it from a stored campaign
// (reused): better picks that manifest entry per key, and deriveIndexEntry
// computes the index entry from it and its campaign snapshot. Both the
// incremental writer (IndexCampaign, called by sched.Batch.Finish for
// sched.Run and the fleet coordinator alike) and Reindex, which rebuilds the
// file from the batch manifests, go through those two functions. An
// incrementally maintained index therefore equals a rebuilt one byte for
// byte (the store tests pin it), with one exception: when two batches
// recorded the same campaign file at the same iterations, a rebuild may name
// the other batch. A lost or corrupted index.json is never more than one
// Reindex away from recovery.
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

	// Params is the campaign parameter bag, from the spec stamped on the
	// manifest entry (params are part of the canonical key, so every
	// manifest entry with this key carries the same bag).
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

// candidate is a batch manifest entry that can stand for its setup in the
// index: one that finished the setup or reused a stored campaign of it.
type candidate struct {
	batch string
	entry BatchEntry
}

// better reports whether a should stand for its setup in the index rather
// than b: the entry recorded at more iterations, then the smaller campaign
// name, then a finished entry before a reused one, then the smaller batch
// ID. IndexCampaign and Reindex both choose with it.
func better(a, b candidate) bool {
	if a.entry.Iters != b.entry.Iters {
		return a.entry.Iters > b.entry.Iters
	}
	if a.entry.Campaign != b.entry.Campaign {
		return a.entry.Campaign < b.entry.Campaign
	}
	if ad, bd := a.entry.Status == StatusDone, b.entry.Status == StatusDone; ad != bd {
		return ad
	}
	return a.batch < b.batch
}

// deriveIndexEntry computes the index entry a manifest entry stands for,
// from the entry (key, campaign file, iterations, batch, params) and the
// campaign's snapshot (everything else). It is the single derivation
// IndexCampaign and Reindex use.
func deriveIndexEntry(c candidate, snap *core.Snapshot) IndexEntry {
	e := IndexEntry{
		Key:          c.entry.Key,
		Target:       snap.Program,
		Campaign:     c.entry.Campaign,
		Batch:        c.batch,
		Iters:        c.entry.Iters,
		Branches:     len(snap.Covered),
		CoverageFP:   CoverageFingerprint(snap.Covered, snap.Funcs),
		UnsatContrib: snap.Refutations,
		RefutedSkips: snap.RefutedSkips,
	}
	if sp := c.entry.Spec; sp != nil && len(sp.Params) > 0 {
		e.Params = sp.Params
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

// IndexCampaign upserts the index entry of a campaign that just finished:
// e is its completed manifest entry in batch, snap its final snapshot. The
// entry replaces the setup's current one when it comes from the same
// manifest entry, or when better ranks it first. A key the store cannot
// derive (empty: non-persistable spec) is a no-op. A missing or unreadable
// index is rebuilt from the manifests first, so an upsert never shrinks the
// index, and so is one whose entry this campaign's file now holds fewer
// iterations of, so the index never falls behind the manifests.
func (s *Store) IndexCampaign(batch string, e BatchEntry, snap *core.Snapshot) error {
	if e.Key == "" {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c := candidate{batch: batch, entry: e}
	same := func(ie IndexEntry) bool { return ie.Batch == batch && ie.Campaign == e.Campaign }
	entries, err := s.readIndexLocked()
	at := findEntry(entries, e.Key)
	if err != nil || entries == nil || at >= 0 && same(entries[at]) && e.Iters < entries[at].Iters {
		if entries, err = s.rebuildLocked(); err != nil {
			return err
		}
		at = findEntry(entries, e.Key)
	}
	switch {
	case at < 0:
		entries = append(entries, deriveIndexEntry(c, snap))
	case same(entries[at]) || better(c, candidate{batch: entries[at].Batch, entry: BatchEntry{
		Campaign: entries[at].Campaign, Iters: entries[at].Iters, Status: StatusDone,
	}}):
		entries[at] = deriveIndexEntry(c, snap)
	}
	return s.writeIndexLocked(entries)
}

// findEntry returns the position of key's entry in entries, or -1.
func findEntry(entries []IndexEntry, key string) int {
	for i := range entries {
		if entries[i].Key == key {
			return i
		}
	}
	return -1
}

// Index returns the verified campaign index, sorted by setup key. A store
// without an index yet returns (nil, nil).
func (s *Store) Index() ([]IndexEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readIndexLocked()
}

// Reindex rebuilds index.json from the batch manifests and the campaign
// snapshots they name, returning the number of entries written: for each
// setup key, the manifest entry better ranks first among those done or
// reused whose snapshot loads. Reindex is the recovery path for a corrupted
// index and the upgrade path for a store written before the index existed.
func (s *Store) Reindex() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reindexLocked()
}

func (s *Store) reindexLocked() (int, error) {
	entries, err := s.rebuildLocked()
	if err != nil {
		return 0, err
	}
	if err := s.writeIndexLocked(entries); err != nil {
		return 0, err
	}
	return len(entries), nil
}

// rebuildLocked derives the index Reindex writes, without writing it.
// Unreadable manifests contribute nothing.
func (s *Store) rebuildLocked() ([]IndexEntry, error) {
	ids, err := s.Batches()
	if err != nil {
		return nil, err
	}
	byKey := map[string][]candidate{}
	for _, id := range ids {
		man, err := s.LoadBatch(id)
		if err != nil || man == nil {
			continue
		}
		for _, e := range man.Entries {
			if e.Key != "" && e.Campaign != "" && (e.Status == StatusDone || e.Status == StatusReused) {
				byKey[e.Key] = append(byKey[e.Key], candidate{batch: id, entry: e})
			}
		}
	}
	var entries []IndexEntry
	for _, cands := range byKey {
		sort.Slice(cands, func(i, j int) bool { return better(cands[i], cands[j]) })
		for _, c := range cands {
			if snap, err := s.LoadCampaign(c.entry.Campaign); err == nil {
				entries = append(entries, deriveIndexEntry(c, snap))
				break
			}
		}
	}
	return entries, nil
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
