// Package coverage accumulates branch coverage across every process of every
// test iteration — the "all recorders" half of COMPI's "one focus and all
// recorders" framework (§III).
//
// Tracker is safe for concurrent use: Merge may union trackers that other
// goroutines are still writing, and readers may query a tracker while it is
// written. The scheduler merges each campaign's tracker into a per-target
// union tracker once the batch has ended (sched.Batch.Report), and the
// fleet coordinator unions each progress snapshot's coverage into its
// status trackers. The record path is sharded — branches hash across 64
// independently locked shards and the covered count is a lock-free atomic —
// so concurrent writers only contend when they land on the same shard at
// the same instant. The batch operations (Merge, Branches) walk every shard
// under its lock; they run once per snapshot or report, not once per branch
// event.
package coverage

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/conc"
)

// nShards is the number of branch shards. Power of two so the shard index is
// a mask; 64 shards make same-shard collisions between a handful of
// concurrently recording engines rare.
const nShards = 64

// shard holds one slice of the branch set.
type shard struct {
	mu      sync.RWMutex
	covered map[conc.BranchBit]struct{}
}

func shardOf(b conc.BranchBit) uint32 { return uint32(b) & (nShards - 1) }

// Tracker is the campaign-wide coverage state.
type Tracker struct {
	shards [nShards]shard
	count  atomic.Int64 // total covered branches (sum over shards)

	// Functions are far fewer than branch events and arrive once per log, so
	// they keep a single lock.
	fmu   sync.RWMutex
	funcs map[string]struct{}
}

// New returns an empty tracker.
func New() *Tracker {
	t := &Tracker{funcs: map[string]struct{}{}}
	for i := range t.shards {
		t.shards[i].covered = map[conc.BranchBit]struct{}{}
	}
	return t
}

// noteBranch admits b into its shard. The fast path — b already covered,
// the overwhelmingly common case mid-campaign — takes only the shard's read
// lock.
func (t *Tracker) noteBranch(b conc.BranchBit) {
	s := &t.shards[shardOf(b)]
	s.mu.RLock()
	_, ok := s.covered[b]
	s.mu.RUnlock()
	if ok {
		return
	}
	s.mu.Lock()
	if _, ok := s.covered[b]; !ok {
		s.covered[b] = struct{}{}
		t.count.Add(1)
	}
	s.mu.Unlock()
}

// noteFunc admits f.
func (t *Tracker) noteFunc(f string) {
	t.fmu.RLock()
	_, ok := t.funcs[f]
	t.fmu.RUnlock()
	if ok {
		return
	}
	t.fmu.Lock()
	if _, ok := t.funcs[f]; !ok {
		t.funcs[f] = struct{}{}
	}
	t.fmu.Unlock()
}

// AddLog merges one process's log into the tracker.
func (t *Tracker) AddLog(l *conc.Log) {
	for _, b := range l.Covered {
		t.noteBranch(b)
	}
	for _, f := range l.Funcs {
		t.noteFunc(f)
	}
}

// AddBranch marks a single branch covered.
func (t *Tracker) AddBranch(b conc.BranchBit) { t.noteBranch(b) }

// AddFunc marks a function encountered.
func (t *Tracker) AddFunc(f string) { t.noteFunc(f) }

// Merge unions src into t (set union of branches and functions). Merging an
// empty tracker is a no-op. Both trackers may be in concurrent use: src is
// snapshotted shard by shard under read locks before t is written, and no
// lock of t is held while a lock of src is, so Merge(a,b) and Merge(b,a)
// from different goroutines cannot deadlock.
func (t *Tracker) Merge(src *Tracker) {
	if src == nil || src == t {
		return
	}
	for _, b := range src.branchSnapshot() {
		t.noteBranch(b)
	}
	for _, f := range src.funcSnapshot() {
		t.noteFunc(f)
	}
}

// branchSnapshot copies the covered set, shard by shard (unsorted).
func (t *Tracker) branchSnapshot() []conc.BranchBit {
	out := make([]conc.BranchBit, 0, t.count.Load())
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		for b := range s.covered {
			out = append(out, b)
		}
		s.mu.RUnlock()
	}
	return out
}

// funcSnapshot copies the function set (unsorted).
func (t *Tracker) funcSnapshot() []string {
	t.fmu.RLock()
	out := make([]string, 0, len(t.funcs))
	for f := range t.funcs {
		out = append(out, f)
	}
	t.fmu.RUnlock()
	return out
}

// Count returns the number of covered branches (lock-free).
func (t *Tracker) Count() int { return int(t.count.Load()) }

// Covered reports whether branch b has been executed.
func (t *Tracker) Covered(b conc.BranchBit) bool {
	s := &t.shards[shardOf(b)]
	s.mu.RLock()
	_, ok := s.covered[b]
	s.mu.RUnlock()
	return ok
}

// SiteTouched reports whether either branch of a conditional site was
// executed.
func (t *Tracker) SiteTouched(site conc.CondID) bool {
	return t.Covered(conc.Bit(site, true)) || t.Covered(conc.Bit(site, false))
}

// Branches returns the covered branches in sorted order.
func (t *Tracker) Branches() []conc.BranchBit {
	out := t.branchSnapshot()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Funcs returns a copy of the set of functions encountered, for the
// reachable-branch estimate.
func (t *Tracker) Funcs() map[string]struct{} {
	t.fmu.RLock()
	defer t.fmu.RUnlock()
	out := make(map[string]struct{}, len(t.funcs))
	for f := range t.funcs {
		out[f] = struct{}{}
	}
	return out
}

// Rate returns covered/total, guarding against a zero denominator.
func (t *Tracker) Rate(total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(t.Count()) / float64(total)
}

// Clone returns an independent copy (used to snapshot per-phase coverage).
func (t *Tracker) Clone() *Tracker {
	n := New()
	n.Merge(t)
	return n
}
