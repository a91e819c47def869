// Package coverage accumulates branch coverage across every process of every
// test iteration — the "all recorders" half of COMPI's "one focus and all
// recorders" framework (§III).
//
// A Tracker has one owner at a time and is not safe for concurrent use. An
// engine records into its own tracker; a report unions its campaigns'
// trackers after the batch has drained (sched.Batch.Report, Report.Groups,
// Snapshot.Result); the fleet coordinator writes its status trackers under
// its own lock. Anyone who hands a tracker to another goroutine does so
// through a synchronizing event (a channel send, a WaitGroup, a mutex) and
// stops writing it.
//
// The sets are plain maps rather than a table indexed by branch bit: piped
// rank logs, fleet frames and store files are input from outside the
// program, and a table sized by a bogus bit would be an allocation hazard.
package coverage

import (
	"maps"
	"slices"

	"repro/internal/conc"
)

// Tracker is the campaign-wide coverage state.
type Tracker struct {
	covered map[conc.BranchBit]struct{}
	funcs   map[string]struct{}
}

// New returns an empty tracker.
func New() *Tracker {
	return &Tracker{covered: map[conc.BranchBit]struct{}{}, funcs: map[string]struct{}{}}
}

// AddLog merges one process's log into the tracker.
func (t *Tracker) AddLog(l *conc.Log) {
	for _, b := range l.Covered {
		t.covered[b] = struct{}{}
	}
	for _, f := range l.Funcs {
		t.funcs[f] = struct{}{}
	}
}

// AddBranch marks a single branch covered.
func (t *Tracker) AddBranch(b conc.BranchBit) { t.covered[b] = struct{}{} }

// AddFunc marks a function encountered.
func (t *Tracker) AddFunc(f string) { t.funcs[f] = struct{}{} }

// Merge unions src into t (set union of branches and functions). A nil src
// is a no-op.
func (t *Tracker) Merge(src *Tracker) {
	if src == nil {
		return
	}
	for b := range src.covered {
		t.covered[b] = struct{}{}
	}
	for f := range src.funcs {
		t.funcs[f] = struct{}{}
	}
}

// Count returns the number of covered branches.
func (t *Tracker) Count() int { return len(t.covered) }

// Covered reports whether branch b has been executed.
func (t *Tracker) Covered(b conc.BranchBit) bool {
	_, ok := t.covered[b]
	return ok
}

// Branches returns the covered branches in sorted order.
func (t *Tracker) Branches() []conc.BranchBit {
	out := make([]conc.BranchBit, 0, len(t.covered))
	for b := range t.covered {
		out = append(out, b)
	}
	slices.Sort(out)
	return out
}

// Funcs returns a copy of the set of functions encountered, for the
// reachable-branch estimate.
func (t *Tracker) Funcs() map[string]struct{} { return maps.Clone(t.funcs) }

// Rate returns covered/total, guarding against a zero denominator.
func (t *Tracker) Rate(total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(t.Count()) / float64(total)
}
