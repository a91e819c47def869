package sched

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/spec"
	"repro/internal/store"
)

// Batch is one batch of campaigns: each spec's Campaign and, when a store is
// attached, every store write the batch makes. It is the one batch state
// machine. Run's worker pool drives it with in-process engines; the fleet
// coordinator drives it as it grants, checkpoints, completes, fails and
// reclaims leases. Per campaign:
//
//  1. Start loads the further of two stored snapshots of the spec's
//     canonical setup: the one the store's campaign index names, and the
//     campaign's own, whose journal its checkpoints extend. One that already
//     covers the requested iterations is *reused*: the Result is rebuilt from
//     the snapshot and no engine runs. A shorter one is returned as the
//     *resume* snapshot; by the snapshot determinism contract, restoring it
//     and running the remaining iterations equals running the whole campaign
//     at once.
//  2. Checkpoint appends the running campaign's progress to its own journal,
//     so a killed batch loses at most the iterations since the last
//     checkpoint.
//  3. Finish folds the final snapshot into the campaign's own file and, only
//     once that write succeeded, records the campaign in the campaign index.
//     Fail records a spec error; Requeue returns a reclaimed lease's campaign
//     to pending.
//
// Re-running the same batch therefore reattaches every finished campaign and
// continues every interrupted one. A failed store write never changes a
// result in memory: it is kept, labelled with its campaign, and reported as
// Report.StoreErr.
//
// Calls for one campaign are serialized by that campaign's lock; calls for
// different campaigns run concurrently. Report is called after every
// campaign is resolved.
type Batch struct {
	camps []Campaign
	st    *store.Store
	keys  []string     // setup key per spec; "" = not persisted
	locks []sync.Mutex // one per campaign, held by each call for it

	mu   sync.Mutex // guards man and errs
	man  *store.BatchManifest
	errs []error
}

// SetupKey returns the canonical setup key of a spec, or ok=false when the
// spec is not persistable: live Overrides the key cannot name (a strategy
// factory, a caller-owned Backend) explore a trajectory the store cannot
// promise to reproduce. The key itself is spec.Campaign.Canonical — one
// definition shared by the store index and the batch manifests, so a fleet
// store and a sched store dedup against each other.
func SetupKey(sp Spec) (string, bool) {
	o := sp.Overrides
	if o.NewStrategy != nil || o.Backend != nil {
		return "", false
	}
	c := sp.Campaign
	if o.Program != nil {
		c.Target = o.Program.Name
	}
	return c.Canonical(), true
}

// NewBatch prepares a batch over specs. With a store it computes the setup
// keys and creates (or reloads) the batch manifest named id — or, when id is
// empty, a stable hash of the labels and setup keys, so re-running the same
// spec list resumes the same batch. Each entry is stamped with its portable
// spec. A reloaded entry whose stored key no longer matches the spec
// (someone edited the campaign between runs) is reset to pending and
// annotated with the field-level diff, so the stale result is re-run rather
// than silently reattached.
func NewBatch(specs []Spec, st *store.Store, id string) *Batch {
	b := &Batch{camps: make([]Campaign, len(specs)), st: st, locks: make([]sync.Mutex, len(specs))}
	for i, sp := range specs {
		b.camps[i] = Campaign{Spec: sp, Label: sp.label(), Target: sp.targetName()}
	}
	if st == nil {
		return b
	}
	b.keys = make([]string, len(specs))
	h := sha256.New()
	for i, sp := range specs {
		b.keys[i], _ = SetupKey(sp)
		fmt.Fprintf(h, "%s\x00%s\n", sp.label(), b.keys[i])
	}
	if id == "" {
		id = fmt.Sprintf("batch-%x", h.Sum(nil))[:18]
	}
	man, err := st.LoadBatch(id)
	if err != nil || man == nil || len(man.Entries) != len(specs) {
		man = &store.BatchManifest{ID: id, Entries: make([]store.BatchEntry, len(specs))}
	}
	for i, sp := range specs {
		e := &man.Entries[i]
		portable, perr := sp.Portable()
		if prev := e.Spec; prev != nil && e.Key != "" && e.Key != b.keys[i] {
			e.Status = store.StatusPending
			e.Campaign = ""
			e.Iters = 0
			e.Error = "spec changed: " + strings.Join(spec.Diff(*prev, portable), "; ")
		}
		e.Label = sp.label()
		e.Key = b.keys[i]
		if perr == nil {
			e.Spec = &portable
		}
		if e.Status == "" || e.Status == store.StatusRunning {
			// Fresh entry, or one left mid-flight by a killed batch — the
			// campaign snapshot (if any) carries the real progress.
			e.Status = store.StatusPending
		}
	}
	b.man = man
	b.keep("batch "+id, st.SaveBatch(man))
	return b
}

// ID returns the store batch ID ("" without a store).
func (b *Batch) ID() string {
	if b.man == nil {
		return ""
	}
	return b.man.ID
}

// Campaign returns campaign i as it stands.
func (b *Batch) Campaign(i int) Campaign { return b.camps[i] }

// Start begins campaign i. A stored exploration that covers the request
// resolves the campaign as reused and returns its snapshot with reused set;
// a shorter one is returned as the snapshot to resume from. Otherwise the
// snapshot is nil and the campaign starts cold.
func (b *Batch) Start(i int) (snap *core.Snapshot, reused bool) {
	if !b.persisted(i) {
		return nil, false
	}
	b.locks[i].Lock()
	defer b.locks[i].Unlock()
	c := &b.camps[i]
	snap, file := b.stored(i)
	want := c.Spec.Iterations
	if want == 0 {
		want = 100 // core.Config's default budget
	}
	if snap != nil && c.Spec.TimeBudget == 0 && snap.Iters >= want {
		c.Result, c.Reused = snap.Result(), true
		b.update(i, func(e *store.BatchEntry) {
			e.Status, e.Campaign, e.Iters = store.StatusReused, file, snap.Iters
		})
		return snap, true
	}
	b.update(i, func(e *store.BatchEntry) {
		e.Status, e.Campaign = store.StatusRunning, b.name(i)
	})
	return snap, false
}

// stored returns the further of campaign i's two stored snapshots and the
// campaign name it came from: the one the campaign index names for the
// setup (which wins a tie), and the campaign's own, whose journal holds its
// last checkpoint when an earlier run of it was killed. Either may be
// missing.
func (b *Batch) stored(i int) (snap *core.Snapshot, file string) {
	files := []string{b.name(i)}
	entries, _ := b.st.Index()
	for _, e := range entries {
		if e.Key == b.keys[i] && e.Campaign != files[0] {
			files = []string{e.Campaign, files[0]}
			break
		}
	}
	for _, f := range files {
		if s, err := b.st.LoadCampaign(f); err == nil && (snap == nil || s.Iters > snap.Iters) {
			snap, file = s, f
		}
	}
	return snap, file
}

// Checkpoint appends campaign i's running snapshot to its journal. A
// snapshot no further than the journal, such as one a reclaimed fleet lease
// sends late, appends nothing.
func (b *Batch) Checkpoint(i int, snap *core.Snapshot) {
	if b.persisted(i) {
		b.locks[i].Lock()
		defer b.locks[i].Unlock()
		b.keep(b.camps[i].Label, b.st.AppendCampaign(b.name(i), snap))
	}
}

// Finish resolves campaign i with its result. With a store, final is the
// engine's last snapshot: it is folded into the campaign's own file, and
// only if that write succeeded is the campaign recorded in the campaign
// index. The manifest entry becomes done, or error with the failed write's
// message.
func (b *Batch) Finish(i int, res core.Result, final *core.Snapshot) {
	b.locks[i].Lock()
	defer b.locks[i].Unlock()
	c := &b.camps[i]
	c.Result = res
	if !b.persisted(i) {
		return
	}
	b.mu.Lock()
	done := b.man.Entries[i]
	b.mu.Unlock()
	done.Status, done.Campaign, done.Iters = store.StatusDone, b.name(i), final.Iters
	err := b.st.SaveCampaign(done.Campaign, final)
	if err == nil {
		err = b.st.IndexCampaign(b.man.ID, done, final)
	}
	b.keep(c.Label, err)
	b.update(i, func(e *store.BatchEntry) {
		if err != nil {
			e.Status, e.Error = store.StatusError, err.Error()
		} else {
			*e = done
		}
	})
}

// Fail resolves campaign i with a spec error; its Result stays zero.
func (b *Batch) Fail(i int, err error) {
	b.locks[i].Lock()
	defer b.locks[i].Unlock()
	b.camps[i].Err = err
	if b.persisted(i) {
		b.update(i, func(e *store.BatchEntry) { e.Status, e.Error = store.StatusError, err.Error() })
	}
}

// Requeue returns campaign i to pending: its lease was reclaimed and the
// campaign will Start again.
func (b *Batch) Requeue(i int) {
	if b.persisted(i) {
		b.locks[i].Lock()
		defer b.locks[i].Unlock()
		b.update(i, func(e *store.BatchEntry) { e.Status = store.StatusPending })
	}
}

// Report merges the batch's campaigns, in spec order, into the batch report:
// union coverage per target and deduped errors, so the report is
// deterministic given the campaigns whichever driver ran them.
func (b *Batch) Report(workers int) *Report {
	rep := &Report{
		Campaigns: append([]Campaign(nil), b.camps...),
		Coverage:  map[string]*coverage.Tracker{},
		Errors:    map[string]map[string][]core.ErrorRecord{},
		BatchID:   b.ID(),
		Workers:   workers,
	}
	for i := range rep.Campaigns {
		c := &rep.Campaigns[i]
		if c.Err != nil {
			continue
		}
		cov := rep.Coverage[c.Target]
		if cov == nil {
			cov = coverage.New()
			rep.Coverage[c.Target] = cov
		}
		cov.Merge(c.Result.Coverage)
		for msg, recs := range c.Result.DistinctErrors() {
			byMsg := rep.Errors[c.Target]
			if byMsg == nil {
				byMsg = map[string][]core.ErrorRecord{}
				rep.Errors[c.Target] = byMsg
			}
			byMsg[msg] = append(byMsg[msg], recs...)
		}
	}
	b.mu.Lock()
	rep.StoreErr = errors.Join(b.errs...)
	b.mu.Unlock()
	return rep
}

// persisted reports whether campaign i is checkpointed into the store.
func (b *Batch) persisted(i int) bool { return b.st != nil && b.keys[i] != "" }

// name is the campaign file campaign i persists under.
func (b *Batch) name(i int) string { return store.CampaignName(b.camps[i].Label, b.keys[i]) }

// update applies fn to manifest entry i and writes the manifest.
func (b *Batch) update(i int, fn func(*store.BatchEntry)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	fn(&b.man.Entries[i])
	if err := b.st.SaveBatch(b.man); err != nil {
		b.errs = append(b.errs, fmt.Errorf("%s: %w", b.camps[i].Label, err))
	}
}

// keep records a failed store write under label.
func (b *Batch) keep(label string, err error) {
	if err != nil {
		b.mu.Lock()
		b.errs = append(b.errs, fmt.Errorf("%s: %w", label, err))
		b.mu.Unlock()
	}
}
