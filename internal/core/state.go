package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/conc"
	"repro/internal/coverage"
)

// SnapshotVersion is the current snapshot schema version. Version 1 carried
// only the learned inputs and coverage; version 2 adds everything resume
// determinism needs — the global iteration count and per-iteration history,
// restart history, the engine RNG state, the variable allocation order, and
// the search-strategy position. Version 3 adds the schedule frontier
// (pending directed match-order runs, the seen-order dedup set, and the
// choice-point/order counters) so schedule-space campaigns resume
// deterministically. Loaders accept any version ≤ SnapshotVersion (older
// snapshots resume with degraded fidelity: exploration restarts rather than
// continuing) and reject newer ones. The version is part of every store
// setup key, so a field that nothing reads is dropped without a bump.
// Snapshots written before the solver service became the only refutation
// layer also carry a "refuted" list of canonical keys; LoadSnapshot only
// counts them (as Refutations), and the resumed campaign is unchanged
// because every proven refutation is re-derived by the service. Older
// snapshots may also carry a per-setup input corpus ("corpus" and
// "corpusCov") that nothing read back; LoadSnapshot skips both keys.
const SnapshotVersion = 3

// Snapshot is the persistent campaign state. COMPI itself operates through
// files between executions; Snapshot captures the equivalent cross-iteration
// state so a campaign can stop and resume across engine instances — and,
// since schema v2, so that the resumed campaign is deterministic: resuming a
// v2 snapshot taken at iteration k and running to n produces the same
// coverage sets and error keys as an uninterrupted n-iteration run, provided
// the Config matches and the strategy is persistent (see PersistentStrategy).
type Snapshot struct {
	Version int              `json:"version"`
	Program string           `json:"program"`
	Inputs  map[string]int64 `json:"inputs"`
	Caps    map[string]int64 `json:"caps,omitempty"`
	Prev    map[string]int64 `json:"prev"` // keyed by variable name
	NProcs  int              `json:"nprocs"`
	Focus   int              `json:"focus"`
	Covered []conc.BranchBit `json:"covered"`
	Funcs   []string         `json:"funcs"`

	// v2 fields.

	// Iters is the number of iterations the campaign has completed; a
	// resumed engine continues global iteration numbering from here (the
	// per-iteration solver and launch seeds are iteration-indexed).
	Iters int `json:"iters,omitempty"`

	Restarts    int   `json:"restarts,omitempty"`
	RestartAt   []int `json:"restartAt,omitempty"`
	SolverCalls int   `json:"solverCalls,omitempty"`
	UnsatCalls  int   `json:"unsatCalls,omitempty"`

	// RefutedSkips is decoded from snapshots written while the solver
	// service kept an UNSAT cache; the engine no longer sets it.
	RefutedSkips int `json:"refutedSkips,omitempty"`
	Refutations  int `json:"refutations,omitempty"`

	// VarOrder is the engine variable space's names in allocation (ID)
	// order. Restore re-allocates them in this order so variable IDs — and
	// therefore solver behavior — match the uninterrupted run exactly.
	VarOrder []string `json:"varOrder,omitempty"`

	// RNG is the engine's splitmix64 random-source state.
	RNG uint64 `json:"rng,omitempty"`

	// Strategy is the serialized search-strategy position, present when the
	// strategy implements PersistentStrategy.
	Strategy *StrategyState `json:"strategy,omitempty"`

	// v3 fields: the schedule frontier (Config.Schedules campaigns).

	// SchedPend is the LIFO stack of pending directed match-order runs, and
	// SchedSeen the sorted serialized keys of every child ever enqueued.
	SchedPend []schedRun `json:"schedPend,omitempty"`
	SchedSeen []string   `json:"schedSeen,omitempty"`

	// SchedPoints/SchedOrders are the running Schedule-stats counters.
	SchedPoints int `json:"schedPoints,omitempty"`
	SchedOrders int `json:"schedOrders,omitempty"`

	// The campaign history: every error record and (v2) the full
	// per-iteration history, so a resumed campaign's Result reports the whole
	// campaign and reattached reports keep their measurements. They grow
	// with the campaign, so they are the last two fields, and a journal
	// record carries only their new entries (see EncodeDelta).
	Errors []ErrorRecord   `json:"errors,omitempty"`
	Stats  []IterationStat `json:"stats,omitempty"`
}

// StrategyState is an opaque strategy position tagged with the strategy
// name; Restore only loads it into a strategy reporting the same name.
type StrategyState struct {
	Name  string `json:"name"`
	State []byte `json:"state,omitempty"`
}

// Snapshot captures the engine's current persistent state.
func (e *Engine) Snapshot() *Snapshot {
	s := &Snapshot{
		Version:     SnapshotVersion,
		Program:     e.cfg.Program.Name,
		Inputs:      cloneInputs(e.inputs),
		Caps:        map[string]int64{},
		Prev:        map[string]int64{},
		NProcs:      e.cur.nprocs,
		Focus:       e.cur.focus,
		Covered:     e.cov.Branches(),
		Iters:       e.iters,
		Restarts:    e.restarts,
		RestartAt:   append([]int(nil), e.restartAt...),
		SolverCalls: e.solverCalls,
		UnsatCalls:  e.unsatCalls,
		Refutations: e.refutations,
		VarOrder:    e.vars.Names(),
		RNG:         e.rng.state,
		Errors:      append([]ErrorRecord(nil), e.errors...),
		Stats:       append([]IterationStat(nil), e.stats...),
	}
	for name, ci := range e.caps {
		if ci.hasCap {
			s.Caps[name] = ci.cap
		}
	}
	for v, x := range e.prev {
		// Prefer the name observed from the run logs: with an external
		// backend the variable space lives in the target process, so the
		// engine-side space only knows names it allocated itself.
		name := e.names[v]
		if name == "" {
			name = e.vars.Name(v)
		}
		if name != "" {
			s.Prev[name] = x
		}
	}
	for f := range e.cov.Funcs() {
		s.Funcs = append(s.Funcs, f)
	}
	sort.Strings(s.Funcs)
	if ps, ok := e.strategy.(PersistentStrategy); ok {
		if b, err := ps.MarshalState(); err == nil {
			s.Strategy = &StrategyState{Name: ps.Name(), State: b}
		}
	}
	s.SchedPend = append([]schedRun(nil), e.schedPend...)
	for k := range e.schedSeen {
		s.SchedSeen = append(s.SchedSeen, k)
	}
	sort.Strings(s.SchedSeen)
	s.SchedPoints = e.schedPoints
	s.SchedOrders = e.schedOrders
	return s
}

// Restore loads a snapshot into a fresh engine (before Run). It validates
// the snapshot against the engine's program — schema version, branch bits
// against the branch table, function and input names against the
// declarations — and rejects it with a descriptive error instead of
// poisoning coverage with garbage. On error the engine is unchanged except
// possibly a Reset strategy.
func (e *Engine) Restore(s *Snapshot) error {
	if e.started.Load() {
		return fmt.Errorf("core: Restore after Run started")
	}
	prog := e.cfg.Program
	if s.Version > SnapshotVersion {
		return fmt.Errorf("core: snapshot version %d is newer than supported %d", s.Version, SnapshotVersion)
	}
	if s.Program != prog.Name {
		return fmt.Errorf("core: snapshot is for program %q, engine runs %q", s.Program, prog.Name)
	}
	total := prog.TotalBranches()
	for _, b := range s.Covered {
		if int(b) >= total {
			return fmt.Errorf("core: snapshot branch bit %d outside %s's %d-entry branch table", b, prog.Name, total)
		}
	}
	declaredFuncs := map[string]bool{}
	for _, f := range prog.Functions() {
		declaredFuncs[f] = true
	}
	for _, f := range s.Funcs {
		if !declaredFuncs[f] {
			return fmt.Errorf("core: snapshot function %q not declared by %s", f, prog.Name)
		}
	}
	declaredInputs := map[string]bool{}
	for _, in := range prog.Inputs() {
		declaredInputs[in.Name] = true
	}
	for _, m := range []map[string]int64{s.Inputs, s.Caps} {
		for name := range m {
			if !declaredInputs[name] {
				return fmt.Errorf("core: snapshot input %q not declared by %s", name, prog.Name)
			}
		}
	}
	if s.Iters < 0 || len(s.Stats) > 0 && len(s.Stats) != s.Iters {
		return fmt.Errorf("core: snapshot has %d iteration stats for %d iterations", len(s.Stats), s.Iters)
	}
	// Strategy position: only loaded into a strategy of the same name; a
	// different configured strategy simply starts fresh (the v1 behavior).
	// Loading mutates the strategy, so do it before committing the rest —
	// a failure leaves the engine unchanged apart from the Reset.
	if s.Strategy != nil {
		if ps, ok := e.strategy.(PersistentStrategy); ok && ps.Name() == s.Strategy.Name {
			if err := ps.UnmarshalState(s.Strategy.State); err != nil {
				ps.Reset()
				return fmt.Errorf("core: snapshot strategy state: %w", err)
			}
		}
	}

	// Commit. Re-allocate the variable space in the recorded order first,
	// so every restored name (and every future allocation) gets the same ID
	// it had in the original campaign.
	for _, name := range s.VarOrder {
		e.vars.Of(name)
	}
	e.inputs = cloneInputs(s.Inputs)
	for name, cap := range s.Caps {
		e.caps[name] = capInfo{cap: cap, hasCap: true}
	}
	prevNames := make([]string, 0, len(s.Prev))
	for name := range s.Prev {
		prevNames = append(prevNames, name)
	}
	sort.Strings(prevNames) // deterministic allocation of names outside VarOrder
	for _, name := range prevNames {
		e.prev[e.vars.Of(name)] = s.Prev[name]
	}
	e.cur = setup{nprocs: s.NProcs, focus: s.Focus}
	if e.cur.nprocs < 1 {
		e.cur.nprocs = e.cfg.InitialProcs
	}
	if e.cur.focus >= e.cur.nprocs || e.cur.focus < 0 {
		e.cur.focus = 0
	}
	for _, b := range s.Covered {
		e.cov.AddBranch(b)
	}
	for _, f := range s.Funcs {
		e.cov.AddFunc(f)
	}
	e.errors = append([]ErrorRecord(nil), s.Errors...)
	e.iters = s.Iters
	e.startIter = s.Iters
	e.stats = append([]IterationStat(nil), s.Stats...)
	e.restarts = s.Restarts
	e.restartAt = append([]int(nil), s.RestartAt...)
	e.solverCalls = s.SolverCalls
	e.unsatCalls = s.UnsatCalls
	e.refutations = s.Refutations
	if s.Version >= 2 {
		e.rng.state = s.RNG
	}
	e.schedPend = append([]schedRun(nil), s.SchedPend...)
	e.schedSeen = make(map[string]struct{}, len(s.SchedSeen))
	for _, k := range s.SchedSeen {
		e.schedSeen[k] = struct{}{}
	}
	e.schedPoints = s.SchedPoints
	e.schedOrders = s.SchedOrders
	return nil
}

// Result reconstructs the campaign Result a snapshot describes — how a
// stored or fleet-shipped campaign reattaches its report without running an
// engine. The snapshot carries the full per-iteration history, so
// reconstructed results keep their measurements; only the solver-stats
// window (meaningless without a run) is zero.
func (s *Snapshot) Result() Result {
	cov := coverage.New()
	for _, b := range s.Covered {
		cov.AddBranch(b)
	}
	for _, f := range s.Funcs {
		cov.AddFunc(f)
	}
	its := append([]IterationStat(nil), s.Stats...)
	if len(its) == 0 && s.Iters > 0 {
		// Pre-Stats snapshot: fabricate bare entries so iteration counts
		// still line up.
		its = make([]IterationStat, s.Iters)
		for i := range its {
			its[i] = IterationStat{Iter: i}
		}
	}
	return Result{
		Coverage:    cov,
		Iterations:  its,
		Errors:      append([]ErrorRecord(nil), s.Errors...),
		Restarts:    s.Restarts,
		RestartAt:   append([]int(nil), s.RestartAt...),
		SolverCall:  s.SolverCalls,
		UnsatCalls:  s.UnsatCalls,
		Refutations: s.Refutations,
		Schedule:    scheduleStats(s.SchedPoints, s.SchedOrders, s.Errors),
	}
}

// Save writes the snapshot as one line of compact JSON, keys in struct
// order.
func (s *Snapshot) Save(w io.Writer) error {
	return json.NewEncoder(w).Encode(s)
}

// journalRecord is the JSON shape of one campaign journal record: a
// snapshot whose Errors and Stats hold only the entries past BaseErrors and
// BaseStats, the counts the journal already holds.
type journalRecord struct {
	BaseErrors int `json:"baseErrors"`
	BaseStats  int `json:"baseStats"`
	Snapshot
}

// EncodeDelta encodes the journal record that takes a campaign holding the
// first baseErrors error records and baseStats iteration stats of s to s:
// every field but the history, and only the history entries past those
// counts. So a checkpoint's record costs the entries added since the
// previous one, however long the campaign has run.
func (s *Snapshot) EncodeDelta(baseErrors, baseStats int) ([]byte, error) {
	if baseErrors < 0 || baseErrors > len(s.Errors) || baseStats < 0 || baseStats > len(s.Stats) {
		return nil, fmt.Errorf("core: journal base of %d errors, %d stats is outside a snapshot holding %d, %d",
			baseErrors, baseStats, len(s.Errors), len(s.Stats))
	}
	r := journalRecord{BaseErrors: baseErrors, BaseStats: baseStats, Snapshot: *s}
	r.Errors, r.Stats = s.Errors[baseErrors:], s.Stats[baseStats:]
	return json.Marshal(&r)
}

// ApplyDelta applies a journal record EncodeDelta wrote to s. A record that
// is no further than s (its Iters at most s.Iters) was folded into s already
// and changes nothing. Otherwise the record must continue s: its base counts
// at most s's history lengths and its entries reaching at least to them.
// Then every field but the history becomes the record's, and the history
// gains the record's entries past what s holds. A record that does not
// decode or does not continue s is an error, and s is left unchanged.
func (s *Snapshot) ApplyDelta(rec []byte) error {
	var r journalRecord
	if err := json.Unmarshal(rec, &r); err != nil {
		return err
	}
	if r.Iters <= s.Iters {
		return nil
	}
	ne, ns := len(s.Errors), len(s.Stats)
	if r.BaseErrors < 0 || r.BaseErrors > ne || r.BaseErrors+len(r.Errors) < ne ||
		r.BaseStats < 0 || r.BaseStats > ns || r.BaseStats+len(r.Stats) < ns {
		return fmt.Errorf("core: journal record at iteration %d (history %d+%d errors, %d+%d stats) does not continue a snapshot at iteration %d (%d errors, %d stats)",
			r.Iters, r.BaseErrors, len(r.Errors), r.BaseStats, len(r.Stats), s.Iters, ne, ns)
	}
	errs := append(s.Errors, r.Errors[ne-r.BaseErrors:]...)
	stats := append(s.Stats, r.Stats[ns-r.BaseStats:]...)
	*s = r.Snapshot
	s.Errors, s.Stats = errs, stats
	return nil
}

// LoadSnapshot reads a snapshot written by Save. A snapshot written while
// the engine kept its own refuted set has that set's keys instead of a
// Refutations count; the number of keys stands in for the count.
func LoadSnapshot(r io.Reader) (*Snapshot, error) {
	var s struct {
		Snapshot
		Refuted []string `json:"refuted"`
	}
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, err
	}
	if s.Refutations == 0 {
		s.Refutations = len(s.Refuted)
	}
	return &s.Snapshot, nil
}
