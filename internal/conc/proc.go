package conc

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/expr"
)

// Mode selects the instrumentation level of a process — the two halves of
// COMPI's two-way instrumentation (§IV-B), plus an uninstrumented mode for
// baselines.
type Mode uint8

// Instrumentation modes.
const (
	// Off disables all recording (used by pure random testing baselines
	// when only the error outcome matters).
	Off Mode = iota
	// Light records branch coverage only — the "ex2" binary launched for
	// every non-focus process.
	Light
	// Heavy performs full symbolic execution — the "ex1" binary launched
	// for the focus process.
	Heavy
)

func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case Light:
		return "light"
	case Heavy:
		return "heavy"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// CondID identifies a static conditional site in a target program. Each site
// owns two branches: 2·id (true) and 2·id+1 (false).
type CondID int32

// BranchBit is one direction of a conditional site.
type BranchBit uint32

// Bit returns the branch bit for a site and outcome.
func Bit(site CondID, outcome bool) BranchBit {
	b := BranchBit(site) * 2
	if !outcome {
		b++
	}
	return b
}

// Site returns the conditional site owning bit b.
func (b BranchBit) Site() CondID { return CondID(b / 2) }

// Outcome reports which direction b is.
func (b BranchBit) Outcome() bool { return b%2 == 0 }

// VarKind classifies symbolic variables per Table I of the paper.
type VarKind uint8

// Variable kinds.
const (
	KindInput     VarKind = iota // regular input marked by the developer
	KindRankWorld                // rw: rank in MPI_COMM_WORLD
	KindRankLocal                // rc: rank in another communicator
	KindSizeWorld                // sw: size of MPI_COMM_WORLD
)

func (k VarKind) String() string {
	switch k {
	case KindInput:
		return "input"
	case KindRankWorld:
		return "rw"
	case KindRankLocal:
		return "rc"
	case KindSizeWorld:
		return "sw"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// VarObs is one symbolic variable observation from a run: which variable,
// its concrete value this execution, and the metadata the engine needs to
// build MPI-semantics constraints and input caps.
type VarObs struct {
	V        expr.Var
	Name     string
	Val      int64
	Kind     VarKind
	HasCap   bool
	Cap      int64
	CommIdx  int32 // KindRankLocal: index into the rank mapping table
	CommSize int64 // KindRankLocal: concrete size of that communicator
}

// PathEntry is one recorded symbolic branch: the predicate that held during
// this execution at the given site.
type PathEntry struct {
	Site    CondID
	Outcome bool
	Pred    expr.Pred
}

// VarSpace allocates stable variable IDs for input names across the whole
// testing campaign. It is owned by the engine and shared with each focus
// process; accesses are single-threaded by construction (one focus).
type VarSpace struct {
	byName map[string]expr.Var
	names  []string
}

// NewVarSpace returns an empty variable space.
func NewVarSpace() *VarSpace {
	return &VarSpace{byName: map[string]expr.Var{}}
}

// Of returns the variable for name, allocating it on first use.
func (s *VarSpace) Of(name string) expr.Var {
	if v, ok := s.byName[name]; ok {
		return v
	}
	v := expr.Var(len(s.names))
	s.byName[name] = v
	s.names = append(s.names, name)
	return v
}

// Name returns the name of v, or "" if unallocated.
func (s *VarSpace) Name(v expr.Var) string {
	if int(v) < len(s.names) {
		return s.names[v]
	}
	return ""
}

// Len returns the number of allocated variables.
func (s *VarSpace) Len() int { return len(s.names) }

// Names returns the allocated names in variable-ID order. A campaign
// snapshot records this so a resumed engine can re-allocate the same IDs in
// the same order before any new name appears.
func (s *VarSpace) Names() []string { return append([]string(nil), s.names...) }

// ErrHang is the panic value raised when a process exceeds its deadline; the
// launch harness reports it as a hang (the paper's infinite-loop bugs).
type ErrHang struct{ Rank int }

func (e *ErrHang) Error() string { return fmt.Sprintf("rank %d: deadline exceeded (hang)", e.Rank) }

// ErrAssert is the panic value raised by a failed assertion (the paper's
// assertion-violation bugs).
type ErrAssert struct {
	Rank int
	Msg  string
}

func (e *ErrAssert) Error() string {
	return fmt.Sprintf("rank %d: assertion failed: %s", e.Rank, e.Msg)
}

// Config parameterizes a process's concolic runtime.
type Config struct {
	Mode      Mode
	Reduction bool // constraint set reduction (§IV-C); COMPI default on
	Seed      int64
	// RandomLo/Hi bound the values generated for inputs that were not
	// supplied by the engine (first iteration).
	RandomLo, RandomHi int64
	// Deadline aborts the run as a hang when exceeded; zero means none.
	Deadline time.Time
	// MaxTicks aborts the run as a hang after this many instrumentation
	// events; zero means no tick limit. It makes hang detection
	// deterministic for the seeded infinite-loop bugs.
	MaxTicks int64
	// Params is the campaign parameter bag: per-campaign target knobs
	// (input caps, seeded-bug fix toggles) that used to live in package
	// globals. The map is shared read-only across all ranks of a launch
	// and across iterations; it must not be mutated after the launch.
	Params map[string]int64
	// TraceHint is the expected branch-event count (typically the previous
	// iteration's trace length) used to pre-size the trace buffer. Purely
	// an allocation hint: zero or wrong values change nothing but
	// reallocation counts.
	TraceHint int
}

// Proc is the per-process concolic runtime state. One Proc exists per MPI
// rank per test iteration; only the focus rank runs in Heavy mode.
//
// The branch tables are indexed by site, which target.Builder numbers
// densely from 0, and grow to the largest site seen.
type Proc struct {
	cfg  Config
	rank int
	vars *VarSpace // nil unless Heavy
	in   map[string]int64
	// draws supplies missing inputs from the stream of cfg.Seed; its stream
	// is made on the first missing input unless DrawFrom shared one.
	draws cursor

	covered     []bool      // by branch bit
	nCovered    int         // true entries in covered
	trace       []BranchBit // heavy only: every branch event, in order
	path        []PathEntry
	rawCount    int64 // constraints that would exist without reduction
	obs         []VarObs
	obsSeen     map[expr.Var]struct{}
	lastOutcome []outcome // heavy only: by site
	mapping     [][]int32 // local→global rank rows, one per sub-communicator
	matches     []MatchRec
	funcsHit    map[string]struct{}
	ticks       int64
	tickCheck   int64
	exprOps     int64
	exprMix     uint64
}

// NewProc creates the runtime for one rank. inputs maps symbolic input names
// to the engine-chosen values; missing names receive deterministic
// pseudo-random values (identical across ranks, since every rank is seeded
// the same and SPMD programs read inputs in a uniform order). vars may be
// nil unless cfg.Mode is Heavy.
func NewProc(rank int, vars *VarSpace, inputs map[string]int64, cfg Config) *Proc {
	if cfg.RandomLo == 0 && cfg.RandomHi == 0 {
		cfg.RandomLo, cfg.RandomHi = -10, 100
	}
	if cfg.Mode == Heavy && vars == nil {
		panic("conc: Heavy mode requires a VarSpace")
	}
	p := &Proc{
		cfg:      cfg,
		rank:     rank,
		vars:     vars,
		in:       inputs,
		obsSeen:  map[expr.Var]struct{}{},
		funcsHit: map[string]struct{}{},
	}
	if cfg.Mode == Heavy && cfg.TraceHint > 0 {
		p.trace = make([]BranchBit, 0, cfg.TraceHint)
	}
	return p
}

// DrawFrom makes s, the stream of this process's seed, the source of the
// values generated for missing inputs, so that the ranks of a launch share
// one generated stream. It must be called before the process reads an
// input, and panics when s replays another seed.
func (p *Proc) DrawFrom(s *Stream) {
	if s.Seed() != p.cfg.Seed {
		panic(fmt.Sprintf("conc: stream of seed %d shared with a process of seed %d", s.Seed(), p.cfg.Seed))
	}
	p.draws = s.cursor()
}

// Rank returns the global rank this runtime belongs to.
func (p *Proc) Rank() int { return p.rank }

// Param returns the campaign parameter name, or def when the campaign did
// not set it. Parameters are concrete per-campaign knobs (caps, fix
// toggles), never symbolic inputs.
func (p *Proc) Param(name string, def int64) int64 {
	if v, ok := p.cfg.Params[name]; ok {
		return v
	}
	return def
}

// ParamBool is Param for boolean knobs: any non-zero value is true.
func (p *Proc) ParamBool(name string, def bool) bool {
	if v, ok := p.cfg.Params[name]; ok {
		return v != 0
	}
	return def
}

// Mode returns the instrumentation mode.
func (p *Proc) Mode() Mode { return p.cfg.Mode }

// Tick is the per-event heartbeat: it advances the hang watchdog. Targets
// with instrumentation-free tight loops call it explicitly; every Branch and
// MPI operation calls it implicitly.
func (p *Proc) Tick() {
	p.ticks++
	if p.cfg.MaxTicks > 0 && p.ticks > p.cfg.MaxTicks {
		panic(&ErrHang{Rank: p.rank})
	}
	if !p.cfg.Deadline.IsZero() {
		p.tickCheck++
		if p.tickCheck >= 1024 {
			p.tickCheck = 0
			if time.Now().After(p.cfg.Deadline) {
				panic(&ErrHang{Rank: p.rank})
			}
		}
	}
}

// Ticks returns the number of instrumentation events so far.
func (p *Proc) Ticks() int64 { return p.ticks }

// Exprs models n instrumented expression evaluations. CREST's heavy
// instrumentation intercepts every load, store, and arithmetic operation of
// the program, so a Heavy process pays the symbolic interpreter's
// bookkeeping for each of them; a Light process (branch recording only)
// skips that work entirely — the cost asymmetry behind two-way
// instrumentation (§IV-B). Targets call it from their compute kernels with
// the kernel's operation count.
func (p *Proc) Exprs(n int) {
	p.Tick()
	if p.cfg.Mode != Heavy {
		return
	}
	mix := p.exprMix
	for i := 0; i < n; i++ {
		// Two dependent integer ops approximate the per-operation overhead
		// of the symbolic interpreter's stack maintenance.
		mix = mix*6364136223846793005 + 1442695040888963407
		mix ^= mix >> 29
	}
	p.exprMix = mix
	p.exprOps += int64(n)
	// Large kernels advance the watchdog proportionally, so a compute-bound
	// infinite loop exhausts the tick budget like any other.
	p.ticks += int64(n / 64)
}

// ExprOps returns the number of instrumented expression evaluations so far.
func (p *Proc) ExprOps() int64 { return p.exprOps }

// EnterFunc records that a function was reached, for the reachable-branch
// estimate (sum of branches of all encountered functions, per the CREST FAQ
// methodology the paper uses).
func (p *Proc) EnterFunc(name string) {
	if p.cfg.Mode == Off {
		return
	}
	p.funcsHit[name] = struct{}{}
}

// InputInt reads the symbolic integer input called name (a variable the
// developer marked). In Heavy mode the returned value is symbolic.
func (p *Proc) InputInt(name string) Value { return p.input(name, 0, false) }

// InputIntCap is COMPI_int_with_limit (§IV-A): like InputInt but registers
// cap as an upper bound the solver must respect.
func (p *Proc) InputIntCap(name string, cap int64) Value { return p.input(name, cap, true) }

func (p *Proc) input(name string, cap int64, hasCap bool) Value {
	p.Tick()
	val, ok := p.in[name]
	if !ok {
		val = p.randomValue(cap, hasCap)
	}
	if hasCap && val > cap {
		// The engine always respects caps when solving; this guards the
		// first, random iteration.
		val = cap
	}
	if p.cfg.Mode != Heavy {
		return Value{C: val}
	}
	v := p.vars.Of(name)
	p.observe(VarObs{V: v, Name: name, Val: val, Kind: KindInput, HasCap: hasCap, Cap: cap})
	return Value{C: val, E: expr.VarRef(v)}
}

func (p *Proc) randomValue(cap int64, hasCap bool) int64 {
	lo, hi := p.cfg.RandomLo, p.cfg.RandomHi
	if hasCap && cap < hi {
		hi = cap
	}
	if hi < lo {
		return hi
	}
	if p.draws.s == nil {
		p.draws = NewStream(p.cfg.Seed).cursor()
	}
	return lo + p.draws.Int63n(hi-lo+1)
}

func (p *Proc) observe(o VarObs) {
	if _, dup := p.obsSeen[o.V]; dup {
		return
	}
	p.obsSeen[o.V] = struct{}{}
	p.obs = append(p.obs, o)
}

// MarkRankWorld is called by the MPI runtime at each MPI_Comm_rank
// invocation on MPI_COMM_WORLD (automatic marking, §III-A). site names the
// static callsite.
func (p *Proc) MarkRankWorld(site string, concrete int) Value {
	p.Tick()
	if p.cfg.Mode != Heavy {
		return Value{C: int64(concrete)}
	}
	v := p.vars.Of("rw:" + site)
	p.observe(VarObs{V: v, Name: "rw:" + site, Val: int64(concrete), Kind: KindRankWorld})
	return Value{C: int64(concrete), E: expr.VarRef(v)}
}

// MarkSizeWorld is the automatic marking at MPI_Comm_size on
// MPI_COMM_WORLD.
func (p *Proc) MarkSizeWorld(site string, concrete int) Value {
	p.Tick()
	if p.cfg.Mode != Heavy {
		return Value{C: int64(concrete)}
	}
	v := p.vars.Of("sw:" + site)
	p.observe(VarObs{V: v, Name: "sw:" + site, Val: int64(concrete), Kind: KindSizeWorld})
	return Value{C: int64(concrete), E: expr.VarRef(v)}
}

// MarkRankLocal is the automatic marking at MPI_Comm_rank on a non-default
// communicator. commIdx indexes the local→global mapping row registered via
// AddCommRow; commSize is the concrete size of that communicator this run.
func (p *Proc) MarkRankLocal(site string, concrete, commIdx, commSize int) Value {
	p.Tick()
	if p.cfg.Mode != Heavy {
		return Value{C: int64(concrete)}
	}
	v := p.vars.Of("rc:" + site)
	p.observe(VarObs{
		V: v, Name: "rc:" + site, Val: int64(concrete), Kind: KindRankLocal,
		CommIdx: int32(commIdx), CommSize: int64(commSize),
	})
	return Value{C: int64(concrete), E: expr.VarRef(v)}
}

// AddCommRow registers the global ranks of a newly created communicator,
// ordered by local rank (§III-D, Table II), and returns its index.
func (p *Proc) AddCommRow(globalRanks []int32) int {
	row := make([]int32, len(globalRanks))
	copy(row, globalRanks)
	p.mapping = append(p.mapping, row)
	return len(p.mapping) - 1
}

// Branch records the conditional site and, in Heavy mode, the path
// constraint, applying constraint set reduction when enabled: a constraint
// is kept only on the site's first encounter or when the outcome flips
// relative to the previous observation (§IV-C). The predicate tree is built
// only for a constraint that is kept.
func (p *Proc) Branch(site CondID, c Cond) bool {
	p.Tick()
	if p.cfg.Mode == Off {
		return c.B
	}
	bit := Bit(site, c.B)
	if int(bit) >= len(p.covered) {
		p.growSites(site)
	}
	if !p.covered[bit] {
		p.covered[bit] = true
		p.nCovered++
	}
	if p.cfg.Mode != Heavy {
		return c.B
	}
	// Full symbolic execution logs the entire branch trace (CREST's
	// szd_execution file); this is the bulk of the heavy process's memory
	// and I/O cost that two-way instrumentation avoids on non-focus ranks.
	p.trace = append(p.trace, bit)
	last := p.lastOutcome[site]
	p.lastOutcome[site] = outcomeOf(c.B)
	if !c.symbolic() {
		return c.B
	}
	p.rawCount++
	if p.cfg.Reduction && last == outcomeOf(c.B) {
		return c.B
	}
	rel := c.rel
	if !c.B {
		rel = rel.Negate()
	}
	p.path = append(p.path, PathEntry{Site: site, Outcome: c.B, Pred: c.pred(rel)})
	return c.B
}

// outcome is a site's last observed outcome, or unseen.
type outcome uint8

const (
	unseen outcome = iota
	tookTrue
	tookFalse
)

func outcomeOf(b bool) outcome {
	if b {
		return tookTrue
	}
	return tookFalse
}

// minSites is the smallest site table a process allocates.
const minSites = 64

// growSites extends the branch tables to cover site, at least doubling
// them. Only a Heavy process keeps last outcomes: reduction needs them.
func (p *Proc) growSites(site CondID) {
	n := max(int(site)+1, len(p.covered), minSites)
	p.covered = append(p.covered, make([]bool, 2*n-len(p.covered))...)
	if p.cfg.Mode == Heavy {
		p.lastOutcome = append(p.lastOutcome, make([]outcome, n-len(p.lastOutcome))...)
	}
}

// Assert panics with an assertion-violation error when ok is false, modelling
// the C assert() failures COMPI exposes.
func (p *Proc) Assert(ok bool, format string, args ...any) {
	if !ok {
		panic(&ErrAssert{Rank: p.rank, Msg: fmt.Sprintf(format, args...)})
	}
}

// Log assembles this process's end-of-run output — the file a COMPI-
// instrumented process writes for the testing framework to read back.
func (p *Proc) Log() *Log {
	covered := make([]BranchBit, 0, p.nCovered)
	for b, hit := range p.covered {
		if hit {
			covered = append(covered, BranchBit(b))
		}
	}
	funcs := make([]string, 0, len(p.funcsHit))
	for f := range p.funcsHit {
		funcs = append(funcs, f)
	}
	slices.Sort(funcs)
	l := &Log{
		Mode:     p.cfg.Mode,
		Rank:     p.rank,
		Covered:  covered,
		Funcs:    funcs,
		RawCount: p.rawCount,
	}
	if p.cfg.Mode == Heavy {
		l.Path = p.path
		l.Obs = p.obs
		l.Mapping = p.mapping
		l.Trace = p.trace
	}
	l.Matches = p.matches
	return l
}

// RecordMatch appends one wildcard-receive choice point to the log. Unlike
// the trace, matches are recorded in every mode: the engine enumerates
// untried match indices across all ranks, not just the focus.
func (p *Proc) RecordMatch(m MatchRec) {
	p.matches = append(p.matches, m)
}
