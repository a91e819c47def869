// Package mpi is an in-process MPI runtime: every rank of a launch runs as a
// coroutine under one scheduler, with point-to-point messaging with tag and
// source matching, the MPI-1 collectives the target applications need, and
// communicator splitting. A rank runs until it blocks in a receive, makes a
// Test that finds nothing, or returns; then the next runnable rank resumes,
// in cyclic rank order. So one launch uses one core, exactly one rank runs
// at a time, and every match, wildcard receives included, is deterministic.
// A rank's MPI calls must come from the goroutine its Main runs on.
//
// It stands in for mpiexec + OpenMPI in the paper's setup. The property that
// matters to COMPI is MPMD launching: the focus rank runs a heavily
// instrumented "binary" (conc.Heavy) while every other rank runs the lightly
// instrumented one (conc.Light), exactly like
//
//	mpiexec -n i ./ex2 : -n 1 ./ex1 : -n s-i-1 ./ex2
//
// Rank and size queries route through the concolic runtime's automatic
// marking (§III-A): CommRank on the world communicator marks an rw variable,
// CommSize marks sw, and CommRank on a split communicator marks rc and
// registers the local→global rank mapping row (§III-D).
//
// Message payloads, collective results and Requests are carved from
// per-launch slabs rather than allocated one by one. Each buffer is zeroed
// and has cap == len, so appending to one never reaches the next. Slabs die
// with their launch and are never reused by another, because Launch may
// abandon a scheduler whose rank never yields while it still runs.
package mpi

import (
	"fmt"
	"sync"

	"repro/internal/conc"
)

// AnySource matches any sender in Recv, like MPI_ANY_SOURCE.
const AnySource = -1

// internalTag is used by collective operations; user tags must be >= 0.
const internalTag = -2

// Runtime is one MPI job: the scheduler state, the mailboxes and the
// communicator table shared by all ranks. Only the scheduler goroutine and
// the rank it is running touch it, one at a time, so none of it is locked;
// results alone is shared with Launch, which may give up on a rank that
// never yields.
type Runtime struct {
	nprocs int
	mbox   []mailbox
	waits  []rankWait
	live   int // ranks whose coroutine has not returned

	stopped  bool   // a rank failed, a deadlock was proven, or the watchdog expired
	timedOut bool   // the watchdog stopped the job: its blocked ranks are hangs
	cycle    []int  // the proven deadlock's wait-for cycle, nil if none
	desc     string // and its canonical description

	sched  bool
	order  [][]int // per-global-rank wildcard match directives
	cursor []int   // next directive index per rank
	seq    int     // global choice-point sequence, ordering grants across ranks

	commIDs  map[commKey]int
	nextComm int

	// The unused rest of this launch's current slabs (slab.go).
	floats    []float64
	floatSlab int // size of the latest float slab
	requests  []Request

	done    chan struct{} // closed by Launch when the watchdog expires
	resMu   sync.Mutex
	results []RankResult
}

type commKey struct {
	parent int
	seq    int
	color  int
}

// newRuntime creates the shared state for an nprocs-rank job. sched turns on
// schedule-space semantics (quiescent wildcard matching); order carries the
// per-rank wildcard match directives to replay.
func newRuntime(nprocs int, sched bool, order [][]int) *Runtime {
	return &Runtime{
		nprocs:   nprocs,
		mbox:     make([]mailbox, nprocs),
		waits:    make([]rankWait, nprocs),
		live:     nprocs,
		sched:    sched,
		order:    order,
		cursor:   make([]int, nprocs),
		commIDs:  map[commKey]int{},
		nextComm: 1, // 0 is the world communicator
		done:     make(chan struct{}),
		results:  make([]RankResult, nprocs),
	}
}

// commIDFor deterministically assigns the same communicator ID to every
// member of a split group, keyed by the parent communicator, the per-parent
// split sequence number, and the color.
func (rt *Runtime) commIDFor(parent, seq, color int) int {
	k := commKey{parent, seq, color}
	if id, ok := rt.commIDs[k]; ok {
		return id
	}
	id := rt.nextComm
	rt.nextComm++
	rt.commIDs[k] = id
	return id
}

// ErrStopped is the panic value raised in ranks whose receive cannot complete
// because the job has stopped (peer failure or watchdog timeout).
type ErrStopped struct{ Rank int }

func (e *ErrStopped) Error() string {
	return fmt.Sprintf("rank %d: job stopped while blocked in MPI", e.Rank)
}

// ErrAbort is the panic value raised by Abort, modelling MPI_Abort.
type ErrAbort struct {
	Rank int
	Code int
}

func (e *ErrAbort) Error() string {
	return fmt.Sprintf("rank %d: MPI_Abort with code %d", e.Rank, e.Code)
}

// Comm is a communicator: an ordered group of global ranks. Local rank i maps
// to global rank Ranks[i].
type Comm struct {
	id       int
	ranks    []int // global ranks by local rank
	local    int   // this process's local rank
	world    bool
	concIdx  int // index of this comm's row in the focus mapping table (-1 off-focus)
	splitSeq int // per-comm split counter (deterministic across members)
}

// Size returns the concrete number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// LocalRank returns the concrete local rank (not symbolically marked).
func (c *Comm) LocalRank() int { return c.local }

// GlobalOf translates a local rank to the global rank.
func (c *Comm) GlobalOf(local int) int { return c.ranks[local] }

// Proc is one MPI process: its global rank, world communicator, and the
// concolic runtime it is instrumented with.
type Proc struct {
	rt    *Runtime
	rank  int
	world *Comm
	CC    *conc.Proc

	yield func()     // suspends this rank's coroutine
	res   RankResult // the outcome, as far as the rank itself can tell
}

// Rank returns the concrete global rank.
func (p *Proc) Rank() int { return p.rank }

// NProcs returns the concrete job size.
func (p *Proc) NProcs() int { return p.rt.nprocs }

// World returns the MPI_COMM_WORLD equivalent.
func (p *Proc) World() *Comm { return p.world }

// CommRank is MPI_Comm_rank: on the world communicator the result is marked
// as an rw variable, on any other as rc (automatic marking, §III-A). site
// names the static callsite.
func (p *Proc) CommRank(c *Comm, site string) conc.Value {
	if c.world {
		return p.CC.MarkRankWorld(site, c.local)
	}
	return p.CC.MarkRankLocal(site, c.local, c.concIdx, c.Size())
}

// CommSize is MPI_Comm_size: marked as sw on the world communicator. COMPI
// does not mark sizes of other communicators, so those return concretely.
func (p *Proc) CommSize(c *Comm, site string) conc.Value {
	if c.world {
		return p.CC.MarkSizeWorld(site, c.Size())
	}
	p.CC.Tick()
	return conc.K(int64(c.Size()))
}

// Abort is MPI_Abort: it terminates the whole job.
func (p *Proc) Abort(code int) {
	panic(&ErrAbort{Rank: p.rank, Code: code})
}

// Convenience delegates to the concolic runtime, so target code reads close
// to instrumented C.

// In reads a marked input (developer-marked symbolic variable).
func (p *Proc) In(name string) conc.Value { return p.CC.InputInt(name) }

// InCap reads a marked input with an input cap (COMPI_int_with_limit).
func (p *Proc) InCap(name string, cap int64) conc.Value { return p.CC.InputIntCap(name, cap) }

// Param reads a campaign parameter (per-campaign cap or fix toggle).
func (p *Proc) Param(name string, def int64) int64 { return p.CC.Param(name, def) }

// ParamBool reads a boolean campaign parameter.
func (p *Proc) ParamBool(name string, def bool) bool { return p.CC.ParamBool(name, def) }

// If records the branch at site and returns the concrete outcome.
func (p *Proc) If(site conc.CondID, c conc.Cond) bool { return p.CC.Branch(site, c) }

// Enter records that a function was reached (reachable-branch estimation).
func (p *Proc) Enter(fn string) { p.CC.EnterFunc(fn) }

// Assert models C assert().
func (p *Proc) Assert(ok bool, format string, args ...any) { p.CC.Assert(ok, format, args...) }

// Tick advances the hang watchdog from instrumentation-free loops.
func (p *Proc) Tick() { p.CC.Tick() }

// Exprs models n instrumented expression evaluations (paid only by Heavy
// processes; see conc.Proc.Exprs).
func (p *Proc) Exprs(n int) { p.CC.Exprs(n) }
