package mpi

import (
	"fmt"
	"time"

	"repro/internal/conc"
)

// RankStatus classifies how one rank's execution ended.
type RankStatus uint8

// Rank outcomes.
const (
	StatusOK       RankStatus = iota
	StatusCrash               // panic: segfault analogue, assertion, FP exception
	StatusHang                // watchdog deadline or tick budget exceeded
	StatusAborted             // MPI_Abort, non-zero exit, or stopped by a peer failure
	StatusDeadlock            // proven wait-for cycle: every live rank blocked, no satisfiable match
)

func (s RankStatus) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusCrash:
		return "crash"
	case StatusHang:
		return "hang"
	case StatusAborted:
		return "aborted"
	case StatusDeadlock:
		return "deadlock"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// RankResult is one rank's outcome plus its serialized instrumentation log.
type RankResult struct {
	Rank     int
	Status   RankStatus
	Err      error
	Exit     int
	Log      *conc.Log
	LogBytes int
}

// RunResult is the outcome of one MPMD launch (one test iteration).
type RunResult struct {
	Ranks   []RankResult
	Elapsed time.Duration
}

// Failed reports whether any rank ended abnormally (COMPI logs the inputs of
// such iterations as error-inducing).
func (r RunResult) Failed() bool {
	for _, rr := range r.Ranks {
		if rr.Status != StatusOK || rr.Exit != 0 {
			return true
		}
	}
	return false
}

// FirstError returns the most significant failure: crashes, hangs, and
// deadlocks beat secondary aborted statuses.
func (r RunResult) FirstError() (RankResult, bool) {
	var second *RankResult
	for i, rr := range r.Ranks {
		switch rr.Status {
		case StatusCrash, StatusHang, StatusDeadlock:
			return rr, true
		case StatusAborted:
			if second == nil {
				second = &r.Ranks[i]
			}
		case StatusOK:
			if rr.Exit != 0 && second == nil {
				second = &r.Ranks[i]
			}
		}
	}
	if second != nil {
		return *second, true
	}
	return RankResult{}, false
}

// Spec describes one MPMD launch.
type Spec struct {
	NProcs int
	Main   func(*Proc) int
	// Conc returns the instrumentation config for a rank; the engine makes
	// exactly one rank Heavy (the focus) and the rest Light, which is the
	// two-way MPMD launch of §III-D.
	Conc func(rank int) conc.Config
	// Vars is the engine's variable space, shared with Heavy ranks.
	Vars *conc.VarSpace
	// VarsFor, when non-nil, overrides Vars per rank. The engine uses it
	// under one-way instrumentation so that non-focus Heavy ranks get
	// private variable spaces (their symbolic work is real but must not
	// race on the engine's shared space).
	VarsFor func(rank int) *conc.VarSpace
	// Inputs are the engine-chosen values for marked input variables.
	Inputs map[string]int64
	// Timeout bounds the whole run; ranks still blocked afterwards are
	// reported as hangs. Zero means one minute.
	Timeout time.Duration
	// Schedules turns on schedule-space semantics: wildcard receives match
	// only at quiescence (every other live rank blocked or finished), which
	// makes the eligible set complete and deterministic, and each match with
	// more than one candidate is recorded as a choice point in the rank's
	// log. Off, wildcard matching is the historical first-queued-match.
	Schedules bool
	// MatchOrder directs wildcard match choices per global rank: entry r is
	// the sequence of eligible-set indices rank r's choice points consume,
	// in order. Indices are clamped to the eligible set; exhausted or absent
	// directives fall back to the default (lowest candidate source). Only
	// consulted under Schedules.
	MatchOrder [][]int
}

// Launch runs one test iteration: it runs NProcs ranks under one scheduler
// until they have all returned (or the watchdog expires), and collects
// per-rank statuses and logs.
func Launch(spec Spec) RunResult {
	if spec.Timeout == 0 {
		spec.Timeout = time.Minute
	}
	start := time.Now()
	rt := newRuntime(spec.NProcs, spec.Schedules, spec.MatchOrder)
	finished := make(chan struct{})
	go rt.run(&spec, finished)

	// The watchdog is stopped as soon as the ranks finish: a pending timer
	// stays in memory until it fires, and campaigns launch far more often
	// than the timeout elapses.
	watchdog := time.NewTimer(spec.Timeout)
	defer watchdog.Stop()
	select {
	case <-finished:
	case <-watchdog.C:
		// The scheduler stops the job at its next switch; blocked ranks
		// then unwind through ErrStopped as hangs.
		close(rt.done)
		select {
		case <-finished:
		case <-time.After(5 * time.Second):
			// A rank is stuck in an uninstrumented loop and never
			// yields; abandon the scheduler and report it as a hang.
		}
	}

	rt.resMu.Lock()
	out := make([]RankResult, spec.NProcs)
	copy(out, rt.results)
	rt.resMu.Unlock()
	for i := range out {
		if out[i].Log == nil {
			// Unfilled slot: the rank never returned.
			out[i] = RankResult{Rank: i, Status: StatusHang, Err: &conc.ErrHang{Rank: i}}
		}
	}
	return RunResult{Ranks: out, Elapsed: time.Since(start)}
}

// run is the scheduler. It starts every rank as a coroutine, then resumes
// runnable ranks in cyclic rank order, each until it blocks in a receive,
// yields in a Test, or returns. When no rank is runnable and some are
// blocked, quiesce grants a wildcard match or proves a deadlock.
func (rt *Runtime) run(spec *Spec, finished chan<- struct{}) {
	defer close(finished)
	n := spec.NProcs
	procs := make([]Proc, n)
	worlds := make([]Comm, n)
	resume := make([]func() bool, n)
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	// Missing inputs are drawn from one stream per seed, which every rank
	// of the launch replays from its start.
	var draws *conc.Stream
	for r := range procs {
		cfg := spec.Conc(r)
		if draws == nil || draws.Seed() != cfg.Seed {
			draws = conc.NewStream(cfg.Seed)
		}
		var vars *conc.VarSpace
		if cfg.Mode == conc.Heavy {
			if spec.VarsFor != nil {
				vars = spec.VarsFor(r)
			} else {
				vars = spec.Vars
			}
		}
		worlds[r] = Comm{id: 0, ranks: ranks, local: r, world: true, concIdx: -1}
		p := &procs[r]
		*p = Proc{rt: rt, rank: r, world: &worlds[r], CC: conc.NewProc(r, vars, spec.Inputs, cfg)}
		p.CC.DrawFrom(draws)
		resume[r] = newCoroutine(func(yield func()) {
			p.yield = yield
			defer func() {
				if v := recover(); v != nil {
					p.res.Status, p.res.Err = classify(p.rank, v, rt.timedOut)
				}
			}()
			p.res.Exit = spec.Main(p)
		})
	}
	for cur := n - 1; rt.live > 0; {
		if !rt.stopped {
			select {
			case <-rt.done:
				rt.stop(true)
			default:
			}
		}
		r := rt.next(cur)
		if r < 0 {
			rt.quiesce()
			continue
		}
		cur = r
		if !resume[r]() {
			rt.finish(&procs[r])
		}
	}
}

// next returns the first runnable rank after cur in cyclic order, cur itself
// last, or -1 when none is.
func (rt *Runtime) next(cur int) int {
	for i := 1; i <= rt.nprocs; i++ {
		r := cur + i
		if r >= rt.nprocs {
			r -= rt.nprocs
		}
		if rt.waits[r].state == waitRunnable {
			return r
		}
	}
	return -1
}

// stop makes every blocked rank runnable; from now on a receive with no
// queued match panics instead of blocking, so the blocked ranks unwind with
// stopErr. A failed rank stops the job, as a crashed process does under a
// real MPI launcher.
func (rt *Runtime) stop(timedOut bool) {
	if rt.stopped {
		return
	}
	rt.stopped, rt.timedOut = true, timedOut
	for r := range rt.waits {
		if rt.waits[r].state == waitBlocked {
			rt.waits[r].state = waitRunnable
		}
	}
}

// finish retires p once its coroutine has returned and publishes its result.
// The log is built here, on the scheduler goroutine, whose stack has already
// grown, rather than at the end of the rank's fresh coroutine.
func (rt *Runtime) finish(p *Proc) {
	rt.waits[p.rank].state = waitDone
	rt.live--
	res := p.res
	if res.Status != StatusOK || res.Exit != 0 {
		rt.stop(false)
	}
	res.Rank = p.rank
	res.Log = p.CC.Log()
	res.LogBytes = res.Log.EncodedSize()
	rt.resMu.Lock()
	rt.results[p.rank] = res
	rt.resMu.Unlock()
}

// classify maps a recovered panic value to a rank status.
func classify(rank int, r any, timedOut bool) (RankStatus, error) {
	switch e := r.(type) {
	case *conc.ErrHang:
		return StatusHang, e
	case *conc.ErrAssert:
		return StatusCrash, e
	case *ErrDeadlock:
		return StatusDeadlock, e
	case *ErrAbort:
		return StatusAborted, e
	case *ErrStopped:
		// A rank released by the stop: a hang if the watchdog fired,
		// collateral damage if a peer failed first.
		if timedOut {
			return StatusHang, e
		}
		return StatusAborted, e
	case error:
		return StatusCrash, fmt.Errorf("rank %d: %w", rank, e)
	default:
		return StatusCrash, fmt.Errorf("rank %d: panic: %v", rank, e)
	}
}
