package mpi

import (
	"fmt"
	"sync"
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

// Launch runs one test iteration: it starts NProcs ranks, waits for them all
// (or the watchdog), and collects per-rank statuses and logs.
func Launch(spec Spec) RunResult {
	if spec.Timeout == 0 {
		spec.Timeout = time.Minute
	}
	start := time.Now()
	rt := newRuntime(spec.NProcs, spec.Schedules, spec.MatchOrder)
	cancelCause := &causeTracker{}

	results := make([]RankResult, spec.NProcs)
	var resMu sync.Mutex
	var wg sync.WaitGroup

	for rank := 0; rank < spec.NProcs; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			cfg := spec.Conc(rank)
			var vars *conc.VarSpace
			if cfg.Mode == conc.Heavy {
				if spec.VarsFor != nil {
					vars = spec.VarsFor(rank)
				} else {
					vars = spec.Vars
				}
			}
			cp := conc.NewProc(rank, vars, spec.Inputs, cfg)
			p := &Proc{rt: rt, rank: rank, CC: cp}
			world := &Comm{id: 0, world: true, local: rank, concIdx: -1}
			world.ranks = make([]int, spec.NProcs)
			for i := range world.ranks {
				world.ranks[i] = i
			}
			p.world = world

			res := RankResult{Rank: rank}
			func() {
				defer func() {
					if r := recover(); r != nil {
						res.Status, res.Err = classify(rank, r, cancelCause)
						// A primary failure stops the whole job, as a
						// crashed rank does under a real MPI launcher.
						if res.Status == StatusCrash || res.Status == StatusHang {
							cancelCause.set(causePeer)
							rt.cancel()
						}
					}
				}()
				res.Exit = spec.Main(p)
				if res.Exit != 0 {
					cancelCause.set(causePeer)
					rt.cancel()
				}
			}()
			// Retire the rank from the wait-for graph. An unclean finish
			// stands the detector down: the job is already failing and
			// collateral blocking must keep reporting as Aborted.
			rt.det.finish(rank, res.Status == StatusOK && res.Err == nil && res.Exit == 0)
			res.Log = cp.Log()
			res.LogBytes = res.Log.EncodedSize()
			resMu.Lock()
			results[rank] = res
			resMu.Unlock()
		}(rank)
	}

	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()

	// The watchdog is stopped as soon as the ranks finish: a pending timer
	// stays in memory until it fires, and campaigns launch far more often
	// than the timeout elapses.
	watchdog := time.NewTimer(spec.Timeout)
	defer watchdog.Stop()
	select {
	case <-finished:
	case <-watchdog.C:
		cancelCause.set(causeTimeout)
		rt.cancel()
		// Grace period for blocked ranks to unwind through ErrStopped.
		select {
		case <-finished:
		case <-time.After(5 * time.Second):
			// A rank is stuck in an uninstrumented loop; report it as a
			// hang without waiting further.
		}
	}

	resMu.Lock()
	out := make([]RankResult, spec.NProcs)
	copy(out, results)
	resMu.Unlock()
	for i := range out {
		if out[i].Log == nil {
			// Unfilled slot: the rank is still stuck past the grace period.
			out[i] = RankResult{Rank: i, Status: StatusHang, Err: &conc.ErrHang{Rank: i}}
		}
		out[i].Rank = i
	}
	return RunResult{Ranks: out, Elapsed: time.Since(start)}
}

type cancelCauseKind uint8

const (
	causeNone cancelCauseKind = iota
	causePeer
	causeTimeout
)

type causeTracker struct {
	mu sync.Mutex
	k  cancelCauseKind
}

func (c *causeTracker) set(k cancelCauseKind) {
	c.mu.Lock()
	if c.k == causeNone {
		c.k = k
	}
	c.mu.Unlock()
}

func (c *causeTracker) get() cancelCauseKind {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.k
}

// classify maps a recovered panic value to a rank status.
func classify(rank int, r any, cause *causeTracker) (RankStatus, error) {
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
		// Blocked rank released by cancellation: a hang if the watchdog
		// fired, collateral damage if a peer failed first.
		if cause.get() == causeTimeout {
			return StatusHang, e
		}
		return StatusAborted, e
	case error:
		return StatusCrash, fmt.Errorf("rank %d: %w", rank, e)
	default:
		return StatusCrash, fmt.Errorf("rank %d: panic: %v", rank, e)
	}
}
