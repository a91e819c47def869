package core

import (
	"encoding/json"
	"sort"

	"repro/internal/mpi"
)

// ScheduleStats summarizes a campaign's schedule-space exploration.
type ScheduleStats struct {
	ChoicePoints int // wildcard choice points observed across all executions
	Orders       int // directed match orders executed (beyond the defaults)
	Deadlocks    int // distinct deadlock errors found
}

// schedRun is one pending directed execution on the schedule frontier: the
// per-rank match-order prefix to replay plus the concrete setup and inputs of
// the run that discovered it (a match order is only meaningful under the
// inputs that produced its choice points).
type schedRun struct {
	Order  [][]int          `json:"order"`
	Inputs map[string]int64 `json:"inputs,omitempty"`
	NProcs int              `json:"nprocs"`
	Focus  int              `json:"focus"`
}

// key is the frontier dedup fingerprint. json.Marshal sorts map keys, so the
// key is deterministic.
func (sr schedRun) key() string {
	b, _ := json.Marshal(sr)
	return string(b)
}

// matchPoint is one choice point flattened out of a run's rank logs.
type matchPoint struct {
	rank    int // global rank that matched
	rankIdx int // index within that rank's choice-point sequence
	nsrcs   int // eligible-set size
	choice  int // index actually matched
	seq     int // global grant sequence (total order across ranks)
}

// collectMatches flattens every rank's recorded choice points and orders them
// by the global grant sequence. Quiescent matching serializes grants, so the
// sequence is a total order: "the deepest choice point" is well-defined the
// same way the deepest branch on a path is.
func collectMatches(run mpi.RunResult) []matchPoint {
	var pts []matchPoint
	for _, rr := range run.Ranks {
		if rr.Log == nil {
			continue
		}
		for i, m := range rr.Log.Matches {
			pts = append(pts, matchPoint{
				rank:    rr.Rank,
				rankIdx: i,
				nsrcs:   len(m.Srcs),
				choice:  int(m.Choice),
				seq:     int(m.Seq),
			})
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].seq < pts[j].seq })
	return pts
}

// harvestMatches negates match choices the way the strategy negates branch
// predicates: for every free choice point of the run (one not directed by the
// parent's order prefix), every untried eligible index becomes a pending
// child run whose order replays the choices up to that point and diverges
// there. Children are pushed shallow-to-deep, and the frontier pops from the
// end, so the deepest choice point's alternatives run first — the DFS shape
// of the branch search, transplanted to schedule space.
func (e *Engine) harvestMatches(run mpi.RunResult, parent [][]int, inputs map[string]int64, st setup) {
	pts := collectMatches(run)
	if len(pts) == 0 {
		return
	}
	e.schedPoints += len(pts)
	nprocs := st.nprocs
	dir := make([]int, nprocs)
	for r := 0; r < len(parent) && r < nprocs; r++ {
		dir[r] = len(parent[r])
	}
	for i, pt := range pts {
		if pt.rank < nprocs && pt.rankIdx < dir[pt.rank] {
			continue // directed by the parent: its alternatives are already queued
		}
		for alt := 0; alt < pt.nsrcs; alt++ {
			if alt == pt.choice {
				continue
			}
			sr := schedRun{
				Order:  childOrder(pts[:i], pt, alt, nprocs),
				Inputs: cloneInputs(inputs),
				NProcs: nprocs,
				Focus:  st.focus,
			}
			key := sr.key()
			if _, dup := e.schedSeen[key]; dup {
				continue
			}
			e.schedSeen[key] = struct{}{}
			e.schedPend = append(e.schedPend, sr)
		}
	}
}

// childOrder rebuilds the per-rank directive prefix that replays prefix's
// choices and then takes alt at pt. Within a rank, global sequence order and
// choice-point order coincide (both are execution order), so grouping the
// prefix by rank yields exactly the directive streams the runtime consumes.
func childOrder(prefix []matchPoint, pt matchPoint, alt, nprocs int) [][]int {
	order := make([][]int, nprocs)
	for _, p := range prefix {
		if p.rank < nprocs {
			order[p.rank] = append(order[p.rank], p.choice)
		}
	}
	if pt.rank < nprocs {
		order[pt.rank] = append(order[pt.rank], alt)
	}
	return order
}

// scheduleStats assembles the campaign's schedule-exploration summary;
// Deadlocks counts distinct deadlock messages among the error records.
func scheduleStats(points, orders int, errors []ErrorRecord) ScheduleStats {
	st := ScheduleStats{ChoicePoints: points, Orders: orders}
	seen := map[string]struct{}{}
	for _, rec := range errors {
		if rec.Status != mpi.StatusDeadlock {
			continue
		}
		if _, dup := seen[rec.Msg]; dup {
			continue
		}
		seen[rec.Msg] = struct{}{}
		st.Deadlocks++
	}
	return st
}
