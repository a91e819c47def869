package mpi

import (
	"fmt"
	"slices"
	"strings"
)

// ErrDeadlock is the panic value raised in ranks that are permanently stuck
// in a wait-for cycle the moment the scheduler proves no rank can ever make
// progress. Desc carries the canonical cycle description, so every rank in
// the same deadlock produces the same dedup key modulo its own rank prefix.
type ErrDeadlock struct {
	Rank  int
	Cycle []int // global ranks forming the wait-for cycle (or stuck chain)
	Desc  string
}

func (e *ErrDeadlock) Error() string {
	return fmt.Sprintf("rank %d: deadlock: %s", e.Rank, e.Desc)
}

// waitState is one rank's place in the scheduler.
type waitState uint8

const (
	waitRunnable waitState = iota // running, or ready to resume
	waitBlocked                   // parked in a receive
	waitDone                      // its coroutine has returned
)

// rankWait is one rank's scheduling state and, while it is blocked, the
// receive it waits in.
type rankWait struct {
	state   waitState
	comm    *Comm
	src     int // awaited local source rank, or AnySource
	tag     int
	granted bool // a quiescent wildcard match is granted (Schedules)
}

// wakes reports whether msg, just queued in this rank's mailbox, satisfies
// the receive the rank is blocked in. Under Schedules a wildcard receive
// matches only at quiescence, so no send wakes it.
func (w *rankWait) wakes(msg message, sched bool) bool {
	if w.state != waitBlocked || !matches(msg, w.src, w.tag, w.comm.id) {
		return false
	}
	return w.src != AnySource || !sched
}

// quiesce runs when no rank is runnable and some are blocked. A send wakes
// every receive it satisfies, so each blocked receive is one no queued
// message can satisfy, except, under Schedules, a wildcard receive: those
// match only here, where the eligible set is complete and deterministic (the
// lazy-matching discipline of MPISE/MPI-SV). quiesce grants the lowest-rank
// wildcard receive with a candidate; failing that, the job is permanently
// stuck, because sends are buffered and never block, and quiesce proves the
// deadlock.
func (rt *Runtime) quiesce() {
	if rt.sched {
		for r := range rt.waits {
			w := &rt.waits[r]
			if w.state == waitBlocked && w.src == AnySource && rt.mbox[r].hasMatch(AnySource, w.tag, w.comm.id) {
				w.state, w.granted = waitRunnable, true
				return
			}
		}
	}
	rt.cycle, rt.desc = rt.buildCycle()
	rt.stop(false)
}

// stopErr is the panic value of a rank whose receive cannot complete in a
// stopped job: its share of a proven deadlock, or ErrStopped. Every rank
// alive when a deadlock is proven is blocked in it.
func (rt *Runtime) stopErr(rank int) error {
	if rt.cycle != nil {
		return &ErrDeadlock{Rank: rank, Cycle: rt.cycle, Desc: rt.desc}
	}
	return &ErrStopped{Rank: rank}
}

// awaited lists the global ranks whose send could satisfy blocked rank r's
// receive — its outgoing wait-for edges, sorted ascending.
func (rt *Runtime) awaited(r int) []int {
	w := &rt.waits[r]
	if w.src != AnySource {
		return []int{w.comm.GlobalOf(w.src)}
	}
	out := make([]int, 0, w.comm.Size()-1)
	for _, g := range w.comm.ranks {
		if g != r {
			out = append(out, g)
		}
	}
	slices.Sort(out)
	return out
}

// buildCycle walks the wait-for graph from the lowest blocked rank, always
// following the smallest blocked awaited rank, until it revisits a node (a
// cycle) or reaches a rank awaiting only exited peers (a stuck chain). The
// walk is deterministic, so the description is a stable dedup key.
func (rt *Runtime) buildCycle() ([]int, string) {
	start := slices.IndexFunc(rt.waits, func(w rankWait) bool { return w.state == waitBlocked })
	pos := map[int]int{}
	var path []int
	cur := start
	for {
		if i, ok := pos[cur]; ok {
			cyc := append([]int(nil), path[i:]...)
			return cyc, cycleDesc(cyc)
		}
		pos[cur] = len(path)
		path = append(path, cur)
		awaited := rt.awaited(cur)
		next := -1
		for _, a := range awaited {
			if a != cur && rt.waits[a].state == waitBlocked {
				next = a
				break
			}
		}
		if next < 0 {
			return append([]int(nil), path...),
				fmt.Sprintf("rank %d waits on exited peer(s) %v", cur, awaited)
		}
		cur = next
	}
}

func cycleDesc(cyc []int) string {
	parts := make([]string, 0, len(cyc)+1)
	for _, r := range cyc {
		parts = append(parts, fmt.Sprint(r))
	}
	parts = append(parts, fmt.Sprint(cyc[0]))
	return "wait-for cycle " + strings.Join(parts, "->")
}

// wildMatch is one quiescent wildcard match: the message, the eligible-set
// fingerprint (sorted candidate local sources), the index chosen, and the
// global choice sequence number.
type wildMatch struct {
	msg    message
	srcs   []int
	choice int
	seq    int
}

// takeGranted consumes rank's quiescent wildcard grant: it computes the
// candidate set, complete because every other live rank is blocked or
// finished, picks the directed or default index, and removes the chosen
// message.
func (rt *Runtime) takeGranted(rank, tag, comm int) wildMatch {
	rt.waits[rank].granted = false
	mb := &rt.mbox[rank]
	srcs := mb.candidateSources(tag, comm)
	choice := 0
	var seq int
	if len(srcs) > 1 {
		if rank < len(rt.order) && rt.cursor[rank] < len(rt.order[rank]) {
			choice = min(max(rt.order[rank][rt.cursor[rank]], 0), len(srcs)-1)
		}
		rt.cursor[rank]++
		seq = rt.seq
		rt.seq++
	}
	// The take cannot miss: srcs was just read off this queue.
	msg, _ := mb.take(srcs[choice], tag, comm)
	return wildMatch{msg: msg, srcs: srcs, choice: choice, seq: seq}
}
