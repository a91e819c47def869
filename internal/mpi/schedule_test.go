package mpi

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/conc"
)

// launchSched runs main on n ranks with schedule-space semantics on.
func launchSched(t *testing.T, n int, order [][]int, main func(*Proc) int) RunResult {
	t.Helper()
	return Launch(Spec{
		NProcs: n,
		Main:   main,
		Vars:   conc.NewVarSpace(),
		Conc: func(rank int) conc.Config {
			mode := conc.Light
			if rank == 0 {
				mode = conc.Heavy
			}
			return conc.Config{Mode: mode, Seed: 1, MaxTicks: 1 << 20}
		},
		Timeout:    10 * time.Second,
		Schedules:  true,
		MatchOrder: order,
	})
}

// fanIn is the canonical racy wildcard receiver: every non-zero rank sends
// its rank number to rank 0, which drains them with wildcard receives and
// returns the sources in match order via the data channel.
func fanIn(order *[]int) func(*Proc) int {
	return func(p *Proc) int {
		if p.Rank() != 0 {
			p.Send(p.World(), 0, 7, []float64{float64(p.Rank())})
			return 0
		}
		for i := 0; i < p.NProcs()-1; i++ {
			data, st := p.Recv(p.World(), AnySource, 7)
			if int(data[0]) != st.Source {
				return 1
			}
			*order = append(*order, st.Source)
		}
		return 0
	}
}

func TestQuiescentWildcardDefaultOrder(t *testing.T) {
	// Schedule mode with no directives: the eligible set at quiescence is
	// complete ({1,2,3}) and the default choice is the lowest source —
	// deterministic regardless of arrival interleaving.
	var got []int
	res := launchSched(t, 4, nil, fanIn(&got))
	if res.Failed() {
		t.Fatalf("run failed: %+v", res.Ranks)
	}
	if want := []int{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("match order %v, want %v", got, want)
	}
	// The first two matches had >1 candidates; the drained third did not.
	m := res.Ranks[0].Log.Matches
	if len(m) != 2 {
		t.Fatalf("choice points: %d (%+v), want 2", len(m), m)
	}
	if !reflect.DeepEqual(m[0].Srcs, []int32{1, 2, 3}) || m[0].Choice != 0 {
		t.Fatalf("first choice point %+v, want srcs [1 2 3] choice 0", m[0])
	}
	if !reflect.DeepEqual(m[1].Srcs, []int32{2, 3}) || m[1].Choice != 0 {
		t.Fatalf("second choice point %+v, want srcs [2 3] choice 0", m[1])
	}
}

func TestMatchOrderDirectsChoices(t *testing.T) {
	// Rank 0's directives pick the last eligible index, then index 1: the
	// matches must come out 3, then (of {1,2}) 2, then the drained 1.
	var got []int
	res := launchSched(t, 4, [][]int{{2, 1}}, fanIn(&got))
	if res.Failed() {
		t.Fatalf("run failed: %+v", res.Ranks)
	}
	if want := []int{3, 2, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("match order %v, want %v", got, want)
	}
	m := res.Ranks[0].Log.Matches
	if len(m) != 2 || m[0].Choice != 2 || m[1].Choice != 1 {
		t.Fatalf("recorded choices %+v, want choices 2 then 1", m)
	}
}

func TestMatchOrderClampsOutOfRange(t *testing.T) {
	// A directive beyond the eligible set clamps to the last index rather
	// than wedging or panicking.
	var got []int
	res := launchSched(t, 3, [][]int{{99}}, fanIn(&got))
	if res.Failed() {
		t.Fatalf("run failed: %+v", res.Ranks)
	}
	if want := []int{2, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("match order %v, want %v", got, want)
	}
}

func TestWildcardOrderFixedWithoutSchedules(t *testing.T) {
	// With schedules off a wildcard receive takes the first queued match,
	// and one scheduler runs the ranks in a fixed order, so the senders'
	// messages queue, and match, in the same order on every launch.
	orders := map[string]bool{}
	for i := 0; i < 200; i++ {
		var got []int
		if res := run(t, 8, fanIn(&got)); res.Failed() {
			t.Fatalf("launch %d failed: %+v", i, res.Ranks)
		}
		orders[fmt.Sprint(got)] = true
	}
	if len(orders) != 1 {
		t.Fatalf("%d distinct match orders in 200 launches, want 1: %v", len(orders), orders)
	}
}

func TestSchedulesOffKeepsEagerMatching(t *testing.T) {
	// With schedules off nothing is recorded and wildcard matching stays
	// the historical eager first-queued-match (here causally forced).
	res := run(t, 2, func(p *Proc) int {
		if p.Rank() == 1 {
			p.Send(p.World(), 0, 7, []float64{1})
			return 0
		}
		_, st := p.Recv(p.World(), AnySource, 7)
		if st.Source != 1 {
			return 1
		}
		return 0
	})
	if res.Failed() {
		t.Fatalf("run failed: %+v", res.Ranks)
	}
	for _, rr := range res.Ranks {
		if len(rr.Log.Matches) != 0 {
			t.Fatalf("rank %d recorded %d matches with schedules off", rr.Rank, len(rr.Log.Matches))
		}
	}
}

func TestScheduledDeadlockCarriesCycle(t *testing.T) {
	// Directing the wildcard to match rank 2 first sends this protocol into
	// a circular wait; the detector must name the cycle.
	main := func(p *Proc) int {
		w := p.World()
		switch p.Rank() {
		case 0:
			_, st := p.Recv(w, AnySource, 1)
			// Protocol bug: assumes the first ready came from rank 1.
			_ = st
			p.Recv(w, 2, 1)
			p.Send(w, 1, 2, nil)
			p.Send(w, 2, 2, nil)
		case 1:
			p.Send(w, 0, 1, nil)
			p.Send(w, 2, 3, nil)
			p.Recv(w, 0, 2)
		case 2:
			p.Recv(w, 1, 3)
			p.Send(w, 0, 1, nil)
			p.Recv(w, 0, 2)
		}
		return 0
	}
	// Default order: completes.
	if res := launchSched(t, 3, nil, main); res.Failed() {
		t.Fatalf("default order must complete: %+v", res.Ranks)
	}
	// Directed order: deadlock with the 0<->2 cycle.
	res := launchSched(t, 3, [][]int{{1}}, main)
	var dl *ErrDeadlock
	for _, rr := range res.Ranks {
		if rr.Status != StatusDeadlock {
			t.Fatalf("rank %d: %v (want deadlock)", rr.Rank, rr.Status)
		}
		if e, ok := rr.Err.(*ErrDeadlock); ok && dl == nil {
			dl = e
		}
	}
	if dl == nil || dl.Desc != "wait-for cycle 0->2->0" {
		t.Fatalf("deadlock desc: %+v, want wait-for cycle 0->2->0", dl)
	}
}

// FuzzMailboxMatch pins the matcher invariants the schedule machinery leans
// on: deterministic-src matching is FIFO per source and independent of how
// other sources' messages interleave; a wildcard eligible set is sorted,
// duplicate-free, and every index in it is takeable; and take never loses or
// duplicates a message.
func FuzzMailboxMatch(f *testing.F) {
	f.Add(int64(1), 8)
	f.Add(int64(42), 32)
	f.Add(int64(7), 1)
	f.Fuzz(func(t *testing.T, seed int64, n int) {
		if n < 0 || n > 256 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		mb := &mailbox{}
		pending := map[probeKey][]float64{} // per-(src,tag,comm) FIFO of payloads
		var keys []probeKey
		for i := 0; i < n; i++ {
			k := probeKey{src: rng.Intn(4), tag: rng.Intn(3), comm: rng.Intn(2)}
			mb.put(message{src: k.src, tag: k.tag, comm: k.comm, data: []float64{float64(i)}})
			pending[k] = append(pending[k], float64(i))
			keys = append(keys, k)
		}
		for len(keys) > 0 {
			switch rng.Intn(3) {
			case 0: // deterministic-src probe
				k := keys[rng.Intn(len(keys))]
				if !mb.hasMatch(k.src, k.tag, k.comm) {
					t.Fatalf("hasMatch(%+v) = false with %d pending", k, len(pending[k]))
				}
				msg, ok := mb.take(k.src, k.tag, k.comm)
				if !ok {
					t.Fatalf("take(%+v) failed with %d pending", k, len(pending[k]))
				}
				if msg.data[0] != pending[k][0] {
					t.Fatalf("take(%+v) = %v, want FIFO head %v", k, msg.data[0], pending[k][0])
				}
				consume(t, pending, &keys, k)
			case 1: // wildcard eligible set + directed take
				k := keys[rng.Intn(len(keys))]
				srcs := mb.candidateSources(k.tag, k.comm)
				if len(srcs) == 0 {
					t.Fatalf("candidateSources(%d,%d) empty with pending messages", k.tag, k.comm)
				}
				for i := range srcs {
					if i > 0 && srcs[i] <= srcs[i-1] {
						t.Fatalf("eligible set %v not sorted/distinct", srcs)
					}
				}
				choice := rng.Intn(len(srcs))
				ck := probeKey{src: srcs[choice], tag: k.tag, comm: k.comm}
				msg, ok := mb.take(ck.src, ck.tag, ck.comm)
				if !ok {
					t.Fatalf("eligible index %d of %v not takeable", choice, srcs)
				}
				if msg.data[0] != pending[ck][0] {
					t.Fatalf("wildcard take = %v, want FIFO head %v", msg.data[0], pending[ck][0])
				}
				consume(t, pending, &keys, ck)
			case 2: // probe for something that may not exist
				k := probeKey{src: rng.Intn(5), tag: rng.Intn(4), comm: rng.Intn(3)}
				want := len(pending[k]) > 0
				if got := mb.hasMatch(k.src, k.tag, k.comm); got != want {
					t.Fatalf("hasMatch(%+v) = %v, want %v", k, got, want)
				}
			}
		}
		if mb.hasMatch(AnySource, 0, 0) || mb.hasMatch(AnySource, 1, 0) ||
			mb.hasMatch(AnySource, 2, 0) || mb.hasMatch(AnySource, 0, 1) {
			t.Fatal("mailbox not empty after draining every tracked message")
		}
	})
}

// consume pops the model FIFO head for k and drops k from keys once.
type probeKey struct{ src, tag, comm int }

func consume(t *testing.T, pending map[probeKey][]float64, keys *[]probeKey, k probeKey) {
	t.Helper()
	q := pending[k]
	if len(q) == 0 {
		t.Fatalf("model desync: take succeeded for %+v with empty model queue", k)
	}
	pending[k] = q[1:]
	if len(pending[k]) == 0 {
		delete(pending, k)
	}
	ks := *keys
	for i := range ks {
		if ks[i] == k {
			ks[i] = ks[len(ks)-1]
			*keys = ks[:len(ks)-1]
			return
		}
	}
	t.Fatalf("model desync: key %+v not tracked", k)
}
