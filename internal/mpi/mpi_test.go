package mpi

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/conc"
)

// run launches main on n ranks with rank 0 heavy and returns the result.
func run(t *testing.T, n int, main func(*Proc) int) RunResult {
	t.Helper()
	return Launch(Spec{
		NProcs:    n,
		Main:      main,
		Vars:      conc.NewVarSpace(),
		Reduction: true,
		Seed:      42,
		MaxTicks:  1 << 20,
		Inputs:    map[string]int64{},
		Timeout:   10 * time.Second,
	})
}

func requireAllOK(t *testing.T, r RunResult) {
	t.Helper()
	for _, rr := range r.Ranks {
		if rr.Status != StatusOK || rr.Exit != 0 {
			t.Fatalf("rank %d: status=%v exit=%d err=%v", rr.Rank, rr.Status, rr.Exit, rr.Err)
		}
	}
}

func TestSendRecvBasic(t *testing.T) {
	res := run(t, 2, func(p *Proc) int {
		w := p.World()
		if p.Rank() == 0 {
			p.Send(w, 1, 7, []float64{1, 2, 3})
		} else {
			data, st := p.Recv(w, 0, 7)
			if st.Source != 0 || st.Tag != 7 {
				return 1
			}
			if !reflect.DeepEqual(data, []float64{1, 2, 3}) {
				return 2
			}
		}
		return 0
	})
	requireAllOK(t, res)
}

func TestRecvTagMatching(t *testing.T) {
	res := run(t, 2, func(p *Proc) int {
		w := p.World()
		if p.Rank() == 0 {
			p.Send(w, 1, 1, []float64{10})
			p.Send(w, 1, 2, []float64{20})
		} else {
			// Receive out of send order by tag.
			d2, _ := p.Recv(w, 0, 2)
			d1, _ := p.Recv(w, 0, 1)
			if d2[0] != 20 || d1[0] != 10 {
				return 1
			}
		}
		return 0
	})
	requireAllOK(t, res)
}

func TestRecvAnySource(t *testing.T) {
	res := run(t, 4, func(p *Proc) int {
		w := p.World()
		if p.Rank() == 0 {
			seen := map[int]bool{}
			for i := 0; i < 3; i++ {
				data, st := p.Recv(w, AnySource, 5)
				if int(data[0]) != st.Source {
					return 1
				}
				seen[st.Source] = true
			}
			if len(seen) != 3 {
				return 2
			}
		} else {
			p.Send(w, 0, 5, []float64{float64(p.Rank())})
		}
		return 0
	})
	requireAllOK(t, res)
}

func TestSendCopiesBuffer(t *testing.T) {
	res := run(t, 2, func(p *Proc) int {
		w := p.World()
		if p.Rank() == 0 {
			buf := []float64{1}
			p.Send(w, 1, 0, buf)
			buf[0] = 99 // must not affect the in-flight message
			p.Barrier(w)
		} else {
			p.Barrier(w)
			d, _ := p.Recv(w, 0, 0)
			if d[0] != 1 {
				return 1
			}
		}
		return 0
	})
	requireAllOK(t, res)
}

func TestBcast(t *testing.T) {
	res := run(t, 5, func(p *Proc) int {
		w := p.World()
		var data []float64
		if p.Rank() == 2 {
			data = []float64{3.5, -1}
		} else {
			data = []float64{0, 0}
		}
		got := p.Bcast(w, 2, data)
		if !reflect.DeepEqual(got, []float64{3.5, -1}) {
			return 1
		}
		return 0
	})
	requireAllOK(t, res)
}

func TestReduceAndAllreduce(t *testing.T) {
	for n := 1; n <= 6; n++ {
		res := run(t, n, func(p *Proc) int {
			w := p.World()
			me := []float64{float64(p.Rank() + 1), float64(p.Rank())}
			sum := p.Reduce(w, 0, OpSum, me)
			if p.Rank() == 0 {
				wantA := float64(n*(n+1)) / 2
				wantB := float64(n*(n-1)) / 2
				if sum[0] != wantA || sum[1] != wantB {
					return 1
				}
			} else if sum != nil {
				return 2
			}
			mx := p.Allreduce(w, OpMax, []float64{float64(p.Rank())})
			if mx[0] != float64(n-1) {
				return 3
			}
			mn := p.Allreduce(w, OpMin, []float64{float64(p.Rank())})
			if mn[0] != 0 {
				return 4
			}
			return 0
		})
		requireAllOK(t, res)
	}
}

func TestGatherScatterAllgatherAlltoall(t *testing.T) {
	const n = 4
	res := run(t, n, func(p *Proc) int {
		w := p.World()
		r := float64(p.Rank())
		g := p.Gather(w, 0, []float64{r, r})
		if p.Rank() == 0 {
			want := []float64{0, 0, 1, 1, 2, 2, 3, 3}
			if !reflect.DeepEqual(g, want) {
				return 1
			}
		}
		ag := p.Allgather(w, []float64{r})
		if !reflect.DeepEqual(ag, []float64{0, 1, 2, 3}) {
			return 2
		}
		var root []float64
		if p.Rank() == 1 {
			root = []float64{10, 11, 12, 13}
		}
		sc := p.Scatter(w, 1, root, 1)
		if sc[0] != float64(10+p.Rank()) {
			return 3
		}
		// Alltoall: rank i sends value 100*i + j to rank j.
		out := make([]float64, n)
		for j := 0; j < n; j++ {
			out[j] = 100*r + float64(j)
		}
		in := p.Alltoall(w, out, 1)
		for j := 0; j < n; j++ {
			if in[j] != 100*float64(j)+r {
				return 4
			}
		}
		return 0
	})
	requireAllOK(t, res)
}

func TestBarrierOrdering(t *testing.T) {
	// All ranks must observe every pre-barrier send after the barrier.
	res := run(t, 6, func(p *Proc) int {
		w := p.World()
		if p.Rank() != 0 {
			p.Send(w, 0, 9, []float64{1})
		}
		p.Barrier(w)
		if p.Rank() == 0 {
			for i := 1; i < 6; i++ {
				if _, ok := p.rt.mbox[0].take(AnySource, 9, 0); !ok {
					return 1
				}
			}
		}
		return 0
	})
	requireAllOK(t, res)
}

func TestSplitByParity(t *testing.T) {
	res := run(t, 6, func(p *Proc) int {
		w := p.World()
		sub := p.Split(w, p.Rank()%2, p.Rank())
		if sub.Size() != 3 {
			return 1
		}
		if sub.GlobalOf(sub.LocalRank()) != p.Rank() {
			return 2
		}
		// Members of a split communicate independently of world.
		sum := p.Allreduce(sub, OpSum, []float64{float64(p.Rank())})
		var want float64
		if p.Rank()%2 == 0 {
			want = 0 + 2 + 4
		} else {
			want = 1 + 3 + 5
		}
		if sum[0] != want {
			return 3
		}
		return 0
	})
	requireAllOK(t, res)
}

func TestSplitKeyOrdering(t *testing.T) {
	res := run(t, 4, func(p *Proc) int {
		w := p.World()
		// Reverse key order: global rank 3 becomes local 0, etc.
		sub := p.Split(w, 0, -p.Rank())
		if sub.GlobalOf(0) != 3 || sub.GlobalOf(3) != 0 {
			return 1
		}
		if sub.LocalRank() != 3-p.Rank() {
			return 2
		}
		return 0
	})
	requireAllOK(t, res)
}

func TestAutomaticMarkingWorld(t *testing.T) {
	res := run(t, 4, func(p *Proc) int {
		w := p.World()
		r := p.CommRank(w, "main:rank")
		s := p.CommSize(w, "main:size")
		if r.C != int64(p.Rank()) || s.C != 4 {
			return 1
		}
		if p.Rank() == 0 && (!r.IsSymbolic() || !s.IsSymbolic()) {
			return 2 // focus must see symbolic rw/sw
		}
		if p.Rank() != 0 && (r.IsSymbolic() || s.IsSymbolic()) {
			return 3 // non-focus must stay concrete
		}
		return 0
	})
	requireAllOK(t, res)
	log := res.Ranks[0].Log
	kinds := map[conc.VarKind]int{}
	for _, o := range log.Obs {
		kinds[o.Kind]++
	}
	if kinds[conc.KindRankWorld] != 1 || kinds[conc.KindSizeWorld] != 1 {
		t.Fatalf("focus observations: %+v", log.Obs)
	}
}

func TestAutomaticMarkingLocal(t *testing.T) {
	res := run(t, 6, func(p *Proc) int {
		w := p.World()
		sub := p.Split(w, p.Rank()%2, p.Rank())
		lr := p.CommRank(sub, "solver:lrank")
		ls := p.CommSize(sub, "solver:lsize")
		if lr.C != int64(sub.LocalRank()) || ls.C != 3 {
			return 1
		}
		if p.Rank() == 0 && !lr.IsSymbolic() {
			return 2
		}
		// Local sizes are never marked, per §III-A.
		if ls.IsSymbolic() {
			return 3
		}
		return 0
	})
	requireAllOK(t, res)
	log := res.Ranks[0].Log
	var rc *conc.VarObs
	for i, o := range log.Obs {
		if o.Kind == conc.KindRankLocal {
			rc = &log.Obs[i]
		}
	}
	if rc == nil {
		t.Fatal("no rc observation on focus")
	}
	if rc.CommSize != 3 || rc.CommIdx != 0 {
		t.Fatalf("rc obs: %+v", rc)
	}
	// Focus (global 0, even) group is {0,2,4}: mapping row must list them.
	if len(log.Mapping) != 1 || !reflect.DeepEqual(log.Mapping[0], []int32{0, 2, 4}) {
		t.Fatalf("mapping: %v", log.Mapping)
	}
}

func TestCrashStopsJob(t *testing.T) {
	res := run(t, 3, func(p *Proc) int {
		if p.Rank() == 1 {
			var s []float64
			_ = s[5] // index out of range: the segfault analogue
		}
		// Other ranks block forever; the crash must release them.
		p.Recv(p.World(), AnySource, 99)
		return 0
	})
	if !res.Failed() {
		t.Fatal("job must fail")
	}
	if res.Ranks[1].Status != StatusCrash {
		t.Fatalf("rank 1: %v", res.Ranks[1].Status)
	}
	for _, r := range []int{0, 2} {
		if res.Ranks[r].Status != StatusAborted {
			t.Fatalf("rank %d should be aborted, got %v", r, res.Ranks[r].Status)
		}
	}
	first, ok := res.FirstError()
	if !ok || first.Rank != 1 || first.Status != StatusCrash {
		t.Fatalf("first error: %+v ok=%v", first, ok)
	}
}

func TestAssertionFailureIsCrash(t *testing.T) {
	res := run(t, 2, func(p *Proc) int {
		p.Assert(p.Rank() != 1, "rank %d hit the bad path", p.Rank())
		p.Barrier(p.World())
		return 0
	})
	if res.Ranks[1].Status != StatusCrash {
		t.Fatalf("assert: %+v", res.Ranks[1])
	}
}

func TestDivideByZeroIsCrash(t *testing.T) {
	res := run(t, 2, func(p *Proc) int {
		d := p.Rank() // zero on rank 0
		x := 10 / d   // integer divide by zero: the FP-exception analogue
		_ = x
		p.Barrier(p.World())
		return 0
	})
	if res.Ranks[0].Status != StatusCrash {
		t.Fatalf("rank 0: %+v", res.Ranks[0])
	}
}

func TestTickBudgetHang(t *testing.T) {
	res := Launch(Spec{
		NProcs: 2,
		Main: func(p *Proc) int {
			if p.Rank() == 0 {
				for {
					p.Tick() // infinite loop caught by the tick budget
				}
			}
			p.Barrier(p.World())
			return 0
		},
		Vars:     conc.NewVarSpace(),
		Seed:     1,
		MaxTicks: 5000,
		Timeout:  10 * time.Second,
	})
	if res.Ranks[0].Status != StatusHang {
		t.Fatalf("rank 0: %+v", res.Ranks[0])
	}
}

func TestDeadlockDetectedImmediately(t *testing.T) {
	// Both ranks receive first: classic deadlock. The wait-for-graph
	// detector must prove and report it the moment both ranks block — with
	// the cycle named — instead of burning the watchdog budget on a generic
	// hang. The generous timeout is the point: finishing fast is only
	// possible through detection.
	start := time.Now()
	res := Launch(Spec{
		NProcs: 2,
		Main: func(p *Proc) int {
			p.Recv(p.World(), 1-p.Rank(), 0)
			return 0
		},
		Focus:   -1,
		Seed:    1,
		Timeout: 30 * time.Second,
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadlock took %s to surface; the detector should be immediate", elapsed)
	}
	for _, rr := range res.Ranks {
		if rr.Status != StatusDeadlock {
			t.Fatalf("rank %d: %v (want deadlock)", rr.Rank, rr.Status)
		}
		var dl *ErrDeadlock
		if !errors.As(rr.Err, &dl) {
			t.Fatalf("rank %d err: %v (want *ErrDeadlock)", rr.Rank, rr.Err)
		}
		if len(dl.Cycle) != 2 {
			t.Fatalf("rank %d cycle: %v (want both ranks)", rr.Rank, dl.Cycle)
		}
		if want := "wait-for cycle 0->1->0"; dl.Desc != want {
			t.Fatalf("rank %d desc: %q (want %q)", rr.Rank, dl.Desc, want)
		}
	}
	fe, ok := res.FirstError()
	if !ok || fe.Status != StatusDeadlock {
		t.Fatalf("FirstError = %+v, %v (want primary deadlock)", fe, ok)
	}
}

func TestTrueHangStaysHang(t *testing.T) {
	// One rank blocked on a never-sent message while another spins: no
	// quiescence, no cycle — the watchdog, not the detector, must end it.
	res := Launch(Spec{
		NProcs: 2,
		Main: func(p *Proc) int {
			if p.Rank() == 0 {
				p.Recv(p.World(), 1, 0)
				return 0
			}
			for {
				p.Tick()
			}
		},
		Focus:    -1,
		Seed:     1,
		MaxTicks: 1 << 40,
		Timeout:  300 * time.Millisecond,
	})
	for _, rr := range res.Ranks {
		if rr.Status == StatusDeadlock {
			t.Fatalf("rank %d: %v (a non-quiescent job is a hang, not a deadlock)", rr.Rank, rr.Status)
		}
	}
	if !res.Failed() {
		t.Fatal("hung run must fail")
	}
}

func TestAbort(t *testing.T) {
	res := run(t, 3, func(p *Proc) int {
		if p.Rank() == 2 {
			p.Abort(77)
		}
		p.Barrier(p.World())
		return 0
	})
	if res.Ranks[2].Status != StatusAborted {
		t.Fatalf("rank 2: %+v", res.Ranks[2])
	}
	if !res.Failed() {
		t.Fatal("abort must fail the run")
	}
}

func TestNonzeroExitFailsRun(t *testing.T) {
	res := run(t, 2, func(p *Proc) int {
		if p.Rank() == 0 {
			return 3
		}
		return 0
	})
	if !res.Failed() {
		t.Fatal("non-zero exit must fail the run")
	}
	fe, ok := res.FirstError()
	if !ok || fe.Exit != 3 {
		t.Fatalf("first error: %+v", fe)
	}
}

func TestSingleRankJob(t *testing.T) {
	res := run(t, 1, func(p *Proc) int {
		w := p.World()
		if p.Bcast(w, 0, []float64{5})[0] != 5 {
			return 1
		}
		if p.Allreduce(w, OpSum, []float64{2})[0] != 2 {
			return 2
		}
		p.Barrier(w)
		return 0
	})
	requireAllOK(t, res)
}

func TestReduceScatter(t *testing.T) {
	const n = 4
	res := run(t, n, func(p *Proc) int {
		w := p.World()
		// Rank r contributes vector [r, r, ..., r] of length n (chunk 1).
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(p.Rank())
		}
		got := p.ReduceScatter(w, OpSum, data, 1)
		// Sum over ranks of r = 0+1+2+3 = 6 in every chunk.
		if len(got) != 1 || got[0] != 6 {
			return 1
		}
		return 0
	})
	requireAllOK(t, res)
}

func TestScanInclusivePrefix(t *testing.T) {
	const n = 5
	res := run(t, n, func(p *Proc) int {
		w := p.World()
		got := p.Scan(w, OpSum, []float64{float64(p.Rank() + 1)})
		want := float64((p.Rank() + 1) * (p.Rank() + 2) / 2)
		if got[0] != want {
			return 1
		}
		return 0
	})
	requireAllOK(t, res)
}

func TestScanSingleRank(t *testing.T) {
	res := run(t, 1, func(p *Proc) int {
		if p.Scan(p.World(), OpMax, []float64{7})[0] != 7 {
			return 1
		}
		return 0
	})
	requireAllOK(t, res)
}

// Property: Allreduce(SUM) over random per-rank vectors equals the serial sum.
func TestAllreduceSumProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(8)
		vecs := make([][]float64, n)
		want := make([]float64, 4)
		for i := range vecs {
			vecs[i] = make([]float64, 4)
			for j := range vecs[i] {
				vecs[i][j] = float64(rng.Intn(100))
				want[j] += vecs[i][j]
			}
		}
		res := run(t, n, func(p *Proc) int {
			got := p.Allreduce(p.World(), OpSum, vecs[p.Rank()])
			if !reflect.DeepEqual(got, want) {
				return 1
			}
			return 0
		})
		requireAllOK(t, res)
	}
}

func TestLogsCollectedFromAllRanks(t *testing.T) {
	res := run(t, 4, func(p *Proc) int {
		x := p.In("x")
		p.If(conc.CondID(1), conc.LT(x, conc.K(1000)))
		p.Barrier(p.World())
		return 0
	})
	requireAllOK(t, res)
	for _, rr := range res.Ranks {
		if rr.Log == nil || rr.LogBytes == 0 {
			t.Fatalf("rank %d missing log", rr.Rank)
		}
		found := false
		for _, b := range rr.Log.Covered {
			if b.Site() == 1 {
				found = true
			}
		}
		if !found {
			t.Fatalf("rank %d missing branch coverage", rr.Rank)
		}
	}
	if res.Ranks[0].Log.Mode != conc.Heavy || res.Ranks[1].Log.Mode != conc.Light {
		t.Fatal("modes wrong in logs")
	}
	if res.Ranks[1].LogBytes >= res.Ranks[0].LogBytes {
		t.Fatalf("light log (%dB) should be smaller than heavy (%dB)",
			res.Ranks[1].LogBytes, res.Ranks[0].LogBytes)
	}
}

// TestMessageBuffersDisjoint: payloads and collective results are carved
// from per-launch slabs, each with cap == len, so a rank appending to or
// writing into one buffer never reaches another; and a launch needing more
// buffers, and more requests, than one slab holds gets fresh ones.
func TestMessageBuffersDisjoint(t *testing.T) {
	const msgs = 3 * requestSlab
	res := run(t, 2, func(p *Proc) int {
		w := p.World()
		if p.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				p.Isend(w, 1, i, []float64{float64(i), float64(i)})
			}
			big := make([]float64, 2*maxFloatSlab)
			big[len(big)-1] = 9
			p.Send(w, 1, msgs, big)
		} else {
			reqs := make([]*Request, msgs)
			for i := range reqs {
				reqs[i] = p.Irecv(w, 0, i)
			}
			p.Waitall(reqs)
			for _, r := range reqs {
				d := r.Data()
				if cap(d) != len(d) {
					return 1
				}
				_ = append(d, 77) // reallocates rather than spilling into the next payload
				d[1] = -1
			}
			for i, r := range reqs {
				if !reflect.DeepEqual(r.Data(), []float64{float64(i), -1}) {
					return 2
				}
			}
			if big, _ := p.Recv(w, 0, msgs); len(big) != 2*maxFloatSlab || big[len(big)-1] != 9 {
				return 3
			}
		}
		sum := p.Allreduce(w, OpSum, []float64{1, 2})
		scan := p.Scan(w, OpSum, []float64{1})
		if cap(sum) != len(sum) || !reflect.DeepEqual(sum, []float64{2, 4}) ||
			!reflect.DeepEqual(scan, []float64{float64(p.Rank() + 1)}) {
			return 4
		}
		return 0
	})
	requireAllOK(t, res)
}
