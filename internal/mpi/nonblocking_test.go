package mpi

import (
	"reflect"
	"testing"
)

func TestIsendIrecvWait(t *testing.T) {
	res := run(t, 2, func(p *Proc) int {
		w := p.World()
		if p.Rank() == 0 {
			r := p.Isend(w, 1, 5, []float64{1, 2})
			if !r.Done() {
				return 1 // buffered sends complete immediately
			}
		} else {
			r := p.Irecv(w, 0, 5)
			if r.Done() {
				return 2 // not yet waited
			}
			data, st := p.Wait(r)
			if st.Source != 0 || st.Tag != 5 {
				return 3
			}
			if !reflect.DeepEqual(data, []float64{1, 2}) {
				return 4
			}
			if !reflect.DeepEqual(r.Data(), data) || r.Status() != st {
				return 5
			}
		}
		return 0
	})
	requireAllOK(t, res)
}

func TestWaitallOutOfOrder(t *testing.T) {
	res := run(t, 3, func(p *Proc) int {
		w := p.World()
		if p.Rank() == 0 {
			r1 := p.Irecv(w, 1, 9)
			r2 := p.Irecv(w, 2, 9)
			p.Waitall([]*Request{r2, r1})
			if r1.Data()[0] != 1 || r2.Data()[0] != 2 {
				return 1
			}
		} else {
			p.Send(w, 0, 9, []float64{float64(p.Rank())})
		}
		return 0
	})
	requireAllOK(t, res)
}

func TestTestProbe(t *testing.T) {
	res := run(t, 2, func(p *Proc) int {
		w := p.World()
		if p.Rank() == 0 {
			r := p.Irecv(w, 1, 3)
			if p.Test(r) {
				return 1 // rank 1 sends only after the message below
			}
			p.Send(w, 1, 4, []float64{0}) // let rank 1 proceed
			for !p.Test(r) {
			}
			if r.Data()[0] != 7 {
				return 2
			}
		} else {
			p.Recv(w, 0, 4)
			p.Send(w, 0, 3, []float64{7})
		}
		return 0
	})
	requireAllOK(t, res)
}

func TestDoubleWaitIdempotent(t *testing.T) {
	res := run(t, 2, func(p *Proc) int {
		w := p.World()
		if p.Rank() == 0 {
			p.Send(w, 1, 1, []float64{42})
		} else {
			r := p.Irecv(w, 0, 1)
			d1, _ := p.Wait(r)
			d2, _ := p.Wait(r)
			if d1[0] != 42 || d2[0] != 42 {
				return 1
			}
		}
		return 0
	})
	requireAllOK(t, res)
}

func TestTestAfterStopAborts(t *testing.T) {
	// Rank 0 polls for a message rank 1 never sends, and rank 1 crashes. A
	// probe that finds nothing in the stopped job fails like a receive
	// would, so the poller reports aborted instead of spinning into its tick
	// budget and reporting a hang ahead of the crash.
	res := run(t, 2, func(p *Proc) int {
		w := p.World()
		if p.Rank() == 1 {
			var s []float64
			_ = s[1]
		}
		r := p.Irecv(w, 1, 3)
		for !p.Test(r) {
		}
		return 0
	})
	if res.Ranks[0].Status != StatusAborted {
		t.Fatalf("rank 0: %v (want aborted)", res.Ranks[0].Status)
	}
	if fe, ok := res.FirstError(); !ok || fe.Rank != 1 || fe.Status != StatusCrash {
		t.Fatalf("first error: %+v, %v (want rank 1 crash)", fe, ok)
	}
}
