package mpi

import (
	"sort"

	"repro/internal/conc"
)

// Status reports the envelope of a received message, like MPI_Status.
type Status struct {
	Source int // local rank of the sender within the communicator
	Tag    int
}

// Send posts data to the process with local rank dest in c. Sends are
// buffered and complete immediately: the data is copied, and a receiver
// blocked on a matching receive becomes runnable while the sender keeps
// running.
func (p *Proc) Send(c *Comm, dest, tag int, data []float64) {
	p.CC.Tick()
	buf := p.rt.buf(len(data))
	copy(buf, data)
	g := c.GlobalOf(dest)
	msg := message{src: c.local, tag: tag, comm: c.id, data: buf}
	p.rt.mbox[g].put(msg)
	if w := &p.rt.waits[g]; w.wakes(msg, p.rt.sched) {
		w.state = waitRunnable
	}
}

// Recv blocks until a message with the given tag from local rank src
// (or AnySource) arrives on c. A job whose every live rank is blocked with
// no match surfaces as a deadlock at once. Under Spec.Schedules, a wildcard
// receive only matches at quiescence and becomes a recorded choice point.
func (p *Proc) Recv(c *Comm, src, tag int) ([]float64, Status) {
	p.CC.Tick()
	if src == AnySource && p.rt.sched {
		return p.recvQuiescent(c, tag)
	}
	mb := &p.rt.mbox[p.rank]
	for {
		if msg, ok := mb.take(src, tag, c.id); ok {
			return msg.data, Status{Source: msg.src, Tag: msg.tag}
		}
		p.block(c, src, tag)
	}
}

// block parks the rank in a receive and yields until a matching send, a
// quiescent grant or the job's stop makes it runnable again. Nothing resumes
// a rank that blocks in a stopped job, so there the receive panics instead.
func (p *Proc) block(c *Comm, src, tag int) {
	if p.rt.stopped {
		panic(p.rt.stopErr(p.rank))
	}
	p.rt.waits[p.rank] = rankWait{state: waitBlocked, comm: c, src: src, tag: tag}
	p.yield()
}

// recvQuiescent is the schedule-mode wildcard receive: it waits for the
// scheduler's match grant (issued only when every other live rank is blocked
// or finished, so the eligible set is complete and deterministic), consults
// the MatchOrder directive for this rank's next choice point, and records
// the choice plus the eligible-set fingerprint in the rank's log.
func (p *Proc) recvQuiescent(c *Comm, tag int) ([]float64, Status) {
	for !p.rt.waits[p.rank].granted {
		p.block(c, AnySource, tag)
	}
	wm := p.rt.takeGranted(p.rank, tag, c.id)
	if len(wm.srcs) > 1 {
		srcs := make([]int32, len(wm.srcs))
		for i, s := range wm.srcs {
			srcs[i] = int32(s)
		}
		p.CC.RecordMatch(conc.MatchRec{
			Seq:    int32(wm.seq),
			Comm:   int32(c.id),
			Tag:    int32(tag),
			Srcs:   srcs,
			Choice: int32(wm.choice),
		})
	}
	return wm.msg.data, Status{Source: wm.msg.src, Tag: wm.msg.tag}
}

// Sendrecv sends to dest and receives from src in one call.
func (p *Proc) Sendrecv(c *Comm, dest, sendTag int, data []float64, src, recvTag int) ([]float64, Status) {
	p.Send(c, dest, sendTag, data)
	return p.Recv(c, src, recvTag)
}

// ReduceOp is a reduction operator for Reduce/Allreduce.
type ReduceOp uint8

// Reduction operators.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
	OpProd
)

func (op ReduceOp) apply(acc, x []float64) {
	for i := range acc {
		switch op {
		case OpSum:
			acc[i] += x[i]
		case OpMax:
			if x[i] > acc[i] {
				acc[i] = x[i]
			}
		case OpMin:
			if x[i] < acc[i] {
				acc[i] = x[i]
			}
		case OpProd:
			acc[i] *= x[i]
		}
	}
}

// Bcast broadcasts data from local rank root; every caller returns the
// root's buffer.
func (p *Proc) Bcast(c *Comm, root int, data []float64) []float64 {
	p.CC.Tick()
	if c.local == root {
		for l := 0; l < c.Size(); l++ {
			if l != root {
				p.Send(c, l, internalTag, data)
			}
		}
		out := p.rt.buf(len(data))
		copy(out, data)
		return out
	}
	buf, _ := p.Recv(c, root, internalTag)
	return buf
}

// Reduce combines contributions at the root with op; non-roots return nil.
func (p *Proc) Reduce(c *Comm, root int, op ReduceOp, data []float64) []float64 {
	p.CC.Tick()
	if c.local != root {
		p.Send(c, root, internalTag, data)
		return nil
	}
	acc := p.rt.buf(len(data))
	copy(acc, data)
	for l := 0; l < c.Size(); l++ {
		if l == root {
			continue
		}
		buf, _ := p.Recv(c, l, internalTag)
		op.apply(acc, buf)
	}
	return acc
}

// Allreduce is Reduce to rank 0 followed by Bcast. Only rank 0 holds a
// reduction to broadcast; the others pass Bcast nil, which a non-root
// ignores.
func (p *Proc) Allreduce(c *Comm, op ReduceOp, data []float64) []float64 {
	return p.Bcast(c, 0, p.Reduce(c, 0, op, data))
}

// Barrier blocks until every rank in c has entered it.
func (p *Proc) Barrier(c *Comm) {
	p.Allreduce(c, OpSum, []float64{1})
}

// Gather collects each rank's equally sized contribution at root, ordered by
// local rank; non-roots return nil.
func (p *Proc) Gather(c *Comm, root int, data []float64) []float64 {
	p.CC.Tick()
	if c.local != root {
		p.Send(c, root, internalTag, data)
		return nil
	}
	out := p.rt.buf(len(data) * c.Size())
	copy(out[root*len(data):], data)
	for l := 0; l < c.Size(); l++ {
		if l == root {
			continue
		}
		buf, _ := p.Recv(c, l, internalTag)
		copy(out[l*len(data):], buf)
	}
	return out
}

// Allgather is Gather at rank 0 followed by Bcast (non-roots pass nil, as
// in Allreduce).
func (p *Proc) Allgather(c *Comm, data []float64) []float64 {
	return p.Bcast(c, 0, p.Gather(c, 0, data))
}

// Scatter distributes equal chunks of the root's buffer; every rank returns
// its chunk. chunk is the per-rank element count.
func (p *Proc) Scatter(c *Comm, root int, data []float64, chunk int) []float64 {
	p.CC.Tick()
	if c.local == root {
		for l := 0; l < c.Size(); l++ {
			if l == root {
				continue
			}
			p.Send(c, l, internalTag, data[l*chunk:(l+1)*chunk])
		}
		out := p.rt.buf(chunk)
		copy(out, data[root*chunk:(root+1)*chunk])
		return out
	}
	buf, _ := p.Recv(c, root, internalTag)
	return buf
}

// Alltoall exchanges chunk elements between every pair of ranks: the result's
// l-th chunk is rank l's chunk addressed to this rank.
func (p *Proc) Alltoall(c *Comm, data []float64, chunk int) []float64 {
	p.CC.Tick()
	for l := 0; l < c.Size(); l++ {
		if l != c.local {
			p.Send(c, l, internalTag, data[l*chunk:(l+1)*chunk])
		}
	}
	out := p.rt.buf(chunk * c.Size())
	copy(out[c.local*chunk:], data[c.local*chunk:(c.local+1)*chunk])
	for l := 0; l < c.Size(); l++ {
		if l == c.local {
			continue
		}
		buf, _ := p.Recv(c, l, internalTag)
		copy(out[l*chunk:], buf)
	}
	return out
}

// ReduceScatter combines contributions with op and scatters the result:
// each rank receives the chunk of the element-wise reduction addressed to it
// (MPI_Reduce_scatter with equal block sizes). chunk is the per-rank element
// count; data must hold chunk·Size() elements.
func (p *Proc) ReduceScatter(c *Comm, op ReduceOp, data []float64, chunk int) []float64 {
	acc := p.Reduce(c, 0, op, data)
	if c.local != 0 {
		acc = nil
	}
	return p.Scatter(c, 0, acc, chunk)
}

// Scan is MPI_Scan: an inclusive prefix reduction by local rank — rank i
// receives op(data_0, ..., data_i).
func (p *Proc) Scan(c *Comm, op ReduceOp, data []float64) []float64 {
	p.CC.Tick()
	acc := p.rt.buf(len(data))
	copy(acc, data)
	if c.local > 0 {
		prev, _ := p.Recv(c, c.local-1, internalTag)
		op.apply(acc, prev)
	}
	if c.local < c.Size()-1 {
		p.Send(c, c.local+1, internalTag, acc)
	}
	return acc
}

// Split is MPI_Comm_split: ranks with equal color form a new communicator,
// ordered by (key, parent local rank). On the focus process the new
// communicator's local→global rank row is registered with the concolic
// runtime for conflict resolution (§III-D).
func (p *Proc) Split(c *Comm, color, key int) *Comm {
	p.CC.Tick()
	// Exchange (color, key) among all members of c.
	pairs := p.Allgather(c, []float64{float64(color), float64(key)})
	type member struct{ local, color, key int }
	var group []member
	for l := 0; l < c.Size(); l++ {
		mc, mk := int(pairs[2*l]), int(pairs[2*l+1])
		if mc == color {
			group = append(group, member{local: l, color: mc, key: mk})
		}
	}
	sort.Slice(group, func(i, j int) bool {
		if group[i].key != group[j].key {
			return group[i].key < group[j].key
		}
		return group[i].local < group[j].local
	})
	ranks := make([]int, len(group))
	myLocal := -1
	for i, m := range group {
		ranks[i] = c.GlobalOf(m.local)
		if m.local == c.local {
			myLocal = i
		}
	}
	seq := c.splitSeq
	c.splitSeq++
	nc := &Comm{
		id:      p.rt.commIDFor(c.id, seq, color),
		ranks:   ranks,
		local:   myLocal,
		concIdx: -1,
	}
	// Register the mapping row on the focus only: it is Heavy-only
	// information used for conflict resolution.
	if p.CC.Mode() == conc.Heavy {
		row := make([]int32, len(ranks))
		for i, g := range ranks {
			row[i] = int32(g)
		}
		nc.concIdx = p.CC.AddCommRow(row)
	}
	return nc
}
