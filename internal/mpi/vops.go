package mpi

// Varying-count collectives (the MPI-1 "v" variants). counts gives the
// per-local-rank element counts; displacements are implicit (packed in rank
// order), which is how the target applications use them.

// sumCounts validates and totals a counts vector for communicator c.
func sumCounts(c *Comm, counts []int) int {
	if len(counts) != c.Size() {
		panic("mpi: counts length does not match communicator size")
	}
	total := 0
	for _, n := range counts {
		if n < 0 {
			panic("mpi: negative count")
		}
		total += n
	}
	return total
}

// offsetOf returns the packed offset of local rank l.
func offsetOf(counts []int, l int) int {
	off := 0
	for i := 0; i < l; i++ {
		off += counts[i]
	}
	return off
}

// Gatherv collects counts[l] elements from each local rank l at root,
// packed in rank order; non-roots return nil.
func (p *Proc) Gatherv(c *Comm, root int, data []float64, counts []int) []float64 {
	p.CC.Tick()
	total := sumCounts(c, counts)
	if c.local != root {
		p.Send(c, root, internalTag, data)
		return nil
	}
	out := p.rt.buf(total)
	copy(out[offsetOf(counts, root):], data)
	for l := 0; l < c.Size(); l++ {
		if l == root {
			continue
		}
		buf, _ := p.Recv(c, l, internalTag)
		copy(out[offsetOf(counts, l):offsetOf(counts, l)+counts[l]], buf)
	}
	return out
}

// Allgatherv is Gatherv at local rank 0 followed by a broadcast.
func (p *Proc) Allgatherv(c *Comm, data []float64, counts []int) []float64 {
	out := p.Gatherv(c, 0, data, counts)
	if c.local != 0 {
		out = nil
	}
	return p.Bcast(c, 0, out)
}

// Scatterv distributes counts[l] elements of the root's packed buffer to
// each local rank l; every rank returns its chunk.
func (p *Proc) Scatterv(c *Comm, root int, data []float64, counts []int) []float64 {
	p.CC.Tick()
	sumCounts(c, counts)
	if c.local == root {
		for l := 0; l < c.Size(); l++ {
			if l == root {
				continue
			}
			off := offsetOf(counts, l)
			p.Send(c, l, internalTag, data[off:off+counts[l]])
		}
		off := offsetOf(counts, root)
		out := p.rt.buf(counts[root])
		copy(out, data[off:off+counts[root]])
		return out
	}
	buf, _ := p.Recv(c, root, internalTag)
	return buf
}

// Alltoallv exchanges sendCounts[l] elements with every local rank l: the
// send buffer is packed by destination, the result is packed by source with
// recvCounts[l] elements from rank l. recvCounts[l] must equal rank l's
// sendCounts for this rank.
func (p *Proc) Alltoallv(c *Comm, data []float64, sendCounts, recvCounts []int) []float64 {
	p.CC.Tick()
	sumCounts(c, sendCounts)
	total := sumCounts(c, recvCounts)
	for l := 0; l < c.Size(); l++ {
		if l == c.local {
			continue
		}
		off := offsetOf(sendCounts, l)
		p.Send(c, l, internalTag, data[off:off+sendCounts[l]])
	}
	out := p.rt.buf(total)
	selfOff := offsetOf(sendCounts, c.local)
	copy(out[offsetOf(recvCounts, c.local):], data[selfOff:selfOff+sendCounts[c.local]])
	for l := 0; l < c.Size(); l++ {
		if l == c.local {
			continue
		}
		buf, _ := p.Recv(c, l, internalTag)
		copy(out[offsetOf(recvCounts, l):offsetOf(recvCounts, l)+recvCounts[l]], buf)
	}
	return out
}
