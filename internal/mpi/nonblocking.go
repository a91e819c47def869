package mpi

// Request is a pending nonblocking operation, like MPI_Request. Send
// requests complete immediately (sends are buffered); receive requests are
// matched when waited on.
type Request struct {
	proc *Proc
	comm *Comm
	// receive matching
	src, tag int
	recv     bool
	// completed state
	done   bool
	data   []float64
	status Status
}

// Isend starts a nonblocking send. Like this runtime's Send, the message is
// buffered, so the request is already complete; Wait only retrieves status.
func (p *Proc) Isend(c *Comm, dest, tag int, data []float64) *Request {
	p.Send(c, dest, tag, data)
	r := p.rt.newRequest()
	*r = Request{proc: p, comm: c, done: true, status: Status{Source: c.local, Tag: tag}}
	return r
}

// Irecv posts a nonblocking receive for a message with the given tag from
// local rank src (or AnySource) on c. The message is matched at Wait time.
func (p *Proc) Irecv(c *Comm, src, tag int) *Request {
	p.CC.Tick()
	r := p.rt.newRequest()
	*r = Request{proc: p, comm: c, src: src, tag: tag, recv: true}
	return r
}

// Wait blocks until r completes and returns the received data (nil for send
// requests) and the envelope.
func (p *Proc) Wait(r *Request) ([]float64, Status) {
	if r.done {
		return r.data, r.status
	}
	if r.recv {
		r.data, r.status = p.Recv(r.comm, r.src, r.tag)
	}
	r.done = true
	return r.data, r.status
}

// Waitall completes every request, like MPI_Waitall. Results are retrieved
// per request with Data afterwards.
func (p *Proc) Waitall(rs []*Request) {
	for _, r := range rs {
		p.Wait(r)
	}
}

// Data returns the payload of a completed receive request (nil before Wait
// or for send requests).
func (r *Request) Data() []float64 { return r.data }

// Status returns the envelope of a completed request.
func (r *Request) Status() Status { return r.status }

// Done reports whether the request has completed.
func (r *Request) Done() bool { return r.done }

// Test is the nonblocking completion probe, like MPI_Test: it completes a
// receive if a matching message is already queued. If none is, it yields so
// the other runnable ranks progress before the caller probes again; in a
// stopped job, where a receive would fail, it fails the same way.
func (p *Proc) Test(r *Request) bool {
	if r.done {
		return true
	}
	p.CC.Tick()
	msg, ok := p.rt.mbox[p.rank].take(r.src, r.tag, r.comm.id)
	if !ok {
		if p.rt.stopped {
			panic(p.rt.stopErr(p.rank))
		}
		p.yield()
		return false
	}
	r.data = msg.data
	r.status = Status{Source: msg.src, Tag: msg.tag}
	r.done = true
	return true
}
