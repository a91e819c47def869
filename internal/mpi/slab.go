package mpi

// Slab sizes, in elements. A launch's first float slab holds minFloatSlab
// values and each later one twice its predecessor, up to maxFloatSlab; a
// buffer larger than the current slab size gets an allocation of its own.
const (
	minFloatSlab = 64
	maxFloatSlab = 4096
	requestSlab  = 16
)

// buf returns a zeroed buffer of n values with cap n, carved from the
// launch's float slab. Every message payload and collective result comes
// from here, so a launch allocates a few slabs instead of one slice per
// message. The cap keeps an append by the caller from running into the next
// buffer.
func (rt *Runtime) buf(n int) []float64 {
	if n == 0 {
		return []float64{}
	}
	if n > len(rt.floats) {
		rt.floatSlab = min(max(2*rt.floatSlab, minFloatSlab), maxFloatSlab)
		if n > rt.floatSlab {
			return make([]float64, n)
		}
		rt.floats = make([]float64, rt.floatSlab)
	}
	b := rt.floats[:n:n]
	rt.floats = rt.floats[n:]
	return b
}

// newRequest returns a zero Request carved from the launch's request slab.
func (rt *Runtime) newRequest() *Request {
	if len(rt.requests) == 0 {
		rt.requests = make([]Request, requestSlab)
	}
	r := &rt.requests[0]
	rt.requests = rt.requests[1:]
	return r
}
