package conc

import (
	"math/rand"
	"sync"
)

// Stream is the sequence of values rand.NewSource(seed) produces, generated
// once and replayed by any number of cursors. Seeding a source costs far
// more than drawing from it, and the ranks of one launch that read missing
// inputs all want the same values from the start. A Stream is safe for
// concurrent use; each cursor belongs to one goroutine.
//
// A Stream stores at most streamCap values. A cursor that reads past them
// continues on a private source advanced to that position, so a reader
// that draws without bound costs the stream nothing.
type Stream struct {
	seed int64

	mu   sync.Mutex
	src  rand.Source // nil until the first draw
	vals []int64     // what src has produced so far; never rewritten
}

// NewStream returns the stream of seed. Nothing is generated until a cursor
// draws.
func NewStream(seed int64) *Stream { return &Stream{seed: seed} }

// Seed returns the seed s replays.
func (s *Stream) Seed() int64 { return s.seed }

// cursor returns a reader positioned at the start of s.
func (s *Stream) cursor() cursor { return cursor{s: s} }

// Bounds of what a stream generates: at least minStreamChunk values at
// once, at most streamCap in all (32 KiB).
const (
	minStreamChunk = 16
	streamCap      = 4096
)

// extend makes s at least n <= streamCap values long and returns every
// value it holds. The returned slice is never written again: later values
// go past its length, so a cursor reads it without the lock.
func (s *Stream) extend(n int) []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.vals) < n {
		if s.src == nil {
			s.src = rand.NewSource(s.seed)
		}
		want := min(max(n, 2*len(s.vals), minStreamChunk), streamCap)
		for len(s.vals) < want {
			s.vals = append(s.vals, s.src.Int63())
		}
	}
	return s.vals
}

// cursor reads a Stream from its start. Two cursors of one stream read the
// same values, whatever their interleaving.
type cursor struct {
	s    *Stream
	vals []int64 // the stream's values as of this cursor's last refill
	i    int
	past rand.Source // past streamCap: a private source at the cursor's position
}

// next returns the stream's next value.
func (c *cursor) next() int64 {
	if c.i == len(c.vals) {
		if c.i == streamCap {
			return c.nextPast()
		}
		c.vals = c.s.extend(c.i + 1)
	}
	v := c.vals[c.i]
	c.i++
	return v
}

// nextPast returns the value after the stream's stored ones, from a source
// seeded like the stream's and advanced past what the stream stores.
func (c *cursor) nextPast() int64 {
	if c.past == nil {
		c.past = rand.NewSource(c.s.seed)
		for range streamCap {
			c.past.Int63()
		}
	}
	return c.past.Int63()
}

// Int63n returns a value in [0, n), drawing exactly what
// rand.New(rand.NewSource(seed)).Int63n draws at the same position. It
// panics if n <= 0.
func (c *cursor) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 { // a power of two: mask
		return c.next() & (n - 1)
	}
	limit := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := c.next()
	for v > limit {
		v = c.next()
	}
	return v % n
}
