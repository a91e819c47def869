// Package binstat is a low-overhead wall-clock profiler that accumulates
// statistics in a small fixed set of named bins — the measurement layer for
// COMPI's iteration loop.
//
// Why not pprof? pprof samples CPU seconds; the engine's phases (execute,
// solve, snapshot) spend much of their time blocked on goroutine handoffs and
// watchdog waits, which sampling attributes to the scheduler, not the phase.
// binstat times wall-clock between two explicit points, cheap enough to leave
// on in production campaigns, and its output is a plain value that can be
// compared programmatically run-over-run — "is this bin worse than last PR?"
// is a subtraction, not a profile diff.
//
// The efficiency recipe (after flow-go's binstat):
//
//   - the number of bins is small and fixed regardless of call volume;
//   - timestamps come from runtime.nanotime (the monotonic half of time.Now,
//     about twice as fast);
//   - the bin map is guarded by an RWMutex: the usual case — the bin already
//     exists — takes only the read lock and updates the bin through atomics,
//     so concurrent hits on one bin never serialize; only the first hit of a
//     new bin takes the write lock;
//   - the hit path performs zero allocations once a bin exists;
//   - a nil *Profiler disables everything: Time/End degrade to a nil check
//     and return, a few nanoseconds, so instrumented code needs no build
//     tags or branches of its own.
//
// A Profiler is safe for concurrent use and may be shared across engines
// (the scheduler wires one per batch); the report then aggregates the whole
// batch. Measurement never feeds back into what it measures: profiled and
// unprofiled campaigns are pinned byte-identical by the core and proto
// determinism tests.
package binstat

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// nBuckets is the number of log2 duration buckets per bin: bucket i counts
// spans with 2^i ≤ nanos < 2^(i+1) (bucket 0 absorbs sub-nanosecond and
// non-positive readings). 2^40 ns ≈ 18 minutes, far beyond any phase.
const nBuckets = 40

// Bin is one named statistic: how many times the point was hit and the total
// wall-clock nanoseconds spent there, plus a log2 histogram of the span
// durations. All updates are atomic; bins are never removed.
type Bin struct {
	name    string
	count   atomic.Int64
	nanos   atomic.Int64
	buckets [nBuckets]atomic.Int64
}

func (b *Bin) hit(nanos int64) {
	b.count.Add(1)
	if nanos > 0 {
		b.nanos.Add(nanos)
	}
	b.buckets[bucketOf(nanos)].Add(1)
}

func bucketOf(nanos int64) int {
	if nanos <= 0 {
		return 0
	}
	i := bits.Len64(uint64(nanos)) - 1
	if i >= nBuckets {
		i = nBuckets - 1
	}
	return i
}

// Profiler collects bins. The zero value is NOT usable: construct with New.
// A nil *Profiler is the disabled profiler — every method is a nil-checked
// no-op — which is how profiling is compiled out of the hot path without
// branches at the call sites.
type Profiler struct {
	mu   sync.RWMutex
	bins map[string]*Bin
}

// New returns an empty, enabled profiler.
func New() *Profiler {
	return &Profiler{bins: map[string]*Bin{}}
}

// bin returns the named bin, creating it on first use. The fast path is a
// read-locked map lookup with no allocation; only a genuinely new name takes
// the write lock.
func (p *Profiler) bin(what string) *Bin {
	p.mu.RLock()
	b := p.bins[what]
	p.mu.RUnlock()
	if b != nil {
		return b
	}
	p.mu.Lock()
	b = p.bins[what]
	if b == nil {
		b = &Bin{name: what}
		p.bins[what] = b
	}
	p.mu.Unlock()
	return b
}

// Span is an open timing started by Time. It is a plain value (no
// allocation); the zero Span is the disabled span and End on it is a no-op.
type Span struct {
	bin   *Bin
	start int64
}

// Time opens a span against the named bin. Close it with End. On a nil
// profiler it returns the zero Span and costs a nil check.
func (p *Profiler) Time(what string) Span {
	if p == nil {
		return Span{}
	}
	return Span{bin: p.bin(what), start: nanotime()}
}

// End closes the span, accumulating its wall-clock duration into the bin.
func (s Span) End() {
	if s.bin == nil {
		return
	}
	s.bin.hit(nanotime() - s.start)
}

// Observe folds an externally measured duration into the named bin (for
// durations obtained outside a Time/End pair, e.g. carried in a result).
func (p *Profiler) Observe(what string, d time.Duration) {
	if p == nil {
		return
	}
	p.bin(what).hit(int64(d))
}

// BinStat is one bin's snapshot in a Report. Buckets holds the non-empty
// log2-nanosecond histogram entries, sparsely.
type BinStat struct {
	Name    string           `json:"name"`
	Count   int64            `json:"count"`
	Nanos   int64            `json:"nanos"`
	Buckets map[string]int64 `json:"buckets,omitempty"` // "2^i" → count
}

// Total returns the bin's accumulated time as a Duration.
func (s BinStat) Total() time.Duration { return time.Duration(s.Nanos) }

// Mean returns the average span duration.
func (s BinStat) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Nanos / s.Count)
}

// Report is a profiler snapshot: one BinStat per bin, sorted by total time
// descending (ties by name). Reports are plain values — JSON-serializable
// and comparable across runs, which is the binstat goal: "is this worse than
// last run?" is answered by subtracting two reports.
type Report []BinStat

// Report snapshots every bin. The profiler keeps accumulating; a Report is a
// point-in-time copy. A nil profiler reports nil.
func (p *Profiler) Report() Report {
	if p == nil {
		return nil
	}
	p.mu.RLock()
	out := make(Report, 0, len(p.bins))
	for _, b := range p.bins {
		st := BinStat{Name: b.name, Count: b.count.Load(), Nanos: b.nanos.Load()}
		for i := range b.buckets {
			if n := b.buckets[i].Load(); n > 0 {
				if st.Buckets == nil {
					st.Buckets = map[string]int64{}
				}
				st.Buckets[fmt.Sprintf("2^%d", i)] = n
			}
		}
		out = append(out, st)
	}
	p.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Nanos != out[j].Nanos {
			return out[i].Nanos > out[j].Nanos
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// AddReport folds a previously taken report into p (fleet and scheduler
// rollups: merge worker- or campaign-level reports into one).
func (p *Profiler) AddReport(r Report) {
	if p == nil {
		return
	}
	for _, st := range r {
		b := p.bin(st.Name)
		b.count.Add(st.Count)
		b.nanos.Add(st.Nanos)
		for key, n := range st.Buckets {
			var i int
			if _, err := fmt.Sscanf(key, "2^%d", &i); err == nil && i >= 0 && i < nBuckets {
				b.buckets[i].Add(n)
			}
		}
	}
}

// Get returns the stat for one bin name, if present.
func (r Report) Get(name string) (BinStat, bool) {
	for _, st := range r {
		if st.Name == name {
			return st, true
		}
	}
	return BinStat{}, false
}

// Delta returns r minus an earlier report bin-by-bin (bins absent earlier
// pass through whole; buckets are not differenced). Use it to window a
// shared profiler around one campaign.
func (r Report) Delta(since Report) Report {
	out := make(Report, 0, len(r))
	for _, st := range r {
		if prev, ok := since.Get(st.Name); ok {
			st.Count -= prev.Count
			st.Nanos -= prev.Nanos
			st.Buckets = nil
		}
		if st.Count != 0 || st.Nanos != 0 {
			out = append(out, st)
		}
	}
	return out
}

// String renders the report as an aligned table, biggest bin first.
func (r Report) String() string {
	if len(r) == 0 {
		return "profile: no bins\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %10s %12s %10s %s\n", "bin", "count", "total", "mean", "mode")
	for _, st := range r {
		fmt.Fprintf(&b, "%-28s %10d %12s %10s %s\n",
			st.Name, st.Count,
			st.Total().Round(time.Microsecond),
			st.Mean().Round(time.Nanosecond),
			st.modalBucket())
	}
	return b.String()
}

// Line renders the report as one compact line, top bins first — the form the
// fleet status endpoint emits.
func (r Report) Line(topN int) string {
	if len(r) == 0 {
		return "profile: (empty)"
	}
	if topN <= 0 || topN > len(r) {
		topN = len(r)
	}
	parts := make([]string, 0, topN)
	for _, st := range r[:topN] {
		parts = append(parts, fmt.Sprintf("%s=%d/%s", st.Name, st.Count,
			st.Total().Round(time.Microsecond)))
	}
	return "profile: " + strings.Join(parts, " ")
}

// modalBucket renders the most-populated duration bucket as a human range,
// binstat-style ("time[1.024µs-2.047µs]=813").
func (s BinStat) modalBucket() string {
	var best string
	var bestN int64
	for key, n := range s.Buckets {
		if n > bestN || (n == bestN && key < best) {
			best, bestN = key, n
		}
	}
	if best == "" {
		return ""
	}
	var i int
	fmt.Sscanf(best, "2^%d", &i)
	lo := time.Duration(int64(1) << uint(i))
	hi := time.Duration(int64(1)<<uint(i+1) - 1)
	if i == 0 {
		lo = 0
	}
	return fmt.Sprintf("time[%s-%s]=%d", lo, hi, bestN)
}
