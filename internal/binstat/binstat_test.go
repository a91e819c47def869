package binstat

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBasicAccumulation(t *testing.T) {
	p := New()
	for i := 0; i < 10; i++ {
		sp := p.Time("solve")
		sp.End()
	}
	p.Observe("cache-hit", 0)
	p.Observe("execute", 3*time.Millisecond)

	r := p.Report()
	if len(r) != 3 {
		t.Fatalf("want 3 bins, got %d: %v", len(r), r)
	}
	solve, ok := r.Get("solve")
	if !ok || solve.Count != 10 {
		t.Fatalf("solve bin: %+v ok=%v", solve, ok)
	}
	if solve.Nanos < 0 {
		t.Fatalf("solve nanos negative: %d", solve.Nanos)
	}
	hit, _ := r.Get("cache-hit")
	if hit.Count != 1 || hit.Nanos != 0 {
		t.Fatalf("cache-hit bin: %+v", hit)
	}
	exe, _ := r.Get("execute")
	if exe.Count != 1 || exe.Total() != 3*time.Millisecond {
		t.Fatalf("execute bin: %+v", exe)
	}
	// Report is sorted by total time descending: execute's 3ms dominates.
	if r[0].Name != "execute" {
		t.Fatalf("report not sorted by total: %v", r)
	}
}

func TestNilProfilerIsDisabled(t *testing.T) {
	var p *Profiler
	// All of these must be safe no-ops.
	sp := p.Time("x")
	sp.End()
	p.Observe("z", time.Second)
	p.AddReport(Report{{Name: "q", Count: 1}})
	if r := p.Report(); r != nil {
		t.Fatalf("nil profiler produced a report: %v", r)
	}
}

// TestHitPathZeroAlloc pins the binstat efficiency contract: once a bin
// exists, Time/End allocate nothing.
func TestHitPathZeroAlloc(t *testing.T) {
	p := New()
	p.Time("phase").End() // create the bin
	allocs := testing.AllocsPerRun(1000, func() {
		sp := p.Time("phase")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("hit path allocates %.1f objects/op, want 0", allocs)
	}
	var nilP *Profiler
	allocs = testing.AllocsPerRun(1000, func() {
		sp := nilP.Time("phase")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f objects/op, want 0", allocs)
	}
}

// TestConcurrentHits exercises the RWMutex + atomics design under the race
// detector: many goroutines hitting overlapping bin names, with concurrent
// Report snapshots.
func TestConcurrentHits(t *testing.T) {
	p := New()
	const workers, perWorker = 8, 500
	names := []string{"a", "b", "c"}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := p.Time(names[(w+i)%len(names)])
				sp.End()
				if i%100 == 0 {
					p.Report()
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, st := range p.Report() {
		total += st.Count
	}
	if want := int64(workers * perWorker); total != want {
		t.Fatalf("lost hits under concurrency: total %d, want %d", total, want)
	}
}

func TestBuckets(t *testing.T) {
	if bucketOf(0) != 0 || bucketOf(-5) != 0 || bucketOf(1) != 0 {
		t.Fatal("small durations must land in bucket 0")
	}
	if bucketOf(1024) != 10 || bucketOf(2047) != 10 || bucketOf(2048) != 11 {
		t.Fatalf("1024→%d 2047→%d 2048→%d, want 10 10 11",
			bucketOf(1024), bucketOf(2047), bucketOf(2048))
	}
	if bucketOf(1<<62) != nBuckets-1 {
		t.Fatal("huge durations must clamp to the last bucket")
	}
	p := New()
	p.Observe("x", 1500) // nanoseconds: bucket 2^10
	st, _ := p.Report().Get("x")
	if st.Buckets["2^10"] != 1 {
		t.Fatalf("bucket histogram: %v", st.Buckets)
	}
	if !strings.Contains(st.modalBucket(), "=1") {
		t.Fatalf("modal bucket rendering: %q", st.modalBucket())
	}
}

func TestAddReportAndDelta(t *testing.T) {
	a := New()
	a.Observe("solve", 10*time.Microsecond)
	a.Observe("solve", 10*time.Microsecond)
	a.Observe("exec", time.Microsecond)

	b := New()
	b.AddReport(a.Report())
	b.Observe("solve", 5*time.Microsecond)
	st, _ := b.Report().Get("solve")
	if st.Count != 3 || st.Total() != 25*time.Microsecond {
		t.Fatalf("merged solve bin: %+v", st)
	}

	before := b.Report()
	b.Observe("solve", time.Microsecond)
	d := b.Report().Delta(before)
	st, ok := d.Get("solve")
	if !ok || st.Count != 1 || st.Total() != time.Microsecond {
		t.Fatalf("delta solve bin: %+v ok=%v", st, ok)
	}
	if _, ok := d.Get("exec"); ok {
		t.Fatal("unchanged bin must not appear in delta")
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	p := New()
	p.Observe("solve", 2*time.Millisecond)
	p.Observe("miss", 0)
	raw, err := json.Marshal(p.Report())
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	st, ok := back.Get("solve")
	if !ok || st.Total() != 2*time.Millisecond {
		t.Fatalf("round-tripped report: %+v", back)
	}
}

func TestRendering(t *testing.T) {
	p := New()
	p.Observe("big", time.Second)
	p.Observe("small", time.Microsecond)
	s := p.Report().String()
	if !strings.Contains(s, "big") || !strings.Contains(s, "small") {
		t.Fatalf("table rendering: %q", s)
	}
	line := p.Report().Line(1)
	if !strings.HasPrefix(line, "profile: big=1/") || strings.Contains(line, "small") {
		t.Fatalf("line rendering: %q", line)
	}
	if got := (Report{}).Line(3); got != "profile: (empty)" {
		t.Fatalf("empty line rendering: %q", got)
	}
}

// BenchmarkHit measures the enabled hit path (existing bin) and the disabled
// (nil profiler) path — the numbers the "cheap enough to leave on" claim
// rests on.
func BenchmarkHit(b *testing.B) {
	b.Run("enabled", func(b *testing.B) {
		p := New()
		p.Time("x").End()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sp := p.Time("x")
			sp.End()
		}
	})
	b.Run("disabled", func(b *testing.B) {
		var p *Profiler
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sp := p.Time("x")
			sp.End()
		}
	})
}
