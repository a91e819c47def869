package conc

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// streamBounds covers Int63n's three paths: small bounds, powers of two
// (the mask) and 2^62+1, where the rejection loop redraws about half the
// time.
var streamBounds = []int64{1, 2, 3, 7, 10, 111, 1 << 10, 1 << 40, 1 << 62, 1<<62 + 1, math.MaxInt64}

// TestCursorMatchesFreshSource: a cursor's Int63n draws exactly what a
// freshly seeded rand.Rand draws, for every bound and with two cursors of
// one stream interleaved unevenly.
func TestCursorMatchesFreshSource(t *testing.T) {
	for _, seed := range []int64{0, 1, 11, -5} {
		s := NewStream(seed)
		a, b := s.cursor(), s.cursor()
		freshA, freshB := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for round := 0; round < 40; round++ {
			for _, n := range streamBounds {
				if got, want := a.Int63n(n), freshA.Int63n(n); got != want {
					t.Fatalf("seed %d round %d: cursor a Int63n(%d) = %d, fresh source %d", seed, round, n, got, want)
				}
				if round%3 != 0 {
					continue // b falls behind a, then reads what a already drew
				}
				if got, want := b.Int63n(n), freshB.Int63n(n); got != want {
					t.Fatalf("seed %d round %d: cursor b Int63n(%d) = %d, fresh source %d", seed, round, n, got, want)
				}
			}
		}
	}
}

// TestCursorPastCap: cursors that read past what a stream stores continue
// with the fresh source's values, each on its own, and the stream stores
// streamCap values however far they read: a rank reading inputs without
// bound grows it no further.
func TestCursorPastCap(t *testing.T) {
	const seed, draws = 8, 3 * streamCap
	s := NewStream(seed)
	fresh := rand.New(rand.NewSource(seed))
	want := make([]int64, draws)
	for i := range want {
		want[i] = fresh.Int63()
	}
	a, b := s.cursor(), s.cursor()
	for i := 0; i < draws; i++ {
		if got := a.next(); got != want[i] {
			t.Fatalf("cursor a value %d = %d, fresh source %d", i, got, want[i])
		}
		if i%2 == 0 { // b falls behind a, then passes the cap after it
			continue
		}
		if got := b.next(); got != want[i/2] {
			t.Fatalf("cursor b value %d = %d, fresh source %d", i/2, got, want[i/2])
		}
	}
	if n := len(s.vals); n != streamCap {
		t.Fatalf("the stream stores %d values, want %d", n, streamCap)
	}
}

// TestStreamConcurrentCursors: cursors on several goroutines share one
// stream, each reading the values a fresh source gives. Run with -race.
func TestStreamConcurrentCursors(t *testing.T) {
	const seed, draws = 42, 3000
	fresh := rand.New(rand.NewSource(seed))
	want := make([]int64, draws)
	for i := range want {
		want[i] = fresh.Int63n(1<<62 + 1)
	}
	s := NewStream(seed)
	var wg sync.WaitGroup
	got := make([][]int64, 4)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := s.cursor()
			for i := 0; i < draws; i++ {
				got[g] = append(got[g], c.Int63n(1<<62+1))
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		if !reflect.DeepEqual(got[g], want) {
			t.Fatalf("goroutine %d drew a different sequence from the fresh source", g)
		}
	}
}

// TestBranchSeenSiteAllocs pins the branch path on a site already seen: it
// allocates nothing in Light mode, nor in Heavy mode when reduction drops
// the predicate (same outcome as the site's last visit).
func TestBranchSeenSiteAllocs(t *testing.T) {
	for _, mode := range []Mode{Light, Heavy} {
		p := NewProc(0, NewVarSpace(), map[string]int64{"x": 7}, Config{Mode: mode, Reduction: true, TraceHint: 1024})
		x := p.InputInt("x")
		p.Branch(3, LT(x, K(10)))
		allocs := testing.AllocsPerRun(200, func() { p.Branch(3, LT(x, K(10))) })
		if allocs != 0 {
			t.Errorf("%v: Branch on a seen site made %v allocations per call, want 0", mode, allocs)
		}
		if mode == Heavy && len(p.Log().Path) != 1 {
			t.Errorf("heavy: reduction kept %d predicates, want the first only", len(p.Log().Path))
		}
	}
}

// TestLogCoveredAscending: Log lists covered branches in ascending bit
// order whatever order the sites were hit in.
func TestLogCoveredAscending(t *testing.T) {
	p := NewProc(0, nil, nil, Config{Mode: Light})
	for _, ev := range []struct {
		site CondID
		b    bool
	}{{200, false}, {9, true}, {2, false}, {9, false}, {2, false}, {0, true}} {
		p.Branch(ev.site, True(ev.b))
	}
	want := []BranchBit{Bit(0, true), Bit(2, false), Bit(9, true), Bit(9, false), Bit(200, false)}
	if got := p.Log().Covered; !reflect.DeepEqual(got, want) {
		t.Fatalf("covered = %v, want %v", got, want)
	}
}
