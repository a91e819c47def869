package solver

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/expr"
)

// cmp builds the predicate "l rel r" the way the runtime does; the v and k
// expression helpers live in solver_test.go.
func cmp(l, r *expr.Expr, rel expr.Rel) expr.Pred { return expr.Compare(l, r, rel) }

// TestServiceMatchesFreeFunctions: hit or miss, the service must return
// exactly what the package-level functions return — this is the contract
// that makes cache sharing invisible to engine trajectories.
// answer strips a service Result's provenance (Cached), leaving what a live
// solve returns.
func answer(r Result) Result {
	r.Cached = false
	return r
}

func TestServiceMatchesFreeFunctions(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	svc := NewService(ServiceConfig{})
	for trial := 0; trial < 300; trial++ {
		nvars := 1 + r.Intn(4)
		var preds []expr.Pred
		for i := 0; i < 1+r.Intn(5); i++ {
			a := v(expr.Var(r.Intn(nvars)))
			b := k(int64(r.Intn(21) - 10))
			rel := expr.Rel(r.Intn(6))
			if r.Intn(4) == 0 {
				a = expr.Add(a, expr.Mul(k(int64(r.Intn(5)-2)), v(expr.Var(r.Intn(nvars)))))
			}
			preds = append(preds, cmp(a, b, rel))
		}
		prev := map[expr.Var]int64{}
		for i := 0; i < nvars; i++ {
			if r.Intn(2) == 0 {
				prev[expr.Var(i)] = int64(r.Intn(11) - 5)
			}
		}
		opt := Options{Seed: int64(trial), MaxNodes: 2000}

		wantRes, wantOK := SolveIncremental(preds, prev, opt)
		gotRes, gotOK := svc.SolveIncremental(preds, prev, opt)
		if wantOK != gotOK || !reflect.DeepEqual(wantRes, answer(gotRes)) {
			t.Fatalf("trial %d: service diverged from free function\nfree: %v %v\nsvc:  %v %v",
				trial, wantRes, wantOK, gotRes, gotOK)
		}
		// Second call exercises the cache path; must still be identical,
		// apart from the provenance flag: a proven refutation now comes from
		// the UNSAT cache.
		gotRes2, gotOK2 := svc.SolveIncremental(preds, prev, opt)
		if wantOK != gotOK2 || !reflect.DeepEqual(wantRes, answer(gotRes2)) {
			t.Fatalf("trial %d: cached result diverged\nfree: %v %v\nsvc:  %v %v",
				trial, wantRes, wantOK, gotRes2, gotOK2)
		}
		if gotRes2.Cached != (!gotOK2 && gotRes2.Proven) {
			t.Fatalf("trial %d: repeated call Cached=%v for ok=%v proven=%v",
				trial, gotRes2.Cached, gotOK2, gotRes2.Proven)
		}
	}
	st := svc.Stats()
	if st.SATHits+st.UnsatHits == 0 {
		t.Fatalf("repeat calls never hit the cache: %+v", st)
	}
}

// TestServiceSATMemo: an identical repeat call is served from the SAT memo
// and the returned map is a private copy.
func TestServiceSATMemo(t *testing.T) {
	svc := NewService(ServiceConfig{})
	preds := []expr.Pred{cmp(v(0), k(5), expr.GT), cmp(v(0), k(100), expr.LT)}
	opt := Options{Seed: 1}

	r1, ok := svc.SolveIncremental(preds, nil, opt)
	if !ok {
		t.Fatal("expected SAT")
	}
	r2, ok := svc.SolveIncremental(preds, nil, opt)
	if !ok || !reflect.DeepEqual(r1, r2) {
		t.Fatalf("memo hit differs: %v vs %v", r1, r2)
	}
	st := svc.Stats()
	if st.Calls != 2 || st.SATHits != 1 || st.Misses != 1 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	// Mutating the returned map must not poison the cache.
	r2.Values[0] = -999
	r3, ok := svc.SolveIncremental(preds, nil, opt)
	if !ok || !reflect.DeepEqual(r1, r3) {
		t.Fatalf("cache poisoned by caller mutation: %v vs %v", r1, r3)
	}
}

// TestServiceUnsatCanonicalHit: a proven-UNSAT set hits the cache again even
// after variable renaming and predicate reordering — the canonical key is
// doing the colliding.
func TestServiceUnsatCanonicalHit(t *testing.T) {
	svc := NewService(ServiceConfig{})
	// x ≤ 0 ∧ x ≥ 1: bounds propagation empties the domain (proven UNSAT).
	a := []expr.Pred{cmp(v(4), k(0), expr.LE), cmp(v(4), k(1), expr.GE)}
	if _, ok := svc.SolveIncremental(a, nil, Options{Seed: 9}); ok {
		t.Fatal("expected UNSAT")
	}
	// Renamed (x→y), reordered, different seed and prev: still a hit.
	b := []expr.Pred{cmp(v(77), k(1), expr.GE), cmp(v(77), k(0), expr.LE)}
	if _, ok := svc.SolveIncremental(b, map[expr.Var]int64{77: 3}, Options{Seed: 42}); ok {
		t.Fatal("expected UNSAT")
	}
	st := svc.Stats()
	if st.UnsatHits != 1 || st.Misses != 1 {
		t.Fatalf("renamed/reordered unsat set missed the canonical cache: %+v", st)
	}
}

// TestServiceSearchFailureNotCached: an unsatisfiable nonlinear set the
// search gives up on without a refutation proof must NOT enter the UNSAT
// cache — exhaustion depends on the budget and seed, so caching it would be
// unsound.
func TestServiceSearchFailureNotCached(t *testing.T) {
	svc := NewService(ServiceConfig{})
	// x%2 = 0 ∧ x%2 = 1: nonlinear, so no bounds refutation; the search
	// exhausts its candidates without a proof.
	preds := []expr.Pred{
		cmp(expr.Mod(v(0), k(2)), k(0), expr.EQ),
		cmp(expr.Mod(v(0), k(2)), k(1), expr.EQ),
	}
	for i := 0; i < 2; i++ {
		if _, ok := svc.SolveIncremental(preds, nil, Options{Seed: 5, MaxNodes: 500}); ok {
			t.Fatal("expected failure")
		}
	}
	st := svc.Stats()
	if st.UnsatHits != 0 || st.Misses != 2 {
		t.Fatalf("budget-dependent failure was cached as UNSAT: %+v", st)
	}
}

// TestServiceEviction: the SAT memo is bounded and reports evictions.
func TestServiceEviction(t *testing.T) {
	svc := NewService(ServiceConfig{MaxSAT: 2})
	for i := int64(0); i < 4; i++ {
		preds := []expr.Pred{cmp(v(0), k(i*10), expr.GT)}
		if _, ok := svc.SolveIncremental(preds, nil, Options{}); !ok {
			t.Fatalf("set %d: expected SAT", i)
		}
	}
	st := svc.Stats()
	if st.Evicted != 2 {
		t.Fatalf("want 2 evictions from a size-2 memo after 4 inserts, got %+v", st)
	}
	if svc.sat.len() != 2 {
		t.Fatalf("memo exceeded its bound: %d entries", svc.sat.len())
	}
}

// TestServiceDisabledCaches: negative bounds disable caching entirely; the
// service still answers correctly.
func TestServiceDisabledCaches(t *testing.T) {
	svc := NewService(ServiceConfig{MaxSAT: -1, MaxUnsat: -1})
	preds := []expr.Pred{cmp(v(0), k(3), expr.GE)}
	for i := 0; i < 2; i++ {
		res, ok := svc.SolveIncremental(preds, nil, Options{})
		if !ok || res.Values[0] < 3 {
			t.Fatalf("wrong answer with caches disabled: %v %v", res, ok)
		}
	}
	st := svc.Stats()
	if st.SATHits != 0 || st.Misses != 2 {
		t.Fatalf("disabled cache still hit: %+v", st)
	}
}

func TestStatsDeltaAndSummary(t *testing.T) {
	a := Stats{Calls: 10, SATHits: 4, UnsatHits: 1, Misses: 5, Evicted: 2}
	b := Stats{Calls: 25, SATHits: 9, UnsatHits: 4, Misses: 12, Evicted: 2}
	d := b.Delta(a)
	if d.Calls != 15 || d.SATHits != 5 || d.UnsatHits != 3 || d.Misses != 7 || d.Evicted != 0 {
		t.Fatalf("bad delta: %+v", d)
	}
	if got := d.HitRate(); got < 0.52 || got > 0.54 {
		t.Fatalf("bad hit rate: %v", got)
	}
	if s := d.Summary(); s == "" || s == "solver service: no calls" {
		t.Fatalf("bad summary: %q", s)
	}
	if s := (Stats{}).Summary(); s != "solver service: no calls" {
		t.Fatalf("bad empty summary: %q", s)
	}
}

// TestServiceConcurrent hammers one service from many goroutines (run under
// -race in CI) and checks every result against a fresh live solve.
func TestServiceConcurrent(t *testing.T) {
	svc := NewService(ServiceConfig{MaxSAT: 32, MaxUnsat: 32})
	// A small pool of problems so goroutines collide on cache entries.
	type job struct {
		preds []expr.Pred
		opt   Options
	}
	var jobs []job
	for i := int64(0); i < 8; i++ {
		jobs = append(jobs, job{
			preds: []expr.Pred{cmp(v(0), k(i), expr.GT), cmp(expr.Add(v(0), v(1)), k(i*3), expr.LE)},
			opt:   Options{Seed: i},
		})
		jobs = append(jobs, job{ // proven unsat
			preds: []expr.Pred{cmp(v(2), k(i), expr.LT), cmp(v(2), k(i), expr.GT)},
			opt:   Options{Seed: i},
		})
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				j := jobs[r.Intn(len(jobs))]
				want, wantOK := SolveIncremental(j.preds, nil, j.opt)
				got, gotOK := svc.SolveIncremental(j.preds, nil, j.opt)
				if wantOK != gotOK || !reflect.DeepEqual(want, answer(got)) {
					select {
					case errs <- fmt.Errorf("goroutine %d: diverged on %v", g, j.preds):
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
