package solver

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/expr"
)

// cmp builds the predicate "l rel r" the way the runtime does; the v and k
// expression helpers live in solver_test.go.
func cmp(l, r *expr.Expr, rel expr.Rel) expr.Pred { return expr.Compare(l, r, rel) }

// TestServiceMatchesFreeFunctions: the service must return exactly what the
// package-level functions return, on a tree's first call and on a repeat
// that reads its compiled form — the contract that makes sharing a service
// invisible to engine trajectories.
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
		if wantOK != gotOK || !reflect.DeepEqual(wantRes, gotRes) {
			t.Fatalf("trial %d: service diverged from free function\nfree: %v %v\nsvc:  %v %v",
				trial, wantRes, wantOK, gotRes, gotOK)
		}
		// The repeat reads every tree's compiled form; it must still be
		// identical.
		gotRes2, gotOK2 := svc.SolveIncremental(preds, prev, opt)
		if wantOK != gotOK2 || !reflect.DeepEqual(wantRes, gotRes2) {
			t.Fatalf("trial %d: repeated call diverged\nfree: %v %v\nsvc:  %v %v",
				trial, wantRes, wantOK, gotRes2, gotOK2)
		}
	}
	if st := svc.Stats(); st.Calls != 600 || st.Misses != st.Calls {
		t.Fatalf("every call must be one live solve: %+v", st)
	}
}

// TestServiceSearchFailureNotCached: an unsatisfiable nonlinear set the
// search gives up on without a refutation proof is not Proven — exhaustion
// depends on the budget and seed — and a repeat is solved live again.
func TestServiceSearchFailureNotCached(t *testing.T) {
	svc := NewService(ServiceConfig{})
	// x%2 = 0 ∧ x%2 = 1: nonlinear, so no bounds refutation; the search
	// exhausts its candidates without a proof.
	preds := []expr.Pred{
		cmp(expr.Mod(v(0), k(2)), k(0), expr.EQ),
		cmp(expr.Mod(v(0), k(2)), k(1), expr.EQ),
	}
	for i := 0; i < 2; i++ {
		if res, ok := svc.SolveIncremental(preds, nil, Options{Seed: 5, MaxNodes: 500}); ok || res.Proven {
			t.Fatalf("expected an unproven failure, got ok=%v proven=%v", ok, res.Proven)
		}
	}
	st := svc.Stats()
	if st.UnsatHits != 0 || st.Misses != 2 {
		t.Fatalf("budget-dependent failure was not solved live: %+v", st)
	}
}

// TestServiceFormCacheBound: the compile cache holds at most maxForms trees;
// the call that would cross the bound drops it whole, and answers before and
// after the drop — including for a tree compiled before it — still match
// the free function.
func TestServiceFormCacheBound(t *testing.T) {
	svc := NewService(ServiceConfig{})
	check := func(preds []expr.Pred, prev map[expr.Var]int64, seed int64) {
		t.Helper()
		opt := Options{Seed: seed, MaxNodes: 200}
		want, wantOK := SolveIncremental(preds, prev, opt)
		got, gotOK := svc.SolveIncremental(preds, prev, opt)
		if wantOK != gotOK || !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d: service diverged from free function on %v", seed, preds)
		}
	}
	cached := func() int {
		svc.forms.mu.Lock()
		defer svc.forms.mu.Unlock()
		return len(svc.forms.m)
	}
	tree := func(i int64) expr.Pred {
		return cmp(expr.Add(v(0), expr.Mul(k(i%7+1), v(1))), k(i), expr.Rel(i%6))
	}
	first := tree(0)
	for i := int64(0); i < maxForms; i++ {
		p := first
		if i > 0 {
			p = tree(i)
		}
		check([]expr.Pred{p}, map[expr.Var]int64{0: i % 5}, i)
	}
	if n := cached(); n != maxForms {
		t.Fatalf("cache holds %d trees after %d distinct ones, want %d", n, maxForms, maxForms)
	}
	next := tree(maxForms)
	check([]expr.Pred{next, tree(maxForms + 1)}, nil, 1)
	if n := cached(); n != 2 {
		t.Fatalf("crossing the bound left %d trees cached, want the call's 2", n)
	}
	check([]expr.Pred{first.Negate(), next}, map[expr.Var]int64{1: 3}, 2)
	if n := cached(); n != 3 {
		t.Fatalf("cache holds %d trees, want 3", n)
	}
}

func TestStatsDeltaAndSummary(t *testing.T) {
	a := Stats{Calls: 10, Misses: 10, LiveTime: 10 * time.Millisecond}
	b := Stats{Calls: 25, Misses: 25, LiveTime: 40 * time.Millisecond}
	d := b.Delta(a)
	if d.Calls != 15 || d.Misses != 15 || d.LiveTime != 30*time.Millisecond {
		t.Fatalf("bad delta: %+v", d)
	}
	if s, want := d.Summary(), "solver service: 15 calls, 15 live solves (avg 2ms)"; s != want {
		t.Fatalf("summary %q, want %q", s, want)
	}
	if s := (Stats{}).Summary(); s != "solver service: no calls" {
		t.Fatalf("bad empty summary: %q", s)
	}
}

// TestServiceConcurrent hammers one service from many goroutines over a
// shared pool of trees (run under -race in CI): calls race to compile and
// read the same forms, and every answer must equal the free function's.
func TestServiceConcurrent(t *testing.T) {
	svc := NewService(ServiceConfig{})
	var pool []expr.Pred
	for i := int64(0); i < 12; i++ {
		pool = append(pool,
			cmp(v(expr.Var(i%3)), k(i), expr.GT),
			cmp(expr.Add(v(expr.Var(i%3)), v(expr.Var(i%4))), k(i*3), expr.LE),
			cmp(expr.Mod(v(expr.Var(i%4)), k(3)), k(i%3), expr.EQ))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				var preds []expr.Pred
				for j := 0; j < 1+r.Intn(6); j++ {
					p := pool[r.Intn(len(pool))]
					if r.Intn(2) == 0 {
						p = p.Negate()
					}
					preds = append(preds, p)
				}
				prev := map[expr.Var]int64{expr.Var(r.Intn(4)): int64(r.Intn(9) - 4)}
				opt := Options{Seed: int64(r.Intn(4)), MaxNodes: 500}
				want, wantOK := SolveIncremental(preds, prev, opt)
				got, gotOK := svc.SolveIncremental(preds, prev, opt)
				if wantOK != gotOK || !reflect.DeepEqual(want, got) {
					select {
					case errs <- fmt.Errorf("goroutine %d: diverged on %v", g, preds):
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
