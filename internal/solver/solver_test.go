package solver

import (
	"math/rand"
	"testing"

	"repro/internal/expr"
)

var x0, x1, x2, y0, z0 = expr.Var(0), expr.Var(1), expr.Var(2), expr.Var(3), expr.Var(4)

func v(id expr.Var) *expr.Expr { return expr.VarRef(id) }
func k(n int64) *expr.Expr     { return expr.Const(n) }
func opts(seed int64) Options  { return Options{Seed: seed} }
func env(m map[expr.Var]int64) expr.Env {
	return func(u expr.Var) int64 { return m[u] }
}

func checkSat(t *testing.T, preds []expr.Pred, vals map[expr.Var]int64) {
	t.Helper()
	for _, p := range preds {
		hold, ok := p.Eval(env(vals))
		if !ok || !hold {
			t.Fatalf("assignment %v violates %s", vals, p)
		}
	}
}

func TestSolveSimpleEquality(t *testing.T) {
	// Negating x != 100 yields x == 100.
	preds := []expr.Pred{expr.Compare(v(x0), k(100), expr.EQ)}
	res, ok := Solve(preds, map[expr.Var]int64{x0: 10}, opts(1))
	if !ok {
		t.Fatal("unsat")
	}
	if res.Values[x0] != 100 {
		t.Fatalf("x0 = %d, want 100", res.Values[x0])
	}
	if !res.Changed[x0] {
		t.Fatal("x0 should be marked changed")
	}
}

func TestSolvePaperFigure1(t *testing.T) {
	// {x == 100, x/2 + y <= 200} with previous inputs {x:10, y:50}.
	// The expected outcome from the paper is {x:100, y:50}: y keeps its
	// previous value because it still satisfies the second constraint.
	preds := []expr.Pred{
		expr.Compare(expr.Add(expr.Div(v(x0), k(2)), v(y0)), k(200), expr.LE),
		expr.Compare(v(x0), k(100), expr.EQ),
	}
	res, ok := SolveIncremental(preds, map[expr.Var]int64{x0: 10, y0: 50}, opts(1))
	if !ok {
		t.Fatal("unsat")
	}
	checkSat(t, preds, res.Values)
	if res.Values[x0] != 100 {
		t.Fatalf("x0 = %d, want 100", res.Values[x0])
	}
	if res.Values[y0] != 50 {
		t.Fatalf("y0 = %d, want previous value 50", res.Values[y0])
	}
	if res.Changed[y0] {
		t.Fatal("y0 kept its value and must not be marked changed")
	}
}

func TestSolveUnsat(t *testing.T) {
	preds := []expr.Pred{
		expr.Compare(v(x0), k(0), expr.LT),
		expr.Compare(v(x0), k(0), expr.GT),
	}
	if _, ok := Solve(preds, nil, opts(1)); ok {
		t.Fatal("x<0 && x>0 must be unsat")
	}
}

func TestSolveConstantFalse(t *testing.T) {
	preds := []expr.Pred{expr.Compare(k(1), k(2), expr.EQ)}
	if _, ok := Solve(preds, nil, opts(1)); ok {
		t.Fatal("1 == 2 must be unsat")
	}
}

func TestSolveMPISemanticsPattern(t *testing.T) {
	// The §III-B constraint family: x0 == x1 (rw equal), x0 < z0 (rank < size),
	// x0 >= 0, z0 >= 1, z0 <= 16 (nprocs cap), plus the negated branch x0 == 3.
	preds := []expr.Pred{
		expr.Compare(expr.Sub(v(x0), v(x1)), k(0), expr.EQ),
		expr.Compare(expr.Sub(v(x0), v(z0)), k(0), expr.LT),
		expr.Compare(v(x0), k(0), expr.GE),
		expr.Compare(v(z0), k(1), expr.GE),
		expr.Compare(v(z0), k(16), expr.LE),
		expr.Compare(v(x0), k(3), expr.EQ),
	}
	prev := map[expr.Var]int64{x0: 0, x1: 0, z0: 8}
	res, ok := SolveIncremental(preds, prev, opts(1))
	if !ok {
		t.Fatal("unsat")
	}
	checkSat(t, preds, res.Values)
	if res.Values[x0] != 3 || res.Values[x1] != 3 {
		t.Fatalf("ranks must both become 3: %v", res.Values)
	}
	if res.Values[z0] != 8 {
		t.Fatalf("size should keep previous value 8, got %d", res.Values[z0])
	}
}

func TestIncrementalKeepsUnrelatedPartition(t *testing.T) {
	// Two disjoint groups: {x0}, {y0}. Negated constraint touches x0 only, so
	// y0 must keep its previous value even though re-solving could move it.
	preds := []expr.Pred{
		expr.Compare(v(y0), k(1000), expr.LE),
		expr.Compare(v(x0), k(42), expr.EQ),
	}
	prev := map[expr.Var]int64{x0: 7, y0: 999}
	res, ok := SolveIncremental(preds, prev, opts(1))
	if !ok {
		t.Fatal("unsat")
	}
	if res.Values[y0] != 999 {
		t.Fatalf("y0 = %d, want stale 999", res.Values[y0])
	}
	if res.Values[x0] != 42 {
		t.Fatalf("x0 = %d, want 42", res.Values[x0])
	}
	if res.Changed[y0] || !res.Changed[x0] {
		t.Fatalf("changed set wrong: %v", res.Changed)
	}
}

func TestSolveChainedEqualities(t *testing.T) {
	// x0 == x1, x1 == x2, x2 == 5.
	preds := []expr.Pred{
		expr.Compare(expr.Sub(v(x0), v(x1)), k(0), expr.EQ),
		expr.Compare(expr.Sub(v(x1), v(x2)), k(0), expr.EQ),
		expr.Compare(v(x2), k(5), expr.EQ),
	}
	res, ok := Solve(preds, nil, opts(1))
	if !ok {
		t.Fatal("unsat")
	}
	checkSat(t, preds, res.Values)
	if res.Values[x0] != 5 || res.Values[x1] != 5 {
		t.Fatalf("equality chain not propagated: %v", res.Values)
	}
}

func TestSolveStrictInequalityNarrowing(t *testing.T) {
	// 3*x0 > 17 and x0 < 7  →  x0 = 6.
	preds := []expr.Pred{
		expr.Compare(expr.Mul(k(3), v(x0)), k(17), expr.GT),
		expr.Compare(v(x0), k(7), expr.LT),
	}
	res, ok := Solve(preds, nil, opts(1))
	if !ok {
		t.Fatal("unsat")
	}
	if res.Values[x0] != 6 {
		t.Fatalf("x0 = %d, want 6", res.Values[x0])
	}
}

func TestSolveNotEqualAvoidsForbiddenValue(t *testing.T) {
	preds := []expr.Pred{
		expr.Compare(v(x0), k(5), expr.GE),
		expr.Compare(v(x0), k(5), expr.LE+0), // pin domain to {5,6}
		expr.Compare(v(x0), k(6), expr.LE),
		expr.Compare(v(x0), k(5), expr.NE),
	}
	// Remove the accidental pin: build properly — x0 in [5,6], x0 != 5.
	preds = []expr.Pred{
		expr.Compare(v(x0), k(5), expr.GE),
		expr.Compare(v(x0), k(6), expr.LE),
		expr.Compare(v(x0), k(5), expr.NE),
	}
	res, ok := Solve(preds, map[expr.Var]int64{x0: 5}, opts(1))
	if !ok {
		t.Fatal("unsat")
	}
	if res.Values[x0] != 6 {
		t.Fatalf("x0 = %d, want 6", res.Values[x0])
	}
}

func TestSolveRemainderConstraint(t *testing.T) {
	// x0 % 7 == 3, x0 in [0, 100].
	preds := []expr.Pred{
		expr.Compare(v(x0), k(0), expr.GE),
		expr.Compare(v(x0), k(100), expr.LE),
		expr.Compare(expr.Mod(v(x0), k(7)), k(3), expr.EQ),
	}
	res, ok := Solve(preds, nil, opts(1))
	if !ok {
		t.Fatal("unsat")
	}
	checkSat(t, preds, res.Values)
	if res.Values[x0]%7 != 3 {
		t.Fatalf("x0 = %d does not have residue 3 mod 7", res.Values[x0])
	}
}

func TestSolveDivisionConstraint(t *testing.T) {
	// x0 / 4 == 25 has solutions 100..103.
	preds := []expr.Pred{
		expr.Compare(v(x0), k(0), expr.GE),
		expr.Compare(v(x0), k(1000), expr.LE),
		expr.Compare(expr.Div(v(x0), k(4)), k(25), expr.EQ),
	}
	res, ok := Solve(preds, nil, opts(1))
	if !ok {
		t.Fatal("unsat")
	}
	got := res.Values[x0]
	if got < 100 || got > 103 {
		t.Fatalf("x0 = %d, want in [100,103]", got)
	}
}

func TestSolveInputCapPattern(t *testing.T) {
	// §IV-A: the cap becomes "x <= cap". With a lower bound from a sanity
	// check, the solution must land inside.
	preds := []expr.Pred{
		expr.Compare(v(x0), k(1), expr.GE),
		expr.Compare(v(x0), k(300), expr.LE),
		expr.Compare(v(x0), k(200), expr.GT), // negated branch "x <= 200"
	}
	res, ok := Solve(preds, map[expr.Var]int64{x0: 100}, opts(1))
	if !ok {
		t.Fatal("unsat")
	}
	if got := res.Values[x0]; got <= 200 || got > 300 {
		t.Fatalf("x0 = %d, want in (200,300]", got)
	}
}

func TestSolveBudgetExhaustion(t *testing.T) {
	// An adversarial nonlinear system with a tiny budget must fail cleanly,
	// not hang.
	preds := []expr.Pred{
		expr.Compare(expr.Mul(v(x0), v(x1)), k(7919*7907), expr.EQ),
		expr.Compare(v(x0), k(2), expr.GE),
		expr.Compare(v(x1), k(2), expr.GE),
	}
	_, ok := Solve(preds, nil, Options{MaxNodes: 5, Seed: 1})
	_ = ok // Either result is acceptable; the test is that it terminates fast.
}

func TestSolveEmpty(t *testing.T) {
	res, ok := SolveIncremental(nil, map[expr.Var]int64{x0: 3}, opts(1))
	if !ok {
		t.Fatal("empty set must be sat")
	}
	if res.Values[x0] != 3 {
		t.Fatal("previous values must carry over")
	}
}

func TestFloorCeilDiv(t *testing.T) {
	cases := []struct{ a, b, fl, ce int64 }{
		{7, 2, 3, 4}, {-7, 2, -4, -3}, {7, -2, -4, -3}, {-7, -2, 3, 4},
		{6, 3, 2, 2}, {-6, 3, -2, -2}, {0, 5, 0, 0},
	}
	for _, c := range cases {
		if f := floorDiv(c.a, c.b); f != c.fl {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, f, c.fl)
		}
		if e := ceilDiv(c.a, c.b); e != c.ce {
			t.Errorf("ceilDiv(%d,%d) = %d, want %d", c.a, c.b, e, c.ce)
		}
	}
}

// Property: every assignment the solver returns satisfies every input
// predicate, across randomly generated satisfiable-ish linear systems.
func TestSolveSoundnessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vars := []expr.Var{x0, x1, x2, y0, z0}
	for trial := 0; trial < 300; trial++ {
		// Random witness — guarantees satisfiability of the generated system.
		witness := map[expr.Var]int64{}
		for _, u := range vars {
			witness[u] = int64(rng.Intn(201) - 100)
		}
		n := 1 + rng.Intn(5)
		var preds []expr.Pred
		for i := 0; i < n; i++ {
			l := expr.NewLinear(0)
			for _, u := range vars {
				if rng.Intn(2) == 0 {
					l.AddTerm(u, int64(rng.Intn(7)-3))
				}
			}
			e := expr.Const(l.K)
			for _, u := range l.SortedVars() {
				e = expr.Add(e, expr.Mul(expr.Const(l.Terms[u]), expr.VarRef(u)))
			}
			val := l.Eval(env(witness))
			// Pick a relation that the witness satisfies.
			var rel expr.Rel
			switch {
			case val == 0:
				rel = []expr.Rel{expr.EQ, expr.LE, expr.GE}[rng.Intn(3)]
			case val < 0:
				rel = []expr.Rel{expr.LT, expr.LE, expr.NE}[rng.Intn(3)]
			default:
				rel = []expr.Rel{expr.GT, expr.GE, expr.NE}[rng.Intn(3)]
			}
			preds = append(preds, expr.Pred{E: e, Rel: rel})
		}
		res, ok := Solve(preds, nil, Options{Seed: int64(trial), Lo: -1000, Hi: 1000})
		if !ok {
			t.Fatalf("trial %d: solver failed on a satisfiable system (witness %v): %v",
				trial, witness, preds)
		}
		checkSat(t, preds, res.Values)
	}
}

// Property: incremental solving never disturbs variables outside the negated
// constraint's dependency partition.
func TestIncrementalStalenessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		// Group A over x0; group B over y0 with arbitrary satisfied bounds.
		prevY := int64(rng.Intn(100))
		target := int64(rng.Intn(100))
		preds := []expr.Pred{
			expr.Compare(v(y0), k(prevY+1), expr.LT),
			expr.Compare(v(x0), k(target), expr.EQ),
		}
		prev := map[expr.Var]int64{x0: -1, y0: prevY}
		res, ok := SolveIncremental(preds, prev, opts(int64(trial)))
		if !ok {
			t.Fatalf("trial %d unsat", trial)
		}
		if res.Values[y0] != prevY {
			t.Fatalf("trial %d: y0 moved from %d to %d", trial, prevY, res.Values[y0])
		}
		if res.Values[x0] != target {
			t.Fatalf("trial %d: x0 = %d want %d", trial, res.Values[x0], target)
		}
	}
}
