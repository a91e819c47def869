package solver

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/expr"
)

// dependentSetMap is the partition as it was computed with a map from each
// variable to the first predicate using it: the reference the dense table
// in dependentSet must reproduce index for index.
func dependentSetMap(preds []expr.Pred, seed int) []int {
	parent := make([]int, len(preds))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	first := make(map[expr.Var]int, len(preds)) // variable → first predicate using it
	var vs []expr.Var
	for i, p := range preds {
		vs = appendVars(vs[:0], p.E)
		for _, v := range vs {
			if j, ok := first[v]; ok {
				parent[find(i)] = find(j)
			} else {
				first[v] = i
			}
		}
	}
	root := find(seed)
	out := make([]int, 0, len(preds))
	for i := range preds {
		if find(i) == root {
			out = append(out, i)
		}
	}
	return out
}

func TestDependentSet(t *testing.T) {
	preds := []expr.Pred{
		expr.Compare(v(x0), k(1), expr.GE),                  // group A
		expr.Compare(v(y0), k(1), expr.GE),                  // group B
		expr.Compare(expr.Sub(v(x0), v(x1)), k(0), expr.EQ), // group A
		expr.Compare(v(x1), k(5), expr.EQ),                  // group A (seed)
	}
	if got, want := dependentSet(preds, 3), []int{0, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("dependent set %v, want %v", got, want)
	}
}

// randomPartitionPreds builds n predicates over nvars variables, each
// touching one to three of them; rare ones use a variable number outside the
// dense table's range, negative or huge.
func randomPartitionPreds(r *rand.Rand, n, nvars int) []expr.Pred {
	varOf := func() *expr.Expr {
		switch r.Intn(40) {
		case 0:
			return v(expr.Var(-1 - r.Intn(3)))
		case 1:
			return v(expr.Var(denseVars + r.Intn(3)))
		}
		return v(expr.Var(r.Intn(nvars)))
	}
	preds := make([]expr.Pred, n)
	for i := range preds {
		e := varOf()
		for j := r.Intn(3); j > 0; j-- {
			e = expr.Add(e, expr.Mul(k(int64(r.Intn(5)+1)), varOf()))
		}
		if r.Intn(8) == 0 {
			e = k(int64(r.Intn(3))) // a variable-free predicate
		}
		preds[i] = expr.Compare(e, k(int64(r.Intn(21)-10)), expr.Rel(r.Intn(6)))
	}
	return preds
}

// TestDependentSetMatchesMapOracle: on random predicate sets, from a few
// predicates over few variables to hundreds over more than the table's
// first size, the dense partition returns the map oracle's indices in the
// same order, for every seed predicate.
func TestDependentSetMatchesMapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 400; trial++ {
		n := 1 + r.Intn(40)
		if trial%10 == 0 {
			n = 200 + r.Intn(300)
		}
		preds := randomPartitionPreds(r, n, 1+r.Intn(150))
		for seed := range preds {
			got, want := dependentSet(preds, seed), dependentSetMap(preds, seed)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d seed %d: dense partition %v, map oracle %v", trial, seed, got, want)
			}
		}
	}
}
