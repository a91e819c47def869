package coverage

import (
	"reflect"
	"testing"

	"repro/internal/conc"
)

func TestAddLogAndCount(t *testing.T) {
	tr := New()
	tr.AddLog(&conc.Log{
		Covered: []conc.BranchBit{conc.Bit(1, true), conc.Bit(2, false)},
		Funcs:   []string{"f", "g"},
	})
	tr.AddLog(&conc.Log{
		Covered: []conc.BranchBit{conc.Bit(1, true), conc.Bit(3, true)},
		Funcs:   []string{"g"},
	})
	if tr.Count() != 3 {
		t.Fatalf("count: %d", tr.Count())
	}
	if !tr.Covered(conc.Bit(2, false)) || tr.Covered(conc.Bit(2, true)) {
		t.Fatal("covered wrong")
	}
	if len(tr.Funcs()) != 2 {
		t.Fatalf("funcs: %v", tr.Funcs())
	}
	tr.Funcs()["h"] = struct{}{}
	if len(tr.Funcs()) != 2 {
		t.Fatal("Funcs returned the tracker's own set, not a copy")
	}
}

func TestBranchesSorted(t *testing.T) {
	tr := New()
	tr.AddBranch(conc.Bit(5, false))
	tr.AddBranch(conc.Bit(1, true))
	tr.AddBranch(conc.Bit(3, true))
	got := tr.Branches()
	want := []conc.BranchBit{conc.Bit(1, true), conc.Bit(3, true), conc.Bit(5, false)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("branches: %v want %v", got, want)
	}
}

func TestRate(t *testing.T) {
	tr := New()
	if tr.Rate(0) != 0 {
		t.Fatal("zero denominator must not panic")
	}
	tr.AddBranch(conc.Bit(0, true))
	tr.AddBranch(conc.Bit(0, false))
	if r := tr.Rate(8); r != 0.25 {
		t.Fatalf("rate: %f", r)
	}
}

func TestMergeUnion(t *testing.T) {
	a, b := New(), New()
	a.AddBranch(conc.Bit(1, true))
	a.AddBranch(conc.Bit(2, false))
	a.AddFunc("f")
	b.AddBranch(conc.Bit(2, false)) // overlap
	b.AddBranch(conc.Bit(3, true))
	b.AddFunc("g")

	a.Merge(b)
	want := []conc.BranchBit{conc.Bit(1, true), conc.Bit(2, false), conc.Bit(3, true)}
	if got := a.Branches(); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged branches %v, want %v", got, want)
	}
	if len(a.Funcs()) != 2 {
		t.Fatalf("merged funcs: %v", a.Funcs())
	}
	// The source must be untouched.
	if b.Count() != 2 || len(b.Funcs()) != 1 {
		t.Fatalf("merge mutated source: %d branches, funcs %v", b.Count(), b.Funcs())
	}
}

func TestMergeEmptyAndDegenerate(t *testing.T) {
	tr := New()
	tr.AddBranch(conc.Bit(1, true))

	tr.Merge(New()) // empty source: no-op
	tr.Merge(nil)   // nil source: no-op
	tr.Merge(tr)    // self-merge changes nothing
	if tr.Count() != 1 {
		t.Fatalf("count after degenerate merges: %d", tr.Count())
	}
}
