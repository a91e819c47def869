package conc

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/expr"
)

func heavyProc(t *testing.T) (*Proc, *VarSpace) {
	t.Helper()
	vs := NewVarSpace()
	p := NewProc(0, vs, map[string]int64{}, Config{Mode: Heavy, Reduction: true, Seed: 1})
	return p, vs
}

func TestValueArithmetic(t *testing.T) {
	a, b := K(6), K(4)
	if v := Add(a, b); v.C != 10 || v.IsSymbolic() {
		t.Fatalf("Add: %+v", v)
	}
	if v := Sub(a, b); v.C != 2 {
		t.Fatalf("Sub: %+v", v)
	}
	if v := Mul(a, b); v.C != 24 {
		t.Fatalf("Mul: %+v", v)
	}
	if v := Div(a, b); v.C != 1 {
		t.Fatalf("Div: %+v", v)
	}
	if v := Mod(a, b); v.C != 2 {
		t.Fatalf("Mod: %+v", v)
	}
	if v := Neg(a); v.C != -6 {
		t.Fatalf("Neg: %+v", v)
	}
}

func TestSymbolicPropagation(t *testing.T) {
	p, vs := heavyProc(t)
	x := p.InputInt("x")
	if !x.IsSymbolic() {
		t.Fatal("heavy input must be symbolic")
	}
	y := Add(Mul(x, K(3)), K(1)) // 3x+1 stays linear
	l, ok := y.E.AsLinear()
	if !ok || l.Terms[vs.Of("x")] != 3 || l.K != 1 {
		t.Fatalf("3x+1 linear form: %v ok=%v", l, ok)
	}
}

func TestConcolicConcretization(t *testing.T) {
	p, _ := heavyProc(t)
	x := p.InputInt("x")
	y := p.InputInt("y")
	// x*y: one side is concretized so the result stays linear.
	v := Mul(x, y)
	if v.E == nil {
		t.Fatal("x*y should keep one symbolic factor")
	}
	if _, ok := v.E.AsLinear(); !ok {
		t.Fatalf("x*y must concretize to a linear form, got %s", v.E)
	}
	// x/const keeps the dividend symbolic (paper Figure 1 negates x/2+y<=200).
	d := Div(x, K(2))
	if d.E == nil {
		t.Fatal("x/2 must stay symbolic")
	}
	// const/x concretizes entirely.
	c := Div(K(100), Add(x, K(1)))
	if c.E != nil {
		t.Fatal("100/(x+1) must concretize")
	}
}

func TestDivideByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Div(K(1), K(0))
}

func TestCondAndNot(t *testing.T) {
	p, _ := heavyProc(t)
	x := p.InputInt("x") // random in [-10,100]
	c := LT(x, K(1000))
	cp, ok := c.Pred()
	if !c.B || !ok {
		t.Fatalf("cond: %+v", c)
	}
	n := Not(c)
	np, ok := n.Pred()
	if n.B || !ok || np.Rel != cp.Rel.Negate() || !expr.Equal(np.E, cp.E) {
		t.Fatalf("not: %+v", n)
	}
	// Concrete comparison carries no predicate.
	cc := EQ(K(1), K(1))
	if _, ok := cc.Pred(); !cc.B || ok {
		t.Fatalf("concrete cond: %+v", cc)
	}
}

func TestInputValuesAndCaps(t *testing.T) {
	vs := NewVarSpace()
	p := NewProc(0, vs, map[string]int64{"n": 250}, Config{Mode: Heavy, Seed: 3})
	n := p.InputIntCap("n", 300)
	if n.C != 250 {
		t.Fatalf("supplied input ignored: %d", n.C)
	}
	// A supplied value above the cap is clamped (guards the random first run).
	p2 := NewProc(0, NewVarSpace(), map[string]int64{"n": 999}, Config{Mode: Heavy, Seed: 3})
	if got := p2.InputIntCap("n", 300); got.C != 300 {
		t.Fatalf("cap not enforced: %d", got.C)
	}
	// Cap recorded in observations for the solver.
	log := p.Log()
	if len(log.Obs) != 1 || !log.Obs[0].HasCap || log.Obs[0].Cap != 300 {
		t.Fatalf("cap observation: %+v", log.Obs)
	}
}

func TestMissingInputsDeterministicAcrossRanks(t *testing.T) {
	// Two ranks with the same seed must derive identical values for inputs
	// the engine did not supply (first iteration), or SPMD control flow
	// would diverge.
	vs := NewVarSpace()
	a := NewProc(0, vs, nil, Config{Mode: Heavy, Seed: 7})
	b := NewProc(1, nil, nil, Config{Mode: Light, Seed: 7})
	for _, name := range []string{"p", "q", "r"} {
		va, vb := a.InputInt(name), b.InputInt(name)
		if va.C != vb.C {
			t.Fatalf("input %q diverged: %d vs %d", name, va.C, vb.C)
		}
	}
}

// TestRandomInputsSeedLazily pins the lazily seeded input source: missing
// inputs draw exactly what an eagerly seeded source would, and a Proc whose
// inputs are all supplied never seeds one.
func TestRandomInputsSeedLazily(t *testing.T) {
	t.Run("missing inputs draw the eager values", func(t *testing.T) {
		p := NewProc(0, NewVarSpace(), map[string]int64{"n": 4}, Config{Mode: Heavy, Seed: 11})
		eager := rand.New(rand.NewSource(11))
		if got := p.InputInt("n").C; got != 4 {
			t.Fatalf("supplied input read %d", got)
		}
		if got, want := p.InputInt("p").C, -10+eager.Int63n(111); got != want {
			t.Fatalf("missing input drew %d, an eagerly seeded source %d", got, want)
		}
		if got, want := p.InputIntCap("q", 50).C, -10+eager.Int63n(61); got != want {
			t.Fatalf("missing capped input drew %d, an eagerly seeded source %d", got, want)
		}
	})
	t.Run("supplied inputs never seed", func(t *testing.T) {
		p := NewProc(0, NewVarSpace(), map[string]int64{"n": 4, "m": 2}, Config{Mode: Heavy, Seed: 11})
		shared := NewStream(11)
		p.DrawFrom(shared)
		p.InputInt("n")
		p.InputIntCap("m", 8)
		if shared.src != nil {
			t.Fatal("Proc seeded its random source although every input was supplied")
		}
	})
	t.Run("ranks sharing a stream draw the eager values", func(t *testing.T) {
		shared := NewStream(11)
		var procs []*Proc
		for r := 0; r < 3; r++ {
			p := NewProc(r, nil, nil, Config{Mode: Light, Seed: 11})
			p.DrawFrom(shared)
			procs = append(procs, p)
		}
		eager := rand.New(rand.NewSource(11))
		want := []int64{-10 + eager.Int63n(111), -10 + eager.Int63n(111)}
		// Interleaved reads: every rank still starts from the stream's start.
		for i, name := range []string{"a", "b"} {
			for r, p := range procs {
				if got := p.InputInt(name).C; got != want[i] {
					t.Fatalf("rank %d input %s drew %d, an eagerly seeded source %d", r, name, got, want[i])
				}
			}
		}
	})
}

func TestVarSpaceStability(t *testing.T) {
	vs := NewVarSpace()
	v1 := vs.Of("x")
	_ = vs.Of("y")
	if vs.Of("x") != v1 {
		t.Fatal("variable ID not stable")
	}
	if vs.Name(v1) != "x" || vs.Len() != 2 {
		t.Fatal("name table wrong")
	}
}

func TestBranchCoverageBothModes(t *testing.T) {
	for _, mode := range []Mode{Light, Heavy} {
		var vs *VarSpace
		if mode == Heavy {
			vs = NewVarSpace()
		}
		p := NewProc(0, vs, nil, Config{Mode: mode, Seed: 1})
		x := p.InputInt("x")
		p.Branch(CondID(5), LT(x, K(1000))) // true branch
		p.Branch(CondID(6), GT(x, K(1000))) // false branch
		log := p.Log()
		want := []BranchBit{Bit(5, true), Bit(6, false)}
		if !reflect.DeepEqual(log.Covered, want) {
			t.Fatalf("%v covered = %v want %v", mode, log.Covered, want)
		}
		if mode == Light && len(log.Path) != 0 {
			t.Fatal("light mode must not record constraints")
		}
		if mode == Heavy && len(log.Path) != 2 {
			t.Fatalf("heavy mode path: %+v", log.Path)
		}
	}
}

func TestOffModeRecordsNothing(t *testing.T) {
	p := NewProc(0, nil, nil, Config{Mode: Off, Seed: 1})
	p.Branch(CondID(1), True(true))
	p.EnterFunc("f")
	log := p.Log()
	if len(log.Covered) != 0 || len(log.Funcs) != 0 {
		t.Fatalf("off mode recorded: %+v", log)
	}
}

// TestConstraintSetReductionFigure7 reproduces the paper's Figure 7: a loop
// "for(i=0;i<100;i++) if (x+i < 100) ..." generates 101 constraints from one
// conditional; with reduction only the first and the flip survive.
func TestConstraintSetReductionFigure7(t *testing.T) {
	run := func(reduction bool) *Log {
		vs := NewVarSpace()
		p := NewProc(0, vs, map[string]int64{"x": 0}, Config{Mode: Heavy, Reduction: reduction, Seed: 1})
		x := p.InputInt("x")
		site := CondID(9)
		for i := int64(0); i <= 100; i++ {
			p.Branch(site, LT(Add(x, K(i)), K(100)))
		}
		return p.Log()
	}
	with := run(true)
	without := run(false)
	if len(without.Path) != 101 {
		t.Fatalf("unreduced path length = %d, want 101", len(without.Path))
	}
	if len(with.Path) != 2 {
		t.Fatalf("reduced path length = %d, want 2 (first + flip)", len(with.Path))
	}
	if with.Path[0].Outcome != true || with.Path[1].Outcome != false {
		t.Fatalf("reduced path outcomes: %+v", with.Path)
	}
	if with.RawCount != 101 {
		t.Fatalf("raw count = %d, want 101", with.RawCount)
	}
}

func TestReductionKeepsReencounterAfterFlip(t *testing.T) {
	vs := NewVarSpace()
	p := NewProc(0, vs, map[string]int64{"x": 5}, Config{Mode: Heavy, Reduction: true, Seed: 1})
	x := p.InputInt("x")
	site := CondID(3)
	p.Branch(site, LT(x, K(10))) // true: recorded (first)
	p.Branch(site, LT(x, K(3)))  // false: recorded (flip)
	p.Branch(site, LT(x, K(2)))  // false: suppressed (same outcome)
	p.Branch(site, LT(x, K(10))) // true: recorded (flip back)
	if got := len(p.Log().Path); got != 3 {
		t.Fatalf("path length = %d, want 3", got)
	}
}

func TestMPIMarking(t *testing.T) {
	p, vs := heavyProc(t)
	r := p.MarkRankWorld("main:1", 3)
	s := p.MarkSizeWorld("main:2", 8)
	idx := p.AddCommRow([]int32{0, 4, 2})
	l := p.MarkRankLocal("split:1", 1, idx, 3)
	if r.C != 3 || s.C != 8 || l.C != 1 {
		t.Fatal("concrete values wrong")
	}
	if !r.IsSymbolic() || !s.IsSymbolic() || !l.IsSymbolic() {
		t.Fatal("marks must be symbolic on the focus")
	}
	log := p.Log()
	if len(log.Obs) != 3 {
		t.Fatalf("obs: %+v", log.Obs)
	}
	kinds := map[VarKind]VarObs{}
	for _, o := range log.Obs {
		kinds[o.Kind] = o
	}
	if kinds[KindRankWorld].Val != 3 || kinds[KindSizeWorld].Val != 8 {
		t.Fatal("rank/size obs wrong")
	}
	rc := kinds[KindRankLocal]
	if rc.CommIdx != 0 || rc.CommSize != 3 {
		t.Fatalf("rc obs: %+v", rc)
	}
	if len(log.Mapping) != 1 || log.Mapping[0][1] != 4 {
		t.Fatalf("mapping: %+v", log.Mapping)
	}
	if vs.Len() != 3 {
		t.Fatalf("vars allocated: %d", vs.Len())
	}
	// Re-marking the same site must not duplicate observations.
	p.MarkRankWorld("main:1", 3)
	if got := len(p.Log().Obs); got != 3 {
		t.Fatalf("duplicate obs: %d", got)
	}
}

func TestLightModeMarksAreConcrete(t *testing.T) {
	p := NewProc(2, nil, nil, Config{Mode: Light, Seed: 1})
	if p.MarkRankWorld("s", 2).IsSymbolic() {
		t.Fatal("light rank mark must be concrete")
	}
}

func TestTickHangDetection(t *testing.T) {
	p := NewProc(1, nil, nil, Config{Mode: Light, Seed: 1, MaxTicks: 10})
	defer func() {
		r := recover()
		h, ok := r.(*ErrHang)
		if !ok {
			t.Fatalf("want ErrHang, got %v", r)
		}
		if h.Rank != 1 {
			t.Fatalf("hang rank = %d", h.Rank)
		}
	}()
	for i := 0; i < 100; i++ {
		p.Tick()
	}
	t.Fatal("unreachable")
}

func TestAssert(t *testing.T) {
	p := NewProc(0, nil, nil, Config{Mode: Light, Seed: 1})
	p.Assert(true, "fine")
	defer func() {
		e, ok := recover().(*ErrAssert)
		if !ok || e.Msg != "n = 7" {
			t.Fatalf("assert panic: %v", e)
		}
	}()
	p.Assert(false, "n = %d", 7)
}

func TestBitSiteOutcome(t *testing.T) {
	b := Bit(CondID(21), false)
	if b.Site() != 21 || b.Outcome() {
		t.Fatalf("bit roundtrip: %v", b)
	}
	b = Bit(CondID(21), true)
	if b.Site() != 21 || !b.Outcome() {
		t.Fatalf("bit roundtrip: %v", b)
	}
}

func TestEnterFuncRecorded(t *testing.T) {
	p := NewProc(0, nil, nil, Config{Mode: Light, Seed: 1})
	p.EnterFunc("solve")
	p.EnterFunc("init")
	p.EnterFunc("solve")
	log := p.Log()
	if !reflect.DeepEqual(log.Funcs, []string{"init", "solve"}) {
		t.Fatalf("funcs: %v", log.Funcs)
	}
}

func randLog(rng *rand.Rand) *Log {
	l := &Log{Mode: Heavy, Rank: rng.Intn(16)}
	prev := BranchBit(0)
	for i := 0; i < rng.Intn(20); i++ {
		prev += BranchBit(1 + rng.Intn(9))
		l.Covered = append(l.Covered, prev)
	}
	for i := 0; i < rng.Intn(5); i++ {
		l.Funcs = append(l.Funcs, string(rune('a'+i)))
	}
	l.RawCount = int64(rng.Intn(1000))
	for i := 0; i < rng.Intn(8); i++ {
		e := expr.Sub(expr.Mul(expr.Const(int64(rng.Intn(9)-4)), expr.VarRef(expr.Var(rng.Intn(5)))), expr.Const(int64(rng.Intn(100))))
		l.Path = append(l.Path, PathEntry{
			Site:    CondID(rng.Intn(100)),
			Outcome: rng.Intn(2) == 0,
			Pred:    expr.Pred{E: e, Rel: expr.Rel(rng.Intn(6))},
		})
	}
	for i := 0; i < rng.Intn(4); i++ {
		l.Obs = append(l.Obs, VarObs{
			V: expr.Var(i), Name: "v", Val: int64(rng.Intn(100) - 50),
			Kind: VarKind(rng.Intn(4)), HasCap: rng.Intn(2) == 0, Cap: 300,
			CommIdx: int32(rng.Intn(3)), CommSize: int64(rng.Intn(8)),
		})
	}
	for i := 0; i < rng.Intn(3); i++ {
		row := make([]int32, rng.Intn(5))
		for j := range row {
			row[j] = int32(rng.Intn(16))
		}
		l.Mapping = append(l.Mapping, row)
	}
	return l
}

// Property: Encode/Decode round-trips arbitrary logs.
func TestLogRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		l := randLog(rng)
		got, err := Decode(l.Encode())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Mode != l.Mode || got.Rank != l.Rank || got.RawCount != l.RawCount {
			t.Fatalf("header mismatch: %+v vs %+v", got, l)
		}
		if !reflect.DeepEqual(got.Covered, l.Covered) {
			t.Fatalf("covered mismatch: %v vs %v", got.Covered, l.Covered)
		}
		if len(got.Path) != len(l.Path) {
			t.Fatalf("path length mismatch")
		}
		for j := range got.Path {
			if got.Path[j].Site != l.Path[j].Site || got.Path[j].Outcome != l.Path[j].Outcome {
				t.Fatalf("path entry mismatch at %d", j)
			}
			if !expr.Equal(got.Path[j].Pred.E, l.Path[j].Pred.E) || got.Path[j].Pred.Rel != l.Path[j].Pred.Rel {
				t.Fatalf("pred mismatch at %d: %s vs %s", j, got.Path[j].Pred, l.Path[j].Pred)
			}
		}
		if !reflect.DeepEqual(got.Obs, l.Obs) {
			t.Fatalf("obs mismatch: %+v vs %+v", got.Obs, l.Obs)
		}
		if len(got.Mapping) != len(l.Mapping) {
			t.Fatal("mapping mismatch")
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	l := randLog(rand.New(rand.NewSource(2)))
	enc := l.Encode()
	for _, cut := range []int{0, 1, len(enc) / 2, len(enc) - 1} {
		if cut >= len(enc) {
			continue
		}
		if _, err := Decode(enc[:cut]); err == nil {
			// Some prefixes happen to decode if trailing sections are empty;
			// only a strict prefix of a non-empty section must fail. Accept
			// nil error only when the cut kept all mandatory sections.
			if cut < 3 {
				t.Fatalf("cut=%d decoded successfully", cut)
			}
		}
	}
}

func TestLightLogSmallerThanHeavy(t *testing.T) {
	// The essence of Table IV: a non-focus (light) log must be a tiny
	// fraction of the focus (heavy) log for constraint-heavy runs.
	vs := NewVarSpace()
	heavy := NewProc(0, vs, map[string]int64{"x": 0}, Config{Mode: Heavy, Reduction: false, Seed: 1})
	light := NewProc(1, nil, map[string]int64{"x": 0}, Config{Mode: Light, Seed: 1})
	hx := heavy.InputInt("x")
	lx := light.InputInt("x")
	for i := int64(0); i < 2000; i++ {
		heavy.Branch(CondID(1), LT(Add(hx, K(i)), K(5000)))
		light.Branch(CondID(1), LT(Add(lx, K(i)), K(5000)))
	}
	hs := len(heavy.Log().Encode())
	ls := len(light.Log().Encode())
	if ls*10 > hs {
		t.Fatalf("light log %dB not ≪ heavy log %dB", ls, hs)
	}
}
