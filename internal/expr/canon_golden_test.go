package expr_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/solver"
	"repro/internal/target"
	_ "repro/internal/targets/hpl"
	"repro/internal/targets/susy"
)

// testdata/canon_golden.json pins the exact CanonicalString and key of hand
// cases, random mixed sets, and predicate sets recorded from short susy-hmc
// and hpl campaigns (the deepest over 200 predicates), so a rewrite of the
// canonicalizer must reproduce every byte.
//
// Re-record (only together with a deliberate change of the canonical form):
//
//	go test ./internal/expr -run TestCanonicalGolden -update-canon-golden

var updateCanonGolden = flag.Bool("update-canon-golden", false,
	"re-record testdata/canon_golden.json from the current canonicalizer")

const canonGoldenPath = "testdata/canon_golden.json"

type canonGoldenCase struct {
	Name  string   `json:"name"`
	Preds []string `json:"preds"` // one encodePred string per predicate
	Canon string   `json:"canon"`
	Key   string   `json:"key"`
}

func TestCanonicalGolden(t *testing.T) {
	if *updateCanonGolden {
		recordCanonGolden(t)
	}
	raw, err := os.ReadFile(canonGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var cases []canonGoldenCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		preds := make([]expr.Pred, len(c.Preds))
		for i, s := range c.Preds {
			p, err := decodePred(s)
			if err != nil {
				t.Fatalf("%s: predicate %d: %v", c.Name, i, err)
			}
			preds[i] = p
		}
		if got := expr.CanonicalString(preds); got != c.Canon {
			t.Fatalf("%s (%d preds): canonical form changed\n got %.300s\nwant %.300s", c.Name, len(preds), got, c.Canon)
		}
		if got := expr.CanonicalKey(preds).String(); got != c.Key {
			t.Fatalf("%s: key %s, want %s", c.Name, got, c.Key)
		}
	}
}

// recordCanonGolden rebuilds the golden file from the current canonicalizer.
func recordCanonGolden(t *testing.T) {
	var sets []canonGoldenCase
	add := func(name string, preds []expr.Pred) {
		c := canonGoldenCase{Name: name, Canon: expr.CanonicalString(preds), Key: expr.CanonicalKey(preds).String()}
		for _, p := range preds {
			c.Preds = append(c.Preds, encodePred(p))
		}
		sets = append(sets, c)
	}
	for i, hc := range canonHandCases() {
		add(fmt.Sprintf("hand/%02d", i), hc)
	}
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 20; i++ {
		add(fmt.Sprintf("random/%02d", i), randomMixedSet(r))
	}
	susyProg := mustProgram(t, "susy-hmc")
	for i, p := range sampleSets(recordCampaign(t, core.Config{
		Program: susyProg, Params: susy.FixAll(), Iterations: 40,
		DFSPhase: 30, Seed: 5,
	}), 25) {
		add(fmt.Sprintf("susy-hmc/%02d", i), p)
	}
	for i, p := range sampleSets(recordCampaign(t, core.Config{
		Program: mustProgram(t, "hpl"), Iterations: 120, DFSPhase: 40, Seed: 1,
	}), 25) {
		add(fmt.Sprintf("hpl/%02d", i), p)
	}
	out, err := json.MarshalIndent(sets, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(canonGoldenPath, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func mustProgram(t *testing.T, name string) *target.Program {
	t.Helper()
	p, ok := target.Lookup(name)
	if !ok {
		t.Fatalf("%s not registered", name)
	}
	return p
}

// recordingSolver keeps a copy of every predicate set the engine submits.
type recordingSolver struct {
	inner *solver.Service
	sets  [][]expr.Pred
}

func (s *recordingSolver) SolveIncremental(preds []expr.Pred, prev map[expr.Var]int64, opt solver.Options) (solver.Result, bool) {
	s.sets = append(s.sets, append([]expr.Pred(nil), preds...))
	return s.inner.SolveIncremental(preds, prev, opt)
}

func (s *recordingSolver) Stats() solver.Stats { return s.inner.Stats() }

func recordCampaign(t *testing.T, cfg core.Config) [][]expr.Pred {
	rec := &recordingSolver{inner: solver.NewService(solver.ServiceConfig{})}
	cfg.Solver = rec
	cfg.Reduction, cfg.Framework = true, true
	cfg.RunTimeout = 15 * time.Second
	core.NewEngine(cfg).Run()
	return rec.sets
}

// sampleSets picks n distinct sets spread evenly over the size range, the
// largest always included.
func sampleSets(sets [][]expr.Pred, n int) [][]expr.Pred {
	seen := map[string]bool{}
	type enc struct {
		key   string
		preds []expr.Pred
	}
	var uniq []enc
	for _, s := range sets {
		parts := make([]string, len(s))
		for i, p := range s {
			parts[i] = encodePred(p)
		}
		k := strings.Join(parts, ";")
		if !seen[k] {
			seen[k] = true
			uniq = append(uniq, enc{k, s})
		}
	}
	sort.Slice(uniq, func(i, j int) bool {
		if len(uniq[i].preds) != len(uniq[j].preds) {
			return len(uniq[i].preds) < len(uniq[j].preds)
		}
		return uniq[i].key < uniq[j].key
	})
	if len(uniq) <= n {
		n = len(uniq)
	}
	out := make([][]expr.Pred, 0, n)
	for i := 0; i < n; i++ {
		idx := 0
		if n > 1 {
			idx = i * (len(uniq) - 1) / (n - 1)
		}
		out = append(out, uniq[idx].preds)
	}
	return out
}

// canonHandCases are the hand-written sets of canon_test.go's collision,
// distinction and overflow tests.
func canonHandCases() [][]expr.Pred {
	x, y := expr.VarRef(3), expr.VarRef(8)
	huge := int64(1) << 62
	return [][]expr.Pred{
		{expr.Compare(x, expr.Const(6), expr.LT)},
		{expr.Compare(x, expr.Const(5), expr.LE)},
		{expr.Compare(x, expr.Const(1), expr.GE)},
		{expr.Compare(expr.Neg(x), expr.Const(-1), expr.LE)},
		{expr.Compare(expr.Mul(expr.Const(2), x), expr.Const(5), expr.LE)},
		{expr.Compare(expr.Sub(x, y), expr.Const(0), expr.EQ)},
		{expr.Compare(expr.Sub(y, x), expr.Const(0), expr.EQ)},
		{expr.Compare(expr.Mul(expr.Const(2), x), expr.Const(1), expr.EQ)},
		{expr.Compare(expr.Mul(expr.Const(2), x), expr.Const(1), expr.NE)},
		{{E: expr.Const(1), Rel: expr.EQ}},
		{{E: expr.Const(0), Rel: expr.EQ}},
		{expr.Compare(x, expr.Const(5), expr.EQ)},
		{expr.Compare(expr.Mul(x, x), expr.Const(4), expr.LE)},
		{expr.Compare(expr.Mul(x, y), expr.Const(4), expr.LE)},
		{expr.Compare(x, expr.Const(5), expr.LE), expr.Compare(x, expr.Const(5), expr.LE)},
		{expr.Compare(x, expr.Const(1), expr.GE), expr.Compare(x, expr.Const(9), expr.LE)},
		{expr.Compare(x, expr.Const(1), expr.GE), expr.Compare(y, expr.Const(9), expr.LE)},
		{expr.Compare(expr.Mul(expr.Const(huge), x), expr.Const(0), expr.GT)},
		{expr.Compare(expr.Mul(expr.Const(-huge), x), expr.Const(-1), expr.LE)},
		{},
	}
}

// randomMixedSet mixes linear predicates with division and remainder trees
// over a small variable pool, so ties between symmetric variables and the
// raw-tree rendering are pinned too.
func randomMixedSet(r *rand.Rand) []expr.Pred {
	vars := make([]expr.Var, 2+r.Intn(6))
	for i := range vars {
		vars[i] = expr.Var(r.Intn(50))
	}
	rels := []expr.Rel{expr.EQ, expr.NE, expr.LT, expr.LE, expr.GT, expr.GE}
	v := func() *expr.Expr { return expr.VarRef(vars[r.Intn(len(vars))]) }
	preds := make([]expr.Pred, 1+r.Intn(30))
	for i := range preds {
		rel := rels[r.Intn(len(rels))]
		switch r.Intn(6) {
		case 0, 1, 2, 3:
			e := expr.Const(int64(r.Intn(41) - 20))
			for j := 0; j < 1+r.Intn(4); j++ {
				e = expr.Add(e, expr.Mul(expr.Const(int64(r.Intn(9)-4)), v()))
			}
			preds[i] = expr.Pred{E: e, Rel: rel}
		case 4:
			preds[i] = expr.Pred{E: expr.Add(expr.Div(v(), expr.Const(int64(2+r.Intn(5)))), expr.Mul(v(), v())), Rel: rel}
		default:
			preds[i] = expr.Pred{E: expr.Sub(expr.Mod(v(), expr.Const(int64(2+r.Intn(5)))), expr.Neg(v())), Rel: rel}
		}
	}
	return preds
}

// encodePred writes "rel tree" with the tree in prefix notation: c<k> for a
// constant, x<v> for a variable, n for negation, the operator symbol for a
// binary node. The encoding is exact: decodePred rebuilds the same tree
// without constant folding.
func encodePred(p expr.Pred) string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(int(p.Rel)))
	var walk func(e *expr.Expr)
	walk = func(e *expr.Expr) {
		b.WriteByte(' ')
		switch e.Op {
		case expr.OpConst:
			b.WriteString("c" + strconv.FormatInt(e.K, 10))
		case expr.OpVar:
			b.WriteString("x" + strconv.Itoa(int(e.V)))
		case expr.OpNeg:
			b.WriteString("n")
			walk(e.L)
		default:
			b.WriteString(e.Op.String())
			walk(e.L)
			walk(e.R)
		}
	}
	walk(p.E)
	return b.String()
}

func decodePred(s string) (expr.Pred, error) {
	toks := strings.Fields(s)
	if len(toks) < 2 {
		return expr.Pred{}, fmt.Errorf("short predicate %q", s)
	}
	rel, err := strconv.Atoi(toks[0])
	if err != nil {
		return expr.Pred{}, err
	}
	toks = toks[1:]
	var parse func() (*expr.Expr, error)
	parse = func() (*expr.Expr, error) {
		if len(toks) == 0 {
			return nil, fmt.Errorf("truncated tree in %q", s)
		}
		tok := toks[0]
		toks = toks[1:]
		switch tok[0] {
		case 'c':
			k, err := strconv.ParseInt(tok[1:], 10, 64)
			return &expr.Expr{Op: expr.OpConst, K: k}, err
		case 'x':
			v, err := strconv.Atoi(tok[1:])
			return &expr.Expr{Op: expr.OpVar, V: expr.Var(v)}, err
		case 'n':
			l, err := parse()
			return &expr.Expr{Op: expr.OpNeg, L: l}, err
		}
		ops := map[string]expr.Op{"+": expr.OpAdd, "-": expr.OpSub, "*": expr.OpMul, "/": expr.OpDiv, "%": expr.OpMod}
		op, ok := ops[tok]
		if !ok {
			return nil, fmt.Errorf("bad token %q in %q", tok, s)
		}
		l, err := parse()
		if err != nil {
			return nil, err
		}
		r, err := parse()
		return &expr.Expr{Op: op, L: l, R: r}, err
	}
	e, err := parse()
	if err == nil && len(toks) > 0 {
		err = fmt.Errorf("trailing tokens in %q", s)
	}
	return expr.Pred{E: e, Rel: expr.Rel(rel)}, err
}
