// Package solver solves conjunctions of integer constraints over bounded
// domains. It replaces the Yices SMT solver that COMPI/CREST use.
//
// The concolic runtime only produces constraints that are linear except where
// the target program used division or remainder (CREST concretizes most such
// operations, and so does our runtime, but divisions by constants are kept
// symbolic because the paper's own Figure 1 example negates "x/2 + y <= 200").
// The solver therefore combines:
//
//   - interval (bounds) propagation for linear constraints,
//   - backtracking search with previous-value preference, and
//   - candidate enumeration for the residual nonlinear constraints.
//
// It also reproduces the *incremental solving property* of §III-C: only the
// constraints transitively sharing variables with the negated (last)
// constraint are re-solved; every other variable keeps its previous value.
// Callers can therefore distinguish "most up-to-date" values from stale ones,
// which is exactly what COMPI's conflict resolution relies on.
package solver

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/expr"
)

// Options configures a solving attempt.
type Options struct {
	// Lo and Hi bound every variable's domain. The zero value selects
	// [-DefaultBound, DefaultBound].
	Lo, Hi int64
	// MaxNodes bounds the number of search-tree nodes explored before the
	// solver reports "unsatisfiable (budget)". Zero selects DefaultMaxNodes.
	MaxNodes int
	// Seed seeds the random value sampler so campaigns are reproducible.
	Seed int64
}

// Defaults for Options.
const (
	DefaultBound    = int64(1) << 31
	DefaultMaxNodes = 50000
)

func (o Options) normalized() Options {
	if o.Lo == 0 && o.Hi == 0 {
		o.Lo, o.Hi = -DefaultBound, DefaultBound
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = DefaultMaxNodes
	}
	return o
}

// Result is a satisfying assignment. Changed records the variables whose
// value differs from the previous assignment (or that had no previous value);
// per the incremental solving property these are the "most up-to-date" ones.
type Result struct {
	Values  map[expr.Var]int64
	Changed map[expr.Var]bool

	// Proven is meaningful only on an unsatisfiable return (ok=false): true
	// means the conjunction was *refuted* — a constant-false predicate, or
	// bounds propagation emptying a variable's domain — rather than merely
	// exhausting the search budget. Refutation is independent of previous
	// values, seed and budget.
	Proven bool
}

// Solve finds an assignment satisfying every predicate in preds, preferring
// values from prev. It returns ok=false if the conjunction is unsatisfiable
// or the search budget is exhausted.
func Solve(preds []expr.Pred, prev map[expr.Var]int64, opt Options) (Result, bool) {
	opt = opt.normalized()
	p := newProblem(preds, compileAll(preds), prev, opt)
	vals, ok, proven := p.solve()
	if !ok {
		return Result{Proven: proven}, false
	}
	return makeResult(vals, prev), true
}

// SolveIncremental solves preds assuming the LAST predicate is the freshly
// negated constraint. Only the subset of predicates transitively connected to
// it through shared variables is re-solved; all other variables keep their
// previous values (which satisfied those constraints in the prior execution).
func SolveIncremental(preds []expr.Pred, prev map[expr.Var]int64, opt Options) (Result, bool) {
	opt = opt.normalized()
	if len(preds) == 0 {
		vals := make(map[expr.Var]int64, len(prev))
		for v, x := range prev {
			vals[v] = x
		}
		return makeResult(vals, prev), true
	}
	sub := incrementalSubset(preds)
	p := newProblem(sub, compileAll(sub), prev, opt)
	vals, ok, proven := p.solve()
	if !ok {
		return Result{Proven: proven}, false
	}
	return carryStale(vals, prev), true
}

// incrementalSubset extracts the predicates transitively connected to the
// last (freshly negated) one — the partition SolveIncremental re-solves.
func incrementalSubset(preds []expr.Pred) []expr.Pred {
	dep := dependentSet(preds, len(preds)-1)
	sub := make([]expr.Pred, 0, len(dep))
	for _, i := range dep {
		sub = append(sub, preds[i])
	}
	return sub
}

// carryStale completes a partition solution with the previous values of
// every variable outside the re-solved partition, then derives Changed.
func carryStale(vals, prev map[expr.Var]int64) Result {
	for v, x := range prev {
		if _, done := vals[v]; !done {
			vals[v] = x
		}
	}
	return makeResult(vals, prev)
}

func makeResult(vals, prev map[expr.Var]int64) Result {
	changed := map[expr.Var]bool{}
	for v, x := range vals {
		if old, ok := prev[v]; !ok || old != x {
			changed[v] = true
		}
	}
	return Result{Values: vals, Changed: changed}
}

// denseVars bounds the variable numbers dependentSet looks up in a table.
// conc.VarSpace numbers a campaign's variables densely from 0, so real
// numbers stay far below it; any other (a corrupt log from a piped target,
// say) goes to a map.
const denseVars = 1 << 16

// dependentSet returns the indices of predicates transitively sharing
// variables with preds[seed], in their original order: a union-find joins
// every predicate with the first one that shares a variable with it, and
// the partition is the seed's component. The first predicate using each
// variable is kept in a table indexed by variable number.
func dependentSet(preds []expr.Pred, seed int) []int {
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
	var first []int32           // variable → 1 + first predicate using it; 0 while unused
	var sparse map[expr.Var]int // the same for variables outside [0, denseVars)
	var vs []expr.Var
	for i, p := range preds {
		vs = appendVars(vs[:0], p.E)
		for _, v := range vs {
			if v < 0 || v >= denseVars {
				if j, ok := sparse[v]; ok {
					parent[find(i)] = find(j)
				} else {
					if sparse == nil {
						sparse = map[expr.Var]int{}
					}
					sparse[v] = i
				}
				continue
			}
			if int(v) >= len(first) {
				first = append(first, make([]int32, max(int(v)+1, 2*len(first), 64)-len(first))...)
			}
			if j := first[v]; j != 0 {
				parent[find(i)] = find(int(j - 1))
			} else {
				first[v] = int32(i + 1)
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

// appendVars appends the variables occurring in e, repeats included.
func appendVars(vs []expr.Var, e *expr.Expr) []expr.Var {
	switch e.Op {
	case expr.OpConst:
	case expr.OpVar:
		vs = append(vs, e.V)
	case expr.OpNeg:
		vs = appendVars(vs, e.L)
	default:
		vs = appendVars(appendVars(vs, e.L), e.R)
	}
	return vs
}

// iv is a closed integer interval.
type iv struct{ lo, hi int64 }

func (a iv) empty() bool { return a.lo > a.hi }

// form is a predicate tree's solver form: its linear form, when it has one,
// and its variables in ascending order. It depends only on the tree, so a
// predicate and its negation share one form. Forms are read-only once built.
type form struct {
	lin   expr.Linear
	isLin bool
	vars  []expr.Var
}

// compile builds the solver form of e.
func compile(e *expr.Expr) *form {
	f := &form{}
	f.lin, f.isLin = e.AsLinear()
	f.vars = appendVars(nil, e)
	slices.Sort(f.vars)
	f.vars = slices.Compact(f.vars)
	return f
}

// compileAll compiles every predicate's tree afresh.
func compileAll(preds []expr.Pred) []*form {
	forms := make([]*form, len(preds))
	for i, p := range preds {
		forms[i] = compile(p.E)
	}
	return forms
}

// constraint is a predicate with its solver form.
type constraint struct {
	pred expr.Pred
	*form
}

type problem struct {
	cons  []constraint
	vars  []expr.Var
	dom   map[expr.Var]iv
	prev  map[expr.Var]int64
	seed  int64
	rng   *rand.Rand // seeded on first use: refutations never draw
	nodes int
	max   int
}

// newProblem builds the problem over preds, forms[i] being preds[i]'s form.
func newProblem(preds []expr.Pred, forms []*form, prev map[expr.Var]int64, opt Options) *problem {
	p := &problem{
		cons: make([]constraint, len(preds)),
		dom:  map[expr.Var]iv{},
		prev: prev,
		seed: opt.Seed,
		max:  opt.MaxNodes,
	}
	for i, pr := range preds {
		p.cons[i] = constraint{pred: pr, form: forms[i]}
		for _, v := range forms[i].vars {
			if _, ok := p.dom[v]; !ok {
				p.dom[v] = iv{opt.Lo, opt.Hi}
				p.vars = append(p.vars, v)
			}
		}
	}
	slices.Sort(p.vars)
	return p
}

// solve runs propagation then backtracking search. provenUnsat is true only
// when the conjunction is *refuted* — a constant-false predicate or root
// bounds propagation emptying a domain — which, unlike a failed search (an
// incomplete enumeration under a node budget), holds for every choice of
// previous values, seed and budget.
func (p *problem) solve() (vals map[expr.Var]int64, ok, provenUnsat bool) {
	// Trivially reject constant-false predicates.
	for _, c := range p.cons {
		if k, ok := c.pred.E.IsConst(); ok {
			if !c.pred.Rel.Holds(k) {
				return nil, false, true
			}
		}
	}
	// Nothing reads p.dom after solve, so propagation and search narrow it
	// in place; search copies it only per candidate.
	if !p.propagate(p.dom) {
		return nil, false, true
	}
	asg := map[expr.Var]int64{}
	if !p.search(p.dom, asg) {
		return nil, false, false
	}
	return asg, true, false
}

func copyDom(d map[expr.Var]iv) map[expr.Var]iv {
	out := make(map[expr.Var]iv, len(d))
	for v, x := range d {
		out[v] = x
	}
	return out
}

// satMul multiplies with saturation so interval arithmetic cannot overflow.
func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	c := a * b
	if a != c/b || (a == -1 && b == math.MinInt64) || (b == -1 && a == math.MinInt64) {
		if (a > 0) == (b > 0) {
			return math.MaxInt64 / 4
		}
		return math.MinInt64 / 4
	}
	// Keep headroom for sums.
	if c > math.MaxInt64/4 {
		return math.MaxInt64 / 4
	}
	if c < math.MinInt64/4 {
		return math.MinInt64 / 4
	}
	return c
}

func satAdd(a, b int64) int64 {
	c := a + b
	if a > 0 && b > 0 && c < 0 {
		return math.MaxInt64 / 2
	}
	if a < 0 && b < 0 && c >= 0 {
		return math.MinInt64 / 2
	}
	return c
}

// termBounds returns the min and max of c·x over x in d.
func termBounds(c int64, d iv) (int64, int64) {
	a, b := satMul(c, d.lo), satMul(c, d.hi)
	if a > b {
		a, b = b, a
	}
	return a, b
}

// propagate narrows dom to bounds consistency over the linear constraints.
// It returns false when some domain becomes empty (conjunction unsat).
func (p *problem) propagate(dom map[expr.Var]iv) bool {
	const maxRounds = 64
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, c := range p.cons {
			if !c.isLin {
				continue
			}
			ch, ok := p.tighten(c, dom)
			if !ok {
				return false
			}
			changed = changed || ch
		}
		if !changed {
			return true
		}
	}
	return true
}

// tighten applies bounds propagation for one linear constraint. A predicate
// "K + Σ c_i·x_i REL 0" is decomposed into at most two inequalities
// "Σ c_i·x_i ≤ B" and/or "Σ c_i·x_i ≥ B'".
func (p *problem) tighten(c constraint, dom map[expr.Var]iv) (changed, ok bool) {
	k := c.lin.K
	type bound struct {
		b     int64
		upper bool // Σ ≤ b when true, Σ ≥ b when false
	}
	var bounds []bound
	switch c.pred.Rel {
	case expr.LE:
		bounds = []bound{{-k, true}}
	case expr.LT:
		bounds = []bound{{-k - 1, true}}
	case expr.GE:
		bounds = []bound{{-k, false}}
	case expr.GT:
		bounds = []bound{{-k + 1, false}}
	case expr.EQ:
		bounds = []bound{{-k, true}, {-k, false}}
	case expr.NE:
		// Only a point domain can be pruned; handled in search.
		return false, true
	}
	for _, bd := range bounds {
		ch, alive := p.tightenOne(c, dom, bd.b, bd.upper)
		if !alive {
			return false, false
		}
		changed = changed || ch
	}
	return changed, true
}

func (p *problem) tightenOne(c constraint, dom map[expr.Var]iv, b int64, upper bool) (changed, ok bool) {
	// For upper (Σ ≤ b): x_j ≤ (b - minOther)/c_j when c_j>0, ≥ ceil when c_j<0.
	// For lower (Σ ≥ b): symmetric with maxOther.
	for _, v := range c.vars {
		cj := c.lin.Terms[v]
		if cj == 0 {
			continue
		}
		rest := int64(0)
		for _, u := range c.vars {
			if u == v {
				continue
			}
			cu := c.lin.Terms[u]
			if cu == 0 {
				continue
			}
			mn, mx := termBounds(cu, dom[u])
			if upper {
				rest = satAdd(rest, mn)
			} else {
				rest = satAdd(rest, mx)
			}
		}
		d := dom[v]
		slack := satAdd(b, -rest)
		if upper {
			if cj > 0 {
				hi := floorDiv(slack, cj)
				if hi < d.hi {
					d.hi = hi
					changed = true
				}
			} else {
				lo := ceilDiv(slack, cj)
				if lo > d.lo {
					d.lo = lo
					changed = true
				}
			}
		} else {
			if cj > 0 {
				lo := ceilDiv(slack, cj)
				if lo > d.lo {
					d.lo = lo
					changed = true
				}
			} else {
				hi := floorDiv(slack, cj)
				if hi < d.hi {
					d.hi = hi
					changed = true
				}
			}
		}
		if d.empty() {
			return changed, false
		}
		dom[v] = d
	}
	return changed, true
}

// floorDiv and ceilDiv implement mathematical floor/ceil division for any
// sign combination (Go's / truncates toward zero).
func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) == (b < 0)) {
		q++
	}
	return q
}

// search assigns variables one at a time (smallest domain first), propagating
// after each assignment, and validates every constraint once its variables
// are fully assigned.
func (p *problem) search(dom map[expr.Var]iv, asg map[expr.Var]int64) bool {
	p.nodes++
	if p.nodes > p.max {
		return false
	}
	v, ok := p.pickVar(dom, asg)
	if !ok {
		return p.checkAll(asg)
	}
	for _, cand := range p.candidates(v, dom, asg) {
		asg[v] = cand
		nd := copyDom(dom)
		nd[v] = iv{cand, cand}
		if p.propagate(nd) && p.checkReady(asg, v) && p.search(nd, asg) {
			return true
		}
		delete(asg, v)
		if p.nodes > p.max {
			return false
		}
	}
	return false
}

// pickVar selects the unassigned variable with the smallest domain.
func (p *problem) pickVar(dom map[expr.Var]iv, asg map[expr.Var]int64) (expr.Var, bool) {
	var best expr.Var
	bestSize := int64(math.MaxInt64)
	found := false
	for _, v := range p.vars {
		if _, done := asg[v]; done {
			continue
		}
		d := dom[v]
		size := d.hi - d.lo
		if size < 0 {
			size = 0
		}
		if !found || size < bestSize {
			best, bestSize, found = v, size, true
		}
	}
	return best, found
}

// checkReady validates constraints that became fully assigned with v.
func (p *problem) checkReady(asg map[expr.Var]int64, v expr.Var) bool {
	env := func(u expr.Var) int64 { return asg[u] }
	for _, c := range p.cons {
		relevant := false
		ready := true
		for _, u := range c.vars {
			if u == v {
				relevant = true
			}
			if _, done := asg[u]; !done {
				ready = false
				break
			}
		}
		if !relevant || !ready {
			continue
		}
		hold, ok := c.pred.Eval(env)
		if !ok || !hold {
			return false
		}
	}
	return true
}

// checkAll re-validates every constraint on a complete assignment.
func (p *problem) checkAll(asg map[expr.Var]int64) bool {
	env := func(u expr.Var) int64 { return asg[u] }
	for _, c := range p.cons {
		hold, ok := c.pred.Eval(env)
		if !ok || !hold {
			return false
		}
	}
	return true
}

// candidates produces the value order for v: previous value first (stability
// is what makes incremental solving meaningful), then structurally promising
// values, then a bounded scan that covers residue classes for the nonlinear
// (division/remainder) constraints, then random probes.
func (p *problem) candidates(v expr.Var, dom map[expr.Var]iv, asg map[expr.Var]int64) []int64 {
	d := dom[v]
	var forbidden []int64 // single-variable != constraints
	for _, c := range p.cons {
		if c.pred.Rel == expr.NE && c.isLin && len(c.vars) == 1 && c.vars[0] == v {
			cj := c.lin.Terms[v]
			if cj != 0 && (-c.lin.K)%cj == 0 {
				forbidden = append(forbidden, -c.lin.K/cj)
			}
		}
	}
	seen := map[int64]struct{}{}
	var out []int64
	add := func(x int64) {
		if x < d.lo || x > d.hi {
			return
		}
		for _, f := range forbidden {
			if x == f {
				return
			}
		}
		if _, dup := seen[x]; dup {
			return
		}
		seen[x] = struct{}{}
		out = append(out, x)
	}
	if pv, ok := p.prev[v]; ok {
		add(pv)
		add(pv + 1)
		add(pv - 1)
	}
	// Small-magnitude values before the domain extremes: testing inputs are
	// overwhelmingly small, and huge boundary values tend to trip unrelated
	// guards in the program under test.
	add(0)
	add(1)
	add(2)
	add(-1)
	// Values solving linear equalities for v given current bounds of others.
	for _, c := range p.cons {
		if !c.isLin || c.pred.Rel != expr.EQ {
			continue
		}
		cj := c.lin.Terms[v]
		if cj == 0 {
			continue
		}
		rest := c.lin.K
		solvable := true
		for _, u := range c.vars {
			if u == v {
				continue
			}
			cu := c.lin.Terms[u]
			if x, done := asg[u]; done {
				rest = satAdd(rest, satMul(cu, x))
			} else if du := dom[u]; du.lo == du.hi {
				rest = satAdd(rest, satMul(cu, du.lo))
			} else {
				solvable = false
				break
			}
		}
		if solvable && rest%cj == 0 {
			add(-rest / cj)
		}
	}
	// A short consecutive scan from the low end and from zero covers every
	// residue class of small-modulus remainder constraints.
	if p.hasNonlinearOn(v) {
		for i := int64(0); i < 128; i++ {
			add(d.lo + i)
			add(i)
		}
	}
	if d.hi > d.lo {
		add(d.lo + (d.hi-d.lo)/2)
	}
	add(d.lo)
	add(d.hi)
	// Random probes.
	span := d.hi - d.lo
	if span > 0 && p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.seed))
	}
	for i := 0; i < 8 && span > 0; i++ {
		add(d.lo + p.rng.Int63n(span+1))
	}
	return out
}

func (p *problem) hasNonlinearOn(v expr.Var) bool {
	for _, c := range p.cons {
		if c.isLin {
			continue
		}
		for _, u := range c.vars {
			if u == v {
				return true
			}
		}
	}
	return false
}
