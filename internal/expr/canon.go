package expr

import (
	"bytes"
	"cmp"
	"container/heap"
	"crypto/sha256"
	"fmt"
	"slices"
	"sort"
	"strconv"
)

// This file gives predicate sets a canonical form: a deterministic
// serialization that is invariant under renaming of the symbolic variables
// and under reordering of the predicates. Sharded campaigns on one target
// repeatedly negate overlapping path prefixes, so the same conjunction
// reaches the solver again and again with shuffled predicate order and
// (across engines) freshly numbered variables; the canonical key is what
// lets a solver cache collide those requests.
//
// The construction is sound by design: the canonical string spells out the
// complete normalized predicates under the canonical variable numbering, so
// two sets share a string only when they are literally identical up to a
// variable renaming — and therefore equisatisfiable. Completeness (every
// pair of rename-equivalent sets colliding) is best-effort: variable
// numbering uses Weisfeiler-Lehman-style refinement plus a greedy minimal
// ordering, which resolves every asymmetric case; residual ties are
// genuinely symmetric and either choice serializes identically.
//
// The form is persisted (CanonVersion), and testdata/canon_golden.json pins
// it byte for byte. The implementation keeps it cheap: each predicate's
// normalization, shape and (for a single variable) refinement role are
// computed once, refinement signatures are built without fmt, and the greedy
// ordering keeps every predicate's trial rendering in a heap, re-rendering
// only the predicates that share a variable with the one just committed —
// each predicate is rendered at most once per variable it holds.

// Key is the 128-bit fingerprint of a predicate set's canonical form.
type Key [16]byte

// String renders the key as hex for logs.
func (k Key) String() string { return fmt.Sprintf("%x", k[:]) }

// CanonicalKey returns the canonical-form fingerprint of preds. Renaming
// variables or reordering predicates preserves the key; changing any
// predicate (in particular, negating one) changes it.
func CanonicalKey(preds []Pred) Key {
	return keyOf(canonicalForm(preds, nil))
}

func keyOf(canon []byte) Key {
	sum := sha256.Sum256(canon)
	var k Key
	copy(k[:], sum[:16])
	return k
}

// CanonicalString returns the canonical serialization the key hashes. It is
// exported so tests can assert invariance on the readable form; callers
// wanting a compact cache key should use CanonicalKey.
func CanonicalString(preds []Pred) string {
	return string(canonicalForm(preds, nil))
}

// canonicalForm computes the canonical serialization with a per-predicate
// normalization cache: a non-nil norms holds preds' normalized forms where
// known and receives the ones computed here (KeyMemo keeps them across
// calls, so each predicate tree is normalized once).
func canonicalForm(preds []Pred, norms []*normPred) []byte {
	c := newCanonizer(preds, norms)
	c.refineLabels()
	return c.assemble()
}

// normPred is one predicate after normalization. Linear predicates are
// rewritten to "Σ terms REL bound" with REL ∈ {≤, =, ≠} (strict and ≥-family
// relations are folded away over the integers) and coefficients divided by
// their gcd; variable-free predicates fold to true/false sentinels; anything
// else (division, remainder, overflow-risky coefficients) is kept as the
// raw tree, which is always sound. A normPred depends only on its
// predicate and is never modified after normalize, so caches share it.
type normPred struct {
	kind  byte // 'T' true, 'F' false, 'L' linear, 'X' raw tree
	rel   Rel  // 'L': LE, EQ or NE; 'X': the original relation
	bound int64
	terms []term // 'L': one per variable, ascending variable order
	tree  *Expr
	vars  []Var  // sorted occurrence set (both kinds; for 'L', the terms' variables)
	shape string // see computeShape
	role  string // see staticRole
}

// term is one linear term.
type term struct {
	v Var
	c int64
}

// safeK bounds constants and coefficients so the ±1 and negation rewrites
// below cannot overflow; predicates outside the range stay raw trees.
const safeK = int64(1) << 61

func normalize(p Pred) *normPred {
	np := normalizeForm(p)
	np.shape = np.computeShape()
	np.role = np.staticRole()
	return &np
}

func normalizeForm(p Pred) normPred {
	if p.E == nil {
		return normPred{kind: 'X', rel: p.Rel}
	}
	if k, ok := p.E.IsConst(); ok {
		return constPred(p.Rel.Holds(k))
	}
	if k, terms, linear := asLinearTerms(p.E); linear && linSafe(k, terms) {
		if np, ok := normalizeLinear(terms, k, p.Rel); ok {
			return np
		}
	}
	vs := map[Var]struct{}{}
	p.E.Vars(vs)
	return normPred{kind: 'X', rel: p.Rel, tree: p.E, vars: sortedVars(vs)}
}

// asLinearTerms is AsLinear's result as terms in ascending variable order.
func asLinearTerms(e *Expr) (int64, []term, bool) {
	lin, ok := e.AsLinear()
	terms := make([]term, 0, len(lin.Terms))
	for v, c := range lin.Terms {
		terms = append(terms, term{v: v, c: c})
	}
	slices.SortFunc(terms, func(a, b term) int { return cmp.Compare(a.v, b.v) })
	return lin.K, terms, ok
}

func constPred(holds bool) normPred {
	if holds {
		return normPred{kind: 'T'}
	}
	return normPred{kind: 'F'}
}

func linSafe(k int64, terms []term) bool {
	if k <= -safeK || k >= safeK {
		return false
	}
	for _, t := range terms {
		if t.c <= -safeK || t.c >= safeK {
			return false
		}
	}
	return true
}

// normalizeLinear rewrites "K + Σc·x REL 0" (terms in ascending variable
// order) into the canonical "Σc'·x REL' b" form. Over the integers every
// inequality folds to ≤:
//
//	Σ <  b  ≡  Σ ≤ b-1
//	Σ >  b  ≡  -Σ ≤ -b-1
//	Σ >= b  ≡  -Σ ≤ -b
//
// so "x < 6" and "x ≤ 5" collide, as do "-x ≤ -1" and "x ≥ 1". Dividing by
// the coefficient gcd then collides "2x ≤ 5" with "x ≤ 2" (floor division),
// and turns unsatisfiable equalities like "2x = 1" into the false sentinel.
func normalizeLinear(terms []term, k int64, rel Rel) (normPred, bool) {
	if len(terms) == 0 {
		return constPred(rel.Holds(k)), true
	}
	var b int64
	switch rel {
	case LE: // Σ ≤ -K
		b = -k
	case LT: // Σ ≤ -K-1
		b = -k - 1
	case GE: // -Σ ≤ K
		negateTerms(terms)
		b = k
	case GT: // -Σ ≤ K-1
		negateTerms(terms)
		b = k - 1
	case EQ, NE: // Σ = / ≠ -K
		b = -k
	default:
		return normPred{}, false
	}
	nrel := rel
	if nrel == LT || nrel == GE || nrel == GT {
		nrel = LE
	}

	g := int64(0)
	for _, t := range terms {
		g = gcd(g, t.c)
	}
	if g > 1 {
		switch nrel {
		case LE:
			b = floorDiv(b, g)
		case EQ:
			if b%g != 0 {
				return constPred(false), true
			}
			b /= g
		case NE:
			if b%g != 0 {
				return constPred(true), true
			}
			b /= g
		}
		for i := range terms {
			terms[i].c /= g
		}
	}

	vars := make([]Var, len(terms))
	for i, t := range terms {
		vars[i] = t.v
	}
	return normPred{kind: 'L', rel: nrel, bound: b, terms: terms, vars: vars}, true
}

func negateTerms(terms []term) {
	for i := range terms {
		terms[i].c = -terms[i].c
	}
}

func gcd(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func sortedVars(set map[Var]struct{}) []Var {
	vs := make([]Var, 0, len(set))
	for v := range set {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}

func abs64(c int64) int64 {
	if c < 0 {
		return -c
	}
	return c
}

// computeShape returns the variable-independent summary of a predicate:
// relation, bound, and the sorted coefficient multiset (or the tree skeleton
// with variables blanked). Equalities and disequalities are sign-symmetric, so their shape
// takes the lexicographically smaller of the two sign variants.
func (np *normPred) computeShape() string {
	switch np.kind {
	case 'T':
		return "T"
	case 'F':
		return "F"
	case 'L':
		s := linShape(np.rel, np.bound, np.terms, false)
		if np.rel == EQ || np.rel == NE {
			if alt := linShape(np.rel, np.bound, np.terms, true); alt < s {
				s = alt
			}
		}
		return s
	default:
		b := append([]byte("X"), np.rel.String()...)
		b = appendTree(b, np.tree, func(b []byte, _ Var) []byte { return append(b, '?') })
		return string(b)
	}
}

func linShape(rel Rel, bound int64, terms []term, neg bool) string {
	var small [4]int64
	cs := small[:0]
	for _, t := range terms {
		if neg {
			t.c = -t.c
		}
		cs = append(cs, t.c)
	}
	slices.Sort(cs)
	if neg {
		bound = -bound
	}
	b := append([]byte("L"), rel.String()...)
	b = append(strconv.AppendInt(append(b, ';'), bound, 10), ';')
	for _, c := range cs {
		b = append(strconv.AppendInt(b, c, 10), ',')
	}
	return string(b)
}

// appendTree serializes a raw tree with each variable rendered through name.
func appendTree(b []byte, e *Expr, name func([]byte, Var) []byte) []byte {
	if e == nil {
		return append(b, "nil"...)
	}
	switch e.Op {
	case OpConst:
		return strconv.AppendInt(b, e.K, 10)
	case OpVar:
		return name(b, e.V)
	case OpNeg:
		b = appendTree(append(b, "-("...), e.L, name)
		return append(b, ')')
	default:
		b = appendTree(append(b, '('), e.L, name)
		b = append(append(append(b, ' '), e.Op.String()...), ' ')
		b = appendTree(b, e.R, name)
		return append(b, ')')
	}
}

// canonizer is the state of one CanonicalString computation. Variables get
// dense indices in ascending Var order, so per-variable state is slices.
type canonizer struct {
	preds  []*normPred
	dvars  [][]int     // per predicate: its vars as dense indices
	index  map[Var]int // variable → dense index
	occ    [][]int     // dense index → the predicates it occurs in, ascending
	labels []int       // dense index → refinement label
	num    []int       // dense index → canonical number, -1 while unnumbered

	// Rendering state: next is the next free canonical number; slot and
	// slotted give the unnumbered variables their per-rendering slots;
	// fresh collects the variables a committing render numbered.
	next    int
	slot    []int
	slotted []int
	fresh   []int

	// Scratch: sorted terms, refinement strings, and the two sign variants
	// of an equality's rendering.
	ts  []dterm
	buf []byte
	alt [2][]byte
}

// dterm is a linear term over a dense variable index.
type dterm struct {
	d int
	c int64
}

func newCanonizer(preds []Pred, norms []*normPred) *canonizer {
	c := &canonizer{preds: make([]*normPred, len(preds)), dvars: make([][]int, len(preds))}
	var vars []Var
	for i, p := range preds {
		if norms != nil && norms[i] != nil {
			c.preds[i] = norms[i]
		} else {
			c.preds[i] = normalize(p)
		}
		vars = append(vars, c.preds[i].vars...)
	}
	if norms != nil {
		copy(norms, c.preds)
	}
	occurrences := len(vars)
	slices.Sort(vars)
	vars = slices.Compact(vars)
	c.index = make(map[Var]int, len(vars))
	for d, v := range vars {
		c.index[v] = d
	}
	// One backing array holds every predicate's dense variables.
	flat := make([]int, 0, occurrences)
	c.occ = make([][]int, len(vars))
	for i, np := range c.preds {
		for _, v := range np.vars {
			d := c.index[v]
			flat = append(flat, d)
			c.occ[d] = append(c.occ[d], i)
		}
		c.dvars[i] = flat[len(flat)-len(np.vars) : len(flat) : len(flat)]
	}
	state := make([]int, 3*len(vars))
	c.labels, c.num, c.slot = state[:len(vars)], state[len(vars):2*len(vars)], state[2*len(vars):]
	for d := range c.num {
		c.num[d] = -1
	}
	return c
}

// staticRole is the refinement role of a single-variable predicate's
// variable (see addRoles), which no label can change; "" otherwise.
func (np *normPred) staticRole() string {
	if len(np.vars) != 1 {
		return ""
	}
	b := append([]byte(np.shape), ';')
	if np.kind == 'L' {
		b = append(strconv.AppendInt(append(b, "me="...), abs64(np.terms[0].c), 10), ';')
	} else {
		b = appendTree(b, np.tree, func(b []byte, _ Var) []byte { return append(b, '*') })
	}
	return string(b)
}

// refineLabels runs Weisfeiler-Lehman-style refinement over the variables:
// each round relabels every variable by (its current label, the sorted
// multiset of its roles across the predicates it occurs in, where a role
// records the predicate's shape, the variable's own coefficient or tree
// positions, and the labels of its co-occurring variables). Refinement is
// monotone, so it stabilizes; variables left with equal labels are
// symmetric as far as the predicate structure can tell. A label is the rank
// of the variable's signature string among the round's distinct signatures.
func (c *canonizer) refineLabels() {
	nv := len(c.occ)
	distinct := 1
	rounds := min(nv, 8)
	roles := make([][]string, nv)
	sigs := make([]string, nv)
	for round := 0; round < rounds; round++ {
		for d := range roles {
			roles[d] = roles[d][:0]
		}
		for i := range c.preds {
			c.addRoles(i, roles)
		}
		for d, rs := range roles {
			sort.Strings(rs)
			b := strconv.AppendInt(c.buf[:0], int64(c.labels[d]), 10)
			b = append(b, '|')
			for k, r := range rs {
				if k > 0 {
					b = append(b, '|')
				}
				b = append(b, r...)
			}
			c.buf = b
			sigs[d] = string(b)
		}
		uniq := append([]string(nil), sigs...)
		sort.Strings(uniq)
		uniq = slices.Compact(uniq)
		for d, s := range sigs {
			c.labels[d] = sort.SearchStrings(uniq, s)
		}
		if len(uniq) == distinct {
			break
		}
		distinct = len(uniq)
	}
}

// addRoles appends each of np's variables' role in np under the current
// labels: the shape, then for a linear predicate ";me=|c|;" and the sorted
// "|c|:label" entries of the other terms joined by ",", or for a tree ";"
// and the tree with the variable itself as "*" and the others as
// "l<label>".
func (c *canonizer) addRoles(i int, roles [][]string) {
	np, dvars := c.preds[i], c.dvars[i]
	switch {
	case np.role != "":
		roles[dvars[0]] = append(roles[dvars[0]], np.role)
	case np.kind == 'L':
		others := make([]string, len(np.terms))
		for k, t := range np.terms {
			b := strconv.AppendInt(c.buf[:0], abs64(t.c), 10)
			b = strconv.AppendInt(append(b, ':'), int64(c.labels[dvars[k]]), 10)
			c.buf = b
			others[k] = string(b)
		}
		sorted := slices.Clone(others)
		sort.Strings(sorted)
		for k, t := range np.terms {
			b := append(c.buf[:0], np.shape...)
			b = append(strconv.AppendInt(append(b, ";me="...), abs64(t.c), 10), ';')
			// Every entry but one copy of the variable's own: equal entries
			// are interchangeable, so which copy is dropped does not matter.
			skipped, first := false, true
			for _, o := range sorted {
				if !skipped && o == others[k] {
					skipped = true
					continue
				}
				if !first {
					b = append(b, ',')
				}
				b, first = append(b, o...), false
			}
			c.buf = b
			roles[dvars[k]] = append(roles[dvars[k]], string(b))
		}
	case np.kind == 'X':
		for _, d := range dvars {
			b := append(append(c.buf[:0], np.shape...), ';')
			b = appendTree(b, np.tree, func(b []byte, u Var) []byte {
				if du := c.index[u]; du != d {
					return strconv.AppendInt(append(b, 'l'), int64(c.labels[du]), 10)
				}
				return append(b, '*')
			})
			c.buf = b
			roles[d] = append(roles[d], string(b))
		}
	}
}

// assemble picks the canonical predicate order and variable numbering:
// repeatedly choose the remaining predicate with the lexicographically
// smallest rendering (numbered variables as "v<n>", unnumbered ones as
// "u<label>#<occurrence>"; ties go to the earliest predicate), and commit
// numbers to its unnumbered variables in rendering order. Both the trial
// renderings and the choice depend only on rename-invariant data, so the
// final string does too.
//
// A rendering changes only when one of the predicate's own variables gets
// numbered, so the trial renderings live in a heap and a commit re-renders
// just the predicates sharing a freshly numbered variable.
func (c *canonizer) assemble() []byte {
	h := &renderHeap{
		render: make([][]byte, len(c.preds)),
		pos:    make([]int, len(c.preds)),
		items:  make([]int, len(c.preds)),
	}
	// The first renderings share one arena; each is capped at its own
	// length, so re-rendering into it reallocates rather than overwriting
	// its neighbor.
	var arena []byte
	for i := range c.preds {
		start := len(arena)
		arena = c.render(arena, i, false)
		h.render[i] = arena[start:len(arena):len(arena)]
		h.items[i], h.pos[i] = i, i
	}
	heap.Init(h)
	var out []byte
	for h.Len() > 0 {
		i := heap.Pop(h).(int)
		h.pos[i] = -1
		if len(out) > 0 {
			out = append(out, " & "...)
		}
		if !c.hasUnnumbered(i) {
			out = append(out, h.render[i]...) // nothing left to commit
			continue
		}
		c.fresh = c.fresh[:0]
		out = c.render(out, i, true)
		for _, d := range c.fresh {
			for _, j := range c.occ[d] {
				if h.pos[j] >= 0 {
					h.render[j] = c.render(h.render[j][:0], j, false)
					heap.Fix(h, h.pos[j])
				}
			}
		}
	}
	return out
}

func (c *canonizer) hasUnnumbered(i int) bool {
	for _, d := range c.dvars[i] {
		if c.num[d] < 0 {
			return true
		}
	}
	return false
}

// render appends predicate i serialized under the partial numbering. With
// commit, unnumbered variables are committed to fresh numbers (in rendering
// order, recorded in c.fresh) instead of rendered as placeholders.
// Equalities and disequalities render in whichever sign variant is smaller.
func (c *canonizer) render(b []byte, i int, commit bool) []byte {
	np := c.preds[i]
	switch np.kind {
	case 'T', 'F':
		return append(b, np.kind)
	case 'L':
		neg := false
		if np.rel == EQ || np.rel == NE {
			c.alt[0] = c.renderLinear(c.alt[0][:0], i, false, false)
			c.alt[1] = c.renderLinear(c.alt[1][:0], i, true, false)
			neg = bytes.Compare(c.alt[1], c.alt[0]) < 0
			if !commit && neg {
				return append(b, c.alt[1]...)
			}
			if !commit {
				return append(b, c.alt[0]...)
			}
		}
		return c.renderLinear(b, i, neg, commit)
	default:
		b = appendTree(b, np.tree, func(b []byte, v Var) []byte {
			return c.appendVar(b, c.index[v], commit)
		})
		c.clearSlots()
		return append(append(append(b, ' '), np.rel.String()...), " 0"...)
	}
}

func (c *canonizer) renderLinear(b []byte, i int, neg, commit bool) []byte {
	np := c.preds[i]
	ts := c.ts[:0]
	for k, t := range np.terms {
		if neg {
			t.c = -t.c
		}
		ts = append(ts, dterm{d: c.dvars[i][k], c: t.c})
	}
	// Numbered variables first (by number), then unnumbered by (label,
	// coefficient). Fully tied unnumbered terms are symmetric: either order
	// renders identically.
	slices.SortStableFunc(ts, func(x, y dterm) int {
		nx, ny := c.num[x.d], c.num[y.d]
		switch {
		case nx >= 0 && ny >= 0:
			return cmp.Compare(nx, ny)
		case nx >= 0:
			return -1
		case ny >= 0:
			return 1
		}
		if l := cmp.Compare(c.labels[x.d], c.labels[y.d]); l != 0 {
			return l
		}
		return cmp.Compare(x.c, y.c)
	})
	c.ts = ts
	for _, t := range ts {
		if t.c >= 0 {
			b = append(b, '+')
		}
		b = c.appendVar(append(strconv.AppendInt(b, t.c, 10), '*'), t.d, commit)
	}
	c.clearSlots()
	bound := np.bound
	if neg {
		bound = -bound
	}
	b = append(append(append(b, ' '), np.rel.String()...), ' ')
	return strconv.AppendInt(b, bound, 10)
}

// appendVar renders variable d under the partial numbering: a numbered
// variable as "v<n>"; with commit, an unnumbered one is numbered now;
// otherwise it shows its refinement label plus a per-variable slot within
// this rendering (repeated occurrences of one variable share a slot, so
// "x*x" and "x*y" render differently).
func (c *canonizer) appendVar(b []byte, d int, commit bool) []byte {
	if c.num[d] < 0 && commit {
		c.num[d] = c.next
		c.next++
		c.fresh = append(c.fresh, d)
	}
	if n := c.num[d]; n >= 0 {
		return strconv.AppendInt(append(b, 'v'), int64(n), 10)
	}
	if c.slot[d] == 0 {
		c.slotted = append(c.slotted, d)
		c.slot[d] = len(c.slotted)
	}
	b = strconv.AppendInt(append(b, 'u'), int64(c.labels[d]), 10)
	return strconv.AppendInt(append(b, '#'), int64(c.slot[d]), 10)
}

// clearSlots ends a rendering's slot assignment.
func (c *canonizer) clearSlots() {
	for _, d := range c.slotted {
		c.slot[d] = 0
	}
	c.slotted = c.slotted[:0]
}

// renderHeap orders the uncommitted predicates by (trial rendering, index)
// for container/heap, tracking each predicate's position for re-rendering
// (-1 once popped).
type renderHeap struct {
	render [][]byte
	pos    []int
	items  []int
}

func (h *renderHeap) Len() int { return len(h.items) }

func (h *renderHeap) Less(a, b int) bool {
	i, j := h.items[a], h.items[b]
	if c := bytes.Compare(h.render[i], h.render[j]); c != 0 {
		return c < 0
	}
	return i < j
}

func (h *renderHeap) Swap(a, b int) {
	h.items[a], h.items[b] = h.items[b], h.items[a]
	h.pos[h.items[a]], h.pos[h.items[b]] = a, b
}

func (h *renderHeap) Push(x any) {
	h.pos[x.(int)] = len(h.items)
	h.items = append(h.items, x.(int))
}

func (h *renderHeap) Pop() any {
	i := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	return i
}
