// Package expr provides the symbolic expression representation used by the
// concolic execution runtime and the constraint solver.
//
// Expressions are trees over 64-bit signed integers. The concolic runtime
// keeps expressions linear whenever it can (nonlinear operations are
// concretized at the point they occur, which is the defining trade-off of
// concolic execution), but the representation itself is general so that the
// solver can still evaluate candidate assignments against arbitrary trees.
package expr

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Var identifies a symbolic variable. Variable IDs are allocated by the
// concolic runtime; the zero value is a valid variable.
type Var int32

// Op enumerates expression node kinds.
type Op uint8

// Expression node kinds.
const (
	OpConst Op = iota // integer literal
	OpVar             // symbolic variable reference
	OpAdd             // L + R
	OpSub             // L - R
	OpMul             // L * R
	OpDiv             // L / R (Go truncated division)
	OpMod             // L % R (Go remainder)
	OpNeg             // -L
)

func (o Op) String() string {
	switch o {
	case OpConst:
		return "const"
	case OpVar:
		return "var"
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpNeg:
		return "neg"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Expr is an immutable symbolic expression tree. Nodes must be constructed
// through the constructor functions below, which perform constant folding;
// callers must not mutate an Expr after construction.
type Expr struct {
	Op   Op
	K    int64 // literal value when Op == OpConst
	V    Var   // variable when Op == OpVar
	L, R *Expr // operands (R nil for OpNeg)
}

// Const returns a literal expression.
func Const(k int64) *Expr { return &Expr{Op: OpConst, K: k} }

// VarRef returns a reference to symbolic variable v.
func VarRef(v Var) *Expr { return &Expr{Op: OpVar, V: v} }

// IsConst reports whether e is a literal, and its value if so.
func (e *Expr) IsConst() (int64, bool) {
	if e != nil && e.Op == OpConst {
		return e.K, true
	}
	return 0, false
}

func binop(op Op, l, r *Expr) *Expr {
	if lk, ok := l.IsConst(); ok {
		if rk, ok := r.IsConst(); ok {
			if v, ok := foldConst(op, lk, rk); ok {
				return Const(v)
			}
		}
	}
	return &Expr{Op: op, L: l, R: r}
}

func foldConst(op Op, a, b int64) (int64, bool) {
	switch op {
	case OpAdd:
		return a + b, true
	case OpSub:
		return a - b, true
	case OpMul:
		return a * b, true
	case OpDiv:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case OpMod:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	}
	return 0, false
}

// Add returns l + r.
func Add(l, r *Expr) *Expr { return binop(OpAdd, l, r) }

// Sub returns l - r.
func Sub(l, r *Expr) *Expr { return binop(OpSub, l, r) }

// Mul returns l * r.
func Mul(l, r *Expr) *Expr { return binop(OpMul, l, r) }

// Div returns l / r (truncated). Division by a zero literal is not folded and
// evaluates to an error at Eval time.
func Div(l, r *Expr) *Expr { return binop(OpDiv, l, r) }

// Mod returns l % r.
func Mod(l, r *Expr) *Expr { return binop(OpMod, l, r) }

// Neg returns -l.
func Neg(l *Expr) *Expr {
	if k, ok := l.IsConst(); ok {
		return Const(-k)
	}
	return &Expr{Op: OpNeg, L: l}
}

// Env supplies concrete values for variables during evaluation.
type Env func(Var) int64

// Eval evaluates e under env. The boolean result is false when evaluation is
// undefined (division or remainder by zero), in which case the candidate
// assignment cannot satisfy any predicate over e.
func (e *Expr) Eval(env Env) (int64, bool) {
	switch e.Op {
	case OpConst:
		return e.K, true
	case OpVar:
		return env(e.V), true
	case OpNeg:
		v, ok := e.L.Eval(env)
		return -v, ok
	}
	l, ok := e.L.Eval(env)
	if !ok {
		return 0, false
	}
	r, ok := e.R.Eval(env)
	if !ok {
		return 0, false
	}
	return foldConst(e.Op, l, r)
}

// Vars appends the variables occurring in e to set (a map used as a set).
func (e *Expr) Vars(set map[Var]struct{}) {
	switch e.Op {
	case OpConst:
	case OpVar:
		set[e.V] = struct{}{}
	case OpNeg:
		e.L.Vars(set)
	default:
		e.L.Vars(set)
		e.R.Vars(set)
	}
}

// HasVar reports whether v occurs in e.
func (e *Expr) HasVar(v Var) bool {
	switch e.Op {
	case OpConst:
		return false
	case OpVar:
		return e.V == v
	case OpNeg:
		return e.L.HasVar(v)
	default:
		return e.L.HasVar(v) || e.R.HasVar(v)
	}
}

// String renders e for logs and debugging.
func (e *Expr) String() string {
	if e == nil {
		return "<nil>"
	}
	return string(e.Append(nil))
}

// Append appends the String rendering of e to b.
func (e *Expr) Append(b []byte) []byte {
	switch e.Op {
	case OpConst:
		return strconv.AppendInt(b, e.K, 10)
	case OpVar:
		return strconv.AppendInt(append(b, 'x'), int64(e.V), 10)
	case OpNeg:
		return append(e.L.Append(append(b, "-("...)), ')')
	default:
		b = append(e.L.Append(append(b, '(')), ' ')
		b = append(append(b, e.Op.String()...), ' ')
		return append(e.R.Append(b), ')')
	}
}

// Linear is the canonical linear form k + Σ coeff_i · var_i. Terms with zero
// coefficients are never stored.
type Linear struct {
	K     int64
	Terms map[Var]int64
}

// NewLinear returns the linear form of the constant k.
func NewLinear(k int64) Linear { return Linear{K: k, Terms: map[Var]int64{}} }

// Clone returns an independent copy of l.
func (l Linear) Clone() Linear {
	out := Linear{K: l.K, Terms: make(map[Var]int64, len(l.Terms))}
	for v, c := range l.Terms {
		out.Terms[v] = c
	}
	return out
}

// AddTerm adds c·v to l in place, dropping the term if it cancels.
func (l *Linear) AddTerm(v Var, c int64) {
	if c == 0 {
		return
	}
	n := l.Terms[v] + c
	if n == 0 {
		delete(l.Terms, v)
	} else {
		l.Terms[v] = n
	}
}

// IsConst reports whether l has no variable terms.
func (l Linear) IsConst() bool { return len(l.Terms) == 0 }

// Eval evaluates l under env.
func (l Linear) Eval(env Env) int64 {
	s := l.K
	for v, c := range l.Terms {
		s += c * env(v)
	}
	return s
}

// SortedVars returns the variables of l in ascending order, for deterministic
// iteration.
func (l Linear) SortedVars() []Var {
	vs := make([]Var, 0, len(l.Terms))
	for v := range l.Terms {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}

// String renders l deterministically.
func (l Linear) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d", l.K)
	for _, v := range l.SortedVars() {
		c := l.Terms[v]
		if c >= 0 {
			fmt.Fprintf(&b, " + %d*x%d", c, v)
		} else {
			fmt.Fprintf(&b, " - %d*x%d", -c, v)
		}
	}
	return b.String()
}

// AsLinear extracts the linear form of e. It succeeds for trees built from
// constants, variables, +, -, unary negation, and multiplication where at
// least one factor folds to a constant. Division and remainder nodes are not
// linear (the concolic runtime concretizes them before they reach here in the
// common path, but the solver tolerates them via Eval).
func (e *Expr) AsLinear() (Linear, bool) {
	switch e.Op {
	case OpConst:
		return NewLinear(e.K), true
	case OpVar:
		l := NewLinear(0)
		l.AddTerm(e.V, 1)
		return l, true
	case OpNeg:
		l, ok := e.L.AsLinear()
		if !ok {
			return Linear{}, false
		}
		return l.Scale(-1), true
	case OpAdd, OpSub:
		ll, ok := e.L.AsLinear()
		if !ok {
			return Linear{}, false
		}
		rl, ok := e.R.AsLinear()
		if !ok {
			return Linear{}, false
		}
		if e.Op == OpSub {
			rl = rl.Scale(-1)
		}
		out := ll.Clone()
		out.K += rl.K
		for v, c := range rl.Terms {
			out.AddTerm(v, c)
		}
		return out, true
	case OpMul:
		if k, ok := e.L.IsConst(); ok {
			rl, ok := e.R.AsLinear()
			if !ok {
				return Linear{}, false
			}
			return rl.Scale(k), true
		}
		if k, ok := e.R.IsConst(); ok {
			ll, ok := e.L.AsLinear()
			if !ok {
				return Linear{}, false
			}
			return ll.Scale(k), true
		}
		return Linear{}, false
	default:
		return Linear{}, false
	}
}

// Scale returns l multiplied by k.
func (l Linear) Scale(k int64) Linear {
	out := NewLinear(l.K * k)
	if k == 0 {
		return out
	}
	for v, c := range l.Terms {
		out.Terms[v] = c * k
	}
	return out
}

// Equal reports structural equality of two expressions.
func Equal(a, b *Expr) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Op != b.Op || a.K != b.K || a.V != b.V {
		return false
	}
	switch a.Op {
	case OpConst, OpVar:
		return true
	case OpNeg:
		return Equal(a.L, b.L)
	default:
		return Equal(a.L, b.L) && Equal(a.R, b.R)
	}
}
