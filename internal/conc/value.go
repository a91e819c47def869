// Package conc implements the concolic execution runtime that target
// programs are written against. It plays the role of CREST's runtime library
// after CIL instrumentation: values carry a concrete 64-bit integer and,
// when the process is the focus, a symbolic expression; comparisons produce
// conditions whose predicates are recorded at branch callsites.
//
// The package implements the three practicality techniques of COMPI §IV:
// input capping (InputIntCap), two-way instrumentation (the Heavy/Light
// process modes), and constraint set reduction (the record-on-first-visit-
// or-flip heuristic in Branch).
package conc

import "repro/internal/expr"

// Value is a concolic integer: a concrete value plus an optional symbolic
// expression. E == nil means the value is purely concrete (always the case in
// Light mode, and in Heavy mode whenever an operation had to concretize).
type Value struct {
	C int64
	E *expr.Expr
}

// K returns a concrete constant value.
func K(v int64) Value { return Value{C: v} }

// IsSymbolic reports whether v carries a symbolic expression.
func (v Value) IsSymbolic() bool { return v.E != nil }

// exprOf returns the symbolic expression for v, falling back to its concrete
// literal.
func exprOf(v Value) *expr.Expr {
	if v.E != nil {
		return v.E
	}
	return expr.Const(v.C)
}

// Add returns a + b, symbolically when either operand is symbolic.
func Add(a, b Value) Value {
	out := Value{C: a.C + b.C}
	if a.E != nil || b.E != nil {
		out.E = expr.Add(exprOf(a), exprOf(b))
	}
	return out
}

// Sub returns a - b.
func Sub(a, b Value) Value {
	out := Value{C: a.C - b.C}
	if a.E != nil || b.E != nil {
		out.E = expr.Sub(exprOf(a), exprOf(b))
	}
	return out
}

// Mul returns a * b. Multiplication of two symbolic operands is concretized
// on the right (the defining concolic simplification: the result stays
// linear, as when CREST hands constraints to Yices).
func Mul(a, b Value) Value {
	out := Value{C: a.C * b.C}
	switch {
	case a.E != nil && b.E != nil:
		out.E = expr.Mul(a.E, expr.Const(b.C))
	case a.E != nil:
		out.E = expr.Mul(a.E, expr.Const(b.C))
	case b.E != nil:
		out.E = expr.Mul(expr.Const(a.C), b.E)
	}
	return out
}

// Div returns a / b (truncated). Division by a concrete value keeps the
// dividend symbolic (the paper's own example negates "x/2 + y <= 200");
// division by a symbolic divisor concretizes. Division by zero panics like
// the hardware fault it models (the harness reports it as a crash).
func Div(a, b Value) Value {
	out := Value{C: a.C / b.C}
	if a.E != nil {
		out.E = expr.Div(a.E, expr.Const(b.C))
	}
	return out
}

// Mod returns a % b, with the same concretization rule as Div.
func Mod(a, b Value) Value {
	out := Value{C: a.C % b.C}
	if a.E != nil {
		out.E = expr.Mod(a.E, expr.Const(b.C))
	}
	return out
}

// Neg returns -a.
func Neg(a Value) Value {
	out := Value{C: -a.C}
	if a.E != nil {
		out.E = expr.Neg(a.E)
	}
	return out
}

// Cond is the result of a comparison: the concrete truth value plus the
// operands and relation it compared. The predicate that holds iff B is true
// is built only when asked for (Pred), so a branch whose constraint set
// reduction drops the predicate never builds its tree.
type Cond struct {
	B    bool
	rel  expr.Rel
	l, r Value
}

func compare(a, b Value, rel expr.Rel, hold bool) Cond {
	return Cond{B: hold, rel: rel, l: a, r: b}
}

// symbolic reports whether c has a predicate: some operand is symbolic and
// not a constant (a comparison of constants folds to a constant).
func (c Cond) symbolic() bool { return !concrete(c.l) || !concrete(c.r) }

// concrete reports whether v is a plain value or a constant expression.
func concrete(v Value) bool { return v.E == nil || v.E.Op == expr.OpConst }

// Pred returns the normalized predicate "l - r rel 0" that holds iff B is
// true, building a fresh tree on each call; ok is false when the comparison
// was concrete.
func (c Cond) Pred() (p expr.Pred, ok bool) {
	if !c.symbolic() {
		return expr.Pred{}, false
	}
	return c.pred(c.rel), true
}

// pred builds the predicate over c's operands under rel.
func (c Cond) pred(rel expr.Rel) expr.Pred {
	return expr.Compare(exprOf(c.l), exprOf(c.r), rel)
}

// LT returns the condition a < b.
func LT(a, b Value) Cond { return compare(a, b, expr.LT, a.C < b.C) }

// LE returns the condition a <= b.
func LE(a, b Value) Cond { return compare(a, b, expr.LE, a.C <= b.C) }

// GT returns the condition a > b.
func GT(a, b Value) Cond { return compare(a, b, expr.GT, a.C > b.C) }

// GE returns the condition a >= b.
func GE(a, b Value) Cond { return compare(a, b, expr.GE, a.C >= b.C) }

// EQ returns the condition a == b.
func EQ(a, b Value) Cond { return compare(a, b, expr.EQ, a.C == b.C) }

// NE returns the condition a != b.
func NE(a, b Value) Cond { return compare(a, b, expr.NE, a.C != b.C) }

// Not returns the logical negation of c.
func Not(c Cond) Cond {
	c.B, c.rel = !c.B, c.rel.Negate()
	return c
}

// True is a concrete condition, useful for loop guards instrumented only for
// coverage.
func True(b bool) Cond { return Cond{B: b} }
