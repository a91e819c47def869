package expr

import "fmt"

// Rel is a comparison relation against zero: a predicate is "E Rel 0".
type Rel uint8

// Comparison relations.
const (
	EQ Rel = iota // E == 0
	NE            // E != 0
	LT            // E <  0
	LE            // E <= 0
	GT            // E >  0
	GE            // E >= 0
)

func (r Rel) String() string {
	switch r {
	case EQ:
		return "=="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	}
	return fmt.Sprintf("rel(%d)", uint8(r))
}

// Negate returns the complementary relation.
func (r Rel) Negate() Rel {
	switch r {
	case EQ:
		return NE
	case NE:
		return EQ
	case LT:
		return GE
	case LE:
		return GT
	case GT:
		return LE
	case GE:
		return LT
	}
	return r
}

// Holds reports whether "v Rel 0" is true.
func (r Rel) Holds(v int64) bool {
	switch r {
	case EQ:
		return v == 0
	case NE:
		return v != 0
	case LT:
		return v < 0
	case LE:
		return v <= 0
	case GT:
		return v > 0
	case GE:
		return v >= 0
	}
	return false
}

// Pred is the normalized constraint "E Rel 0". Comparisons between two
// expressions a OP b are normalized by the concolic runtime to (a-b) OP 0.
type Pred struct {
	E   *Expr
	Rel Rel
}

// Compare builds the normalized predicate "l rel r".
func Compare(l, r *Expr, rel Rel) Pred {
	return Pred{E: Sub(l, r), Rel: rel}
}

// Negate returns the complementary predicate over the same expression.
func (p Pred) Negate() Pred { return Pred{E: p.E, Rel: p.Rel.Negate()} }

// Eval reports whether p holds under env; the second result is false when the
// expression is undefined under env (division by zero).
func (p Pred) Eval(env Env) (bool, bool) {
	v, ok := p.E.Eval(env)
	if !ok {
		return false, false
	}
	return p.Rel.Holds(v), true
}

// Vars adds the variables of p to set.
func (p Pred) Vars(set map[Var]struct{}) { p.E.Vars(set) }

// String renders p for logs.
func (p Pred) String() string {
	if p.E == nil {
		return fmt.Sprintf("<nil> %s 0", p.Rel)
	}
	return string(p.Append(nil))
}

// Append appends the String rendering of p to b.
func (p Pred) Append(b []byte) []byte {
	b = append(p.E.Append(b), ' ')
	return append(append(b, p.Rel.String()...), " 0"...)
}
