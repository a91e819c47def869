package conc

import (
	"math/rand"
	"testing"

	"repro/internal/expr"
)

// TestConcolicMirrorInvariant checks the defining invariant of concolic
// execution: for any sequence of operations over symbolic inputs, the
// symbolic expression — evaluated under the actual input values — equals the
// concrete value carried alongside it. Concretization may *drop* symbolic
// information (Div/Mod/Mul of two symbolics) but must never make the two
// disagree.
func TestConcolicMirrorInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		vs := NewVarSpace()
		inputs := map[string]int64{
			"a": int64(rng.Intn(41) - 20),
			"b": int64(rng.Intn(41) - 20),
			"c": int64(rng.Intn(41) - 20),
		}
		p := NewProc(0, vs, inputs, Config{Mode: Heavy, Seed: int64(trial)})
		env := expr.Env(func(v expr.Var) int64 { return inputs[vs.Name(v)] })

		pool := []Value{
			p.InputInt("a"), p.InputInt("b"), p.InputInt("c"),
			K(int64(rng.Intn(11) - 5)),
		}
		for step := 0; step < 12; step++ {
			a := pool[rng.Intn(len(pool))]
			b := pool[rng.Intn(len(pool))]
			var out Value
			switch rng.Intn(6) {
			case 0:
				out = Add(a, b)
			case 1:
				out = Sub(a, b)
			case 2:
				out = Mul(a, b)
			case 3:
				if b.C == 0 {
					continue
				}
				out = Div(a, b)
			case 4:
				if b.C == 0 {
					continue
				}
				out = Mod(a, b)
			default:
				out = Neg(a)
			}
			if out.E != nil {
				got, ok := out.E.Eval(env)
				if !ok {
					t.Fatalf("trial %d step %d: symbolic expr undefined: %s",
						trial, step, out.E)
				}
				if got != out.C {
					t.Fatalf("trial %d step %d: symbolic %d != concrete %d for %s",
						trial, step, got, out.C, out.E)
				}
			}
			pool = append(pool, out)
		}
	}
}

// TestCondMirrorInvariant is the comparison-level version: a recorded
// predicate must hold under the input values exactly when the concrete
// comparison was true.
func TestCondMirrorInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		vs := NewVarSpace()
		inputs := map[string]int64{
			"a": int64(rng.Intn(21) - 10),
			"b": int64(rng.Intn(21) - 10),
		}
		p := NewProc(0, vs, inputs, Config{Mode: Heavy, Seed: int64(trial)})
		env := expr.Env(func(v expr.Var) int64 { return inputs[vs.Name(v)] })
		a, b := p.InputInt("a"), p.InputInt("b")
		x := Add(Mul(a, K(int64(rng.Intn(5)-2))), b)
		y := Sub(b, K(int64(rng.Intn(9))))
		conds := []Cond{LT(x, y), LE(x, y), GT(x, y), GE(x, y), EQ(x, y), NE(x, y)}
		for i, c := range conds {
			cp, sym := c.Pred()
			if !sym {
				continue
			}
			hold, ok := cp.Eval(env)
			if !ok || hold != c.B {
				t.Fatalf("trial %d cond %d: predicate %s hold=%v ok=%v but concrete %v",
					trial, i, cp, hold, ok, c.B)
			}
			n := Not(c)
			np, _ := n.Pred()
			if nh, _ := np.Eval(env); nh != n.B {
				t.Fatalf("trial %d cond %d: negation inconsistent", trial, i)
			}
		}
	}
}
