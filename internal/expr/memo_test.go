package expr

import (
	"math/rand"
	"testing"
)

// TestKeyMemoMatchesFresh is the memo soundness property: for randomized
// predicate sets — including every prefix, the engine's actual access
// pattern — the memoized key equals a fresh CanonicalKey, whether the
// predicates' normalized forms are new or cached. Reuses the canon test
// generators.
func TestKeyMemoMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	m := NewKeyMemo(0)
	for trial := 0; trial < 300; trial++ {
		preds := randPredSet(r)
		for n := 1; n <= len(preds); n++ {
			prefix := preds[:n]
			want := CanonicalKey(prefix)
			if got := m.Key(prefix); got != want {
				t.Fatalf("trial %d prefix %d: memo key %v != fresh %v", trial, n, got, want)
			}
			if got := m.Key(prefix); got != want {
				t.Fatalf("trial %d prefix %d: cached-forms key %v != fresh %v", trial, n, got, want)
			}
		}
	}
	hits, lookups := m.Stats()
	if hits == 0 || lookups == 0 {
		t.Fatalf("property exercised no memo hits: hits=%d lookups=%d", hits, lookups)
	}
}

// TestKeyMemoNormalizationCachePerRelation: the memo keeps each tree's
// normalized form per relation, and the engine negates a tree it has already
// submitted (same *Expr, complementary relation). Both orientations must key
// exactly as a fresh CanonicalKey does.
func TestKeyMemoNormalizationCachePerRelation(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	m := NewKeyMemo(0)
	for trial := 0; trial < 300; trial++ {
		preds := randPredSet(r)
		neg := append(append([]Pred(nil), preds[:len(preds)-1]...), preds[len(preds)-1].Negate())
		for _, set := range [][]Pred{preds, neg, preds} {
			if got, want := m.Key(set), CanonicalKey(set); got != want {
				t.Fatalf("trial %d: memo key %v != fresh %v for %v", trial, got, want, set)
			}
		}
	}
}

// TestKeyMemoRenamedSetsStayEquivalent: a renamed predicate set shares no
// tree with the original, so nothing is cached for it, but it must still
// produce the same canonical key — the memo accelerates, never re-keys.
func TestKeyMemoRenamedSetsStayEquivalent(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	m := NewKeyMemo(0)
	for trial := 0; trial < 200; trial++ {
		preds := randPredSet(r)
		vs := map[Var]struct{}{}
		for _, p := range preds {
			p.Vars(vs)
		}
		ren := map[Var]Var{}
		off := Var(100 + r.Intn(100))
		for v := range vs {
			ren[v] = v + off
		}
		renamed := renamePreds(preds, ren)
		if m.Key(preds) != m.Key(renamed) {
			t.Fatalf("trial %d: memoized keys of rename-equivalent sets differ", trial)
		}
	}
}

// TestKeyMemoSliceReuse pins the scratch-buffer contract: the engine reuses
// one backing array for successive constraint sets, so the memo must key on
// the slice's contents at call time, never on its identity.
func TestKeyMemoSliceReuse(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	m := NewKeyMemo(0)
	buf := make([]Pred, 0, 16)
	for trial := 0; trial < 200; trial++ {
		set := randPredSet(r)
		buf = append(buf[:0], set...)
		want := CanonicalKey(set)
		if got := m.Key(buf); got != want {
			t.Fatalf("trial %d: reused-buffer key %v != fresh %v", trial, got, want)
		}
	}
}

// TestKeyMemoCapResets: overflowing the cap flushes rather than grows, and
// keys stay correct across the flush.
func TestKeyMemoCapResets(t *testing.T) {
	m := NewKeyMemo(8)
	r := rand.New(rand.NewSource(44))
	sets := make([][]Pred, 32)
	for i := range sets {
		sets[i] = randPredSet(r)
	}
	for round := 0; round < 3; round++ {
		for _, s := range sets {
			if got, want := m.Key(s), CanonicalKey(s); got != want {
				t.Fatalf("round %d: %v != %v", round, got, want)
			}
		}
	}
	m.mu.Lock()
	nt := len(m.norms)
	m.mu.Unlock()
	if nt > 8 {
		t.Fatalf("cap not enforced: %d trees cached (cap 8)", nt)
	}
}

// TestKeyMemoConcurrent exercises the memo from many goroutines under the
// race detector.
func TestKeyMemoConcurrent(t *testing.T) {
	m := NewKeyMemo(0)
	sets := make([][]Pred, 16)
	r := rand.New(rand.NewSource(45))
	for i := range sets {
		sets[i] = randPredSet(r)
	}
	want := make([]Key, len(sets))
	for i, s := range sets {
		want[i] = CanonicalKey(s)
	}
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for i := 0; i < 200; i++ {
				j := (w + i) % len(sets)
				if m.Key(sets[j]) != want[j] {
					done <- errMismatch
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = errString("memoized key diverged under concurrency")

type errString string

func (e errString) Error() string { return string(e) }

func BenchmarkCanonicalKey(b *testing.B) {
	r := rand.New(rand.NewSource(46))
	preds := make([]Pred, 0, 24)
	for len(preds) < 24 {
		preds = append(preds, randPredSet(r)...)
	}
	preds = preds[:24]
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			CanonicalKey(preds)
		}
	})
	b.Run("memo", func(b *testing.B) {
		m := NewKeyMemo(0)
		m.Key(preds)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Key(preds)
		}
	})
}
