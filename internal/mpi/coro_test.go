package mpi

import (
	"fmt"
	"reflect"
	"testing"
)

// TestCoroutineContract runs the coroutine contract against both
// implementations, whichever one newCoroutine selects on this toolchain and
// the channel one it falls back to.
func TestCoroutineContract(t *testing.T) {
	for _, impl := range []struct {
		name string
		make func(func(yield func())) func() bool
	}{
		{"newCoroutine", newCoroutine},
		{"chanCoroutine", chanCoroutine},
	} {
		t.Run(impl.name, func(t *testing.T) {
			var trace []string
			step := func(s string) { trace = append(trace, s) }

			// resume runs the body to its next yield, and no further.
			resume := impl.make(func(yield func()) {
				step("a1")
				yield()
				step("a2")
			})
			if len(trace) != 0 {
				t.Fatalf("body ran before the first resume: %v", trace)
			}
			if !resume() || !reflect.DeepEqual(trace, []string{"a1"}) {
				t.Fatalf("first resume: trace %v, want [a1] and ok", trace)
			}
			// A finished body reports false, then and on every later call.
			if resume() || !reflect.DeepEqual(trace, []string{"a1", "a2"}) {
				t.Fatalf("second resume: trace %v, want [a1 a2] and !ok", trace)
			}
			if resume() {
				t.Fatal("resume of a finished body reported ok")
			}

			// Interleaved coroutines keep their order: body i yields i
			// times, and round-robin resumes run their steps in turn.
			trace = nil
			var resumes []func() bool
			for i := 0; i < 3; i++ {
				resumes = append(resumes, impl.make(func(yield func()) {
					for k := 0; k < i; k++ {
						step(fmt.Sprintf("%d.%d", i, k))
						yield()
					}
					step(fmt.Sprintf("%d.end", i))
				}))
			}
			for live := len(resumes); live > 0; {
				for i, r := range resumes {
					if r != nil && !r() {
						resumes[i] = nil
						live--
					}
				}
			}
			want := []string{"0.end", "1.0", "2.0", "1.end", "2.1", "2.end"}
			if !reflect.DeepEqual(trace, want) {
				t.Fatalf("interleaved trace %v, want %v", trace, want)
			}
		})
	}
}
