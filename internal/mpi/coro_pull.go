//go:build go1.23

package mpi

import "iter"

// newCoroutine starts body as a suspended coroutine on iter.Pull.
func newCoroutine(body func(yield func())) (resume func() bool) {
	next, _ := iter.Pull(func(yield func(struct{}) bool) {
		body(func() { yield(struct{}{}) })
	})
	return func() bool {
		_, ok := next()
		return ok
	}
}
