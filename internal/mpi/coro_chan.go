//go:build !go1.23

package mpi

// newCoroutine starts body as a suspended coroutine on channels: iter.Pull
// needs go1.23.
func newCoroutine(body func(yield func())) (resume func() bool) {
	return chanCoroutine(body)
}
