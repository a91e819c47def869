package mpi

// A coroutine runs body on its own goroutine, but only while the caller is
// inside resume: resume runs body until it calls yield or returns, and
// reports false once body has returned (and on every later call). The
// scheduler runs each rank as one, so exactly one rank executes at a time
// and control passes between ranks only at yield.
//
// newCoroutine is built on iter.Pull, which switches goroutines directly
// (coro_pull.go); toolchains without it get chanCoroutine (coro_chan.go).

// chanCoroutine is the coroutine contract on one goroutine and two
// unbuffered channels: each resume and each yield is a hand-off.
func chanCoroutine(body func(yield func())) (resume func() bool) {
	run := make(chan struct{})
	paused := make(chan bool)
	go func() {
		<-run
		body(func() {
			paused <- true
			<-run
		})
		paused <- false
	}()
	finished := false
	return func() bool {
		if finished {
			return false
		}
		run <- struct{}{}
		finished = !<-paused
		return !finished
	}
}
