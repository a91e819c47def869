package proto

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/target"
)

// Options configures how a Driver launches and supervises its target.
type Options struct {
	// Args are the target binary's command-line arguments.
	Args []string

	// Env entries are appended to the parent environment.
	Env []string

	// Stderr receives the target's stderr (diagnostics are out-of-band;
	// the protocol owns stdout). Defaults to this process's stderr.
	Stderr io.Writer

	// HandshakeTimeout bounds the wait for the opening handshake frame;
	// default 10s.
	HandshakeTimeout time.Duration

	// Grace is the read-deadline slack added to each iteration's timeout,
	// mirroring the in-process runtime's grace period for blocked ranks to
	// unwind; default 5s.
	Grace time.Duration
}

// Driver is the engine side of the protocol: a supervised external target
// process plus the core.Backend implementation that replays the engine's
// concrete input assignments to it and feeds its rank logs back.
//
// Failure semantics match the in-process MPI runtime's: a target that exits
// (crash capture: the exit code lands in the error message), writes a frame
// that does not decode, or stops responding (the read deadline) surfaces as
// a failed iteration with one non-OK focus rank, which the engine records as
// an error-inducing input. The first failure is sticky — the process is
// killed and every subsequent Launch returns the same failure immediately —
// so a dead target yields one deduplicated error record and never stalls a
// scheduler.
//
// A Driver belongs to exactly one engine and is used from one goroutine at a
// time (the protocol is a sequential session); the creator owns Close.
type Driver struct {
	bin    string
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout *os.File // read end of the target's stdout, for read deadlines
	br     *bufio.Reader
	grace  time.Duration

	// out and in are the frame buffers, reused across iterations.
	out, in []byte

	manifest target.Manifest

	waitOnce sync.Once
	waitErr  error

	dead   error
	deadSt mpi.RankStatus
}

// Start launches the target binary, performs the handshake, and returns a
// ready Driver. The handshake manifest is validated before anything runs: a
// target announcing a broken static model (duplicate branch IDs, §IV-A cap
// violations) is refused here.
func Start(bin string, opt Options) (*Driver, error) {
	cmd := exec.Command(bin, opt.Args...)
	cmd.Env = append(os.Environ(), opt.Env...)
	cmd.Stderr = opt.Stderr
	if cmd.Stderr == nil {
		cmd.Stderr = os.Stderr
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("proto: %v", err)
	}
	// A pipe of our own rather than StdoutPipe: Launch reads it under a
	// deadline, which needs the *os.File.
	stdout, w, err := os.Pipe()
	if err != nil {
		return nil, fmt.Errorf("proto: %v", err)
	}
	cmd.Stdout = w
	err = cmd.Start()
	w.Close() // the child holds its own copy
	if err != nil {
		stdout.Close()
		return nil, fmt.Errorf("proto: starting target %q: %w", bin, err)
	}
	d := &Driver{
		bin:    bin,
		cmd:    cmd,
		stdin:  stdin,
		stdout: stdout,
		br:     bufio.NewReaderSize(stdout, 1<<16),
		grace:  opt.Grace,
	}
	if d.grace <= 0 {
		d.grace = 5 * time.Second
	}

	hsTimeout := opt.HandshakeTimeout
	if hsTimeout <= 0 {
		hsTimeout = 10 * time.Second
	}
	if err := stdout.SetReadDeadline(time.Now().Add(hsTimeout)); err != nil {
		return d.abort(fmt.Errorf("proto: %v", err))
	}
	f, err := ReadFrame(d.br)
	switch {
	case errors.Is(err, os.ErrDeadlineExceeded):
		return d.abort(fmt.Errorf("proto: target %q sent no handshake within %s", d.name(), hsTimeout))
	case err != nil:
		return d.abort(fmt.Errorf("proto: target %q sent no handshake: %v", d.name(), err))
	}
	hs := f.Handshake
	if hs.Proto != Version {
		return d.abort(fmt.Errorf("proto: target %q speaks protocol %d, driver speaks %d", d.name(), hs.Proto, Version))
	}
	if err := hs.Manifest.Validate(); err != nil {
		return d.abort(fmt.Errorf("proto: target %q handshake: %w", d.name(), err))
	}
	d.manifest = hs.Manifest
	return d, nil
}

// abort ends a session Start could not open.
func (d *Driver) abort(err error) (*Driver, error) {
	d.kill()
	d.wait()
	d.stdout.Close()
	return nil, err
}

// Manifest returns the static program model the target announced in its
// handshake.
func (d *Driver) Manifest() target.Manifest { return d.manifest }

// Program builds the engine-side target.Program from the handshake
// manifest — the program model a campaign over this driver runs against.
func (d *Driver) Program() (*target.Program, error) {
	return target.FromManifest(d.manifest)
}

func (d *Driver) name() string { return filepath.Base(d.bin) }

// Launch implements core.Backend: one engine iteration over the pipe. It
// writes the assign frame, then reads the s.NProcs rank frames itself; the
// read deadline is the iteration's timeout plus the grace period.
func (d *Driver) Launch(s core.LaunchSpec) mpi.RunResult {
	start := time.Now()
	if d.dead != nil {
		return d.failResult(s, start)
	}
	if n := d.br.Buffered(); n > 0 {
		// A frame past the last iteration's nprocs would be read as this
		// iteration's answer.
		return d.fail(s, start, mpi.StatusCrash,
			fmt.Errorf("proto: target %q wrote %d bytes between iterations", d.name(), n))
	}

	d.out = appendAssign(appendFrameHeader(d.out[:0]), s)
	if err := endFrame(d.out); err != nil {
		return d.fail(s, start, mpi.StatusCrash, err)
	}
	if _, err := d.stdin.Write(d.out); err != nil {
		return d.exitFailure(s, start) // the write half broke: the target is gone
	}

	timeout := s.Timeout
	if timeout <= 0 {
		timeout = time.Minute // mirror mpi.Launch's default
	}
	watchdog := timeout + d.grace
	d.stdout.SetReadDeadline(time.Now().Add(watchdog)) // cannot fail: Start set one
	ranks := make([]mpi.RankResult, s.NProcs)
	for i := range ranks {
		var err error
		if d.in, err = readRaw(d.br, d.in); err == nil {
			var f rankFrame
			if f, err = decodeRank(d.in); err == nil {
				ranks[i], err = f.result(i)
			}
		}
		switch {
		case err == nil:
		case errors.Is(err, os.ErrDeadlineExceeded):
			return d.fail(s, start, mpi.StatusHang,
				fmt.Errorf("proto: target %q stopped responding (frame watchdog %s)", d.name(), watchdog))
		case errors.Is(err, io.EOF):
			return d.exitFailure(s, start)
		default:
			return d.fail(s, start, mpi.StatusCrash,
				fmt.Errorf("proto: unreadable frame from target %q: %v", d.name(), err))
		}
	}
	return mpi.RunResult{Ranks: ranks, Elapsed: time.Since(start)}
}

// exitFailure reaps the exited target and fails the session with the
// crash-capture failure: the exit code becomes part of the (stable,
// dedupable) message.
func (d *Driver) exitFailure(s core.LaunchSpec, start time.Time) mpi.RunResult {
	d.kill()
	d.wait()
	code := -1
	if ps := d.cmd.ProcessState; ps != nil {
		code = ps.ExitCode()
	}
	err := fmt.Errorf("proto: target %q exited with code %d mid-iteration", d.name(), code)
	if code == 0 {
		err = fmt.Errorf("proto: target %q closed the session mid-campaign", d.name())
	}
	return d.fail(s, start, mpi.StatusAborted, err)
}

// fail kills the target, installs the sticky failure and returns this
// iteration's failed result. The first failure wins, so every later
// iteration reports the identical error record and the engine's dedup
// collapses them to one distinct bug.
func (d *Driver) fail(s core.LaunchSpec, start time.Time, st mpi.RankStatus, err error) mpi.RunResult {
	d.kill()
	if d.dead == nil {
		d.dead, d.deadSt = err, st
	}
	return d.failResult(s, start)
}

// failResult synthesizes the iteration outcome for a failed session: the
// focus rank carries the sticky failure (matching where the in-process
// runtime pins primary failures), everything else is an empty OK rank with
// no log, which sends the engine through its restart path.
func (d *Driver) failResult(s core.LaunchSpec, start time.Time) mpi.RunResult {
	n := s.NProcs
	if n < 1 {
		n = 1
	}
	ranks := make([]mpi.RankResult, n)
	for i := range ranks {
		ranks[i].Rank = i
	}
	f := s.Focus
	if f < 0 || f >= n {
		f = 0
	}
	ranks[f].Status = d.deadSt
	ranks[f].Err = d.dead
	return mpi.RunResult{Ranks: ranks, Elapsed: time.Since(start)}
}

// kill terminates the target process. Killing an exited one is harmless.
func (d *Driver) kill() {
	if d.cmd.Process != nil {
		d.cmd.Process.Kill()
	}
}

// wait reaps the process exactly once.
func (d *Driver) wait() error {
	d.waitOnce.Do(func() { d.waitErr = d.cmd.Wait() })
	return d.waitErr
}

// Close implements core.Backend: it ends the session by closing the
// target's stdin (a healthy Serve loop exits 0 on EOF), waits briefly, and
// kills the process if it lingers. It returns the target's abnormal exit
// only for sessions that had not already failed — a failure Launch reported
// is not reported twice.
func (d *Driver) Close() error {
	d.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- d.wait() }()
	var werr error
	select {
	case werr = <-done:
	case <-time.After(5 * time.Second):
		d.kill()
		werr = <-done
	}
	d.stdout.Close()
	if d.dead != nil || werr == nil {
		return nil
	}
	return fmt.Errorf("proto: target %q: %w", d.name(), werr)
}
