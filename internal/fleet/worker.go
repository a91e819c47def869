package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/binstat"
	"repro/internal/core"
	"repro/internal/sched"
)

// WorkerOptions configures Work.
type WorkerOptions struct {
	// Name identifies this worker in coordinator logs and status output;
	// defaults to "pid<pid>".
	Name string

	// Jobs is the number of campaign slots — parallel engines, each with
	// its own coordinator connection. Default 1.
	Jobs int

	// DialWindow is how long to keep retrying the initial connection (the
	// coordinator may start after the workers). Default 10s.
	DialWindow time.Duration

	// Profile runs every leased engine under a phase profiler and ships the
	// per-shard report with the complete frame. The coordinator's welcome
	// can also switch this on fleet-wide; either source enables it.
	Profile bool

	// Logf, when non-nil, receives worker event lines.
	Logf func(format string, args ...any)
}

// Work runs campaigns leased from the coordinator at addr until the batch
// drains or the coordinator goes away, whichever comes first — both are
// clean exits: a missing coordinator means the batch is finished (or will be
// re-run), never that this worker should fail. Only a handshake that never
// succeeds returns an error.
func Work(addr string, opt WorkerOptions) error {
	if opt.Name == "" {
		opt.Name = fmt.Sprintf("pid%d", os.Getpid())
	}
	if opt.Jobs <= 0 {
		opt.Jobs = 1
	}
	if opt.DialWindow <= 0 {
		opt.DialWindow = 10 * time.Second
	}
	if opt.Jobs == 1 {
		return workOne(addr, opt.Name, opt)
	}
	var wg sync.WaitGroup
	errs := make([]error, opt.Jobs)
	for j := 0; j < opt.Jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			errs[j] = workOne(addr, fmt.Sprintf("%s/%d", opt.Name, j), opt)
		}(j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// workOne is one campaign slot: one connection, one engine at a time.
func workOne(addr, name string, opt WorkerOptions) error {
	conn, err := dialRetry(addr, opt.DialWindow)
	if err != nil {
		return fmt.Errorf("fleet: worker %s: %w", name, err)
	}
	defer conn.Close()
	var wmu sync.Mutex // conn writes: job loop, per-iteration callbacks, renew timer
	write := func(f Frame) error {
		wmu.Lock()
		defer wmu.Unlock()
		return WriteFrame(conn, f)
	}
	logf := func(format string, args ...any) {
		if opt.Logf != nil {
			opt.Logf(format, args...)
		}
	}

	if err := write(Frame{Type: FrameHello, Hello: &Hello{Proto: Version, Name: name}}); err != nil {
		return fmt.Errorf("fleet: worker %s: hello: %w", name, err)
	}
	f, err := ReadFrame(conn)
	if err != nil || f.Type != FrameWelcome {
		return fmt.Errorf("fleet: worker %s: no welcome from %s (%v)", name, addr, err)
	}
	if f.Welcome.Proto != Version {
		return fmt.Errorf("fleet: worker %s: coordinator speaks protocol %d, this build speaks %d",
			name, f.Welcome.Proto, Version)
	}
	w := *f.Welcome
	ttl := time.Duration(w.TTLMS) * time.Millisecond
	logf("fleet: worker %s: session %d on batch %q", name, w.Worker, w.Batch)

	for {
		if err := write(Frame{Type: FrameLeaseRequest, LeaseReq: &LeaseRequest{}}); err != nil {
			return nil // coordinator gone: batch is over as far as we're concerned
		}
		f, err := ReadFrame(conn)
		if err != nil || f.Type != FrameLease {
			return nil
		}
		lease := f.Lease
		switch lease.Status {
		case LeaseDrained:
			logf("fleet: worker %s: batch drained", name)
			return nil
		case LeaseWait:
			retry := time.Duration(lease.RetryMS) * time.Millisecond
			if retry <= 0 {
				retry = 200 * time.Millisecond
			}
			time.Sleep(retry)
		case LeaseGranted:
			runLease(write, lease, ttl, w.SnapshotEvery, opt.Profile || w.Profile, logf)
		default:
			return nil
		}
	}
}

// dialRetry dials addr, retrying for up to window.
func dialRetry(addr string, window time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(window)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dialing coordinator %s: %w", addr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// errorTail collects the engine's live error records (Config.ErrorLog writes
// one JSON line per record) so merge frames can ship only the new ones.
type errorTail struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	recs []core.ErrorRecord
}

func (t *errorTail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf.Write(p)
	for {
		line, err := t.buf.ReadBytes('\n')
		if err != nil {
			t.buf.Write(line) // partial line: keep for the next write
			break
		}
		var rec core.ErrorRecord
		if json.Unmarshal(line, &rec) == nil {
			t.recs = append(t.recs, rec)
		}
	}
	return len(p), nil
}

func (t *errorTail) drain() []core.ErrorRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	recs := t.recs
	t.recs = nil
	return recs
}

// runLease executes one granted shard: restore the resume snapshot if any
// (sched.NewEngine starts cold from a stale one), journal coverage, stream
// per-iteration merges and periodic progress snapshots, renew the lease on a
// timer, and finish with the final snapshot. Deterministic spec failures
// (unknown target, unstartable external binary) are reported as error
// frames; transport failures are simply dropped — the coordinator's lease
// deadline handles a worker that can no longer speak.
func runLease(write func(Frame) error, lease *Lease, ttl time.Duration, snapshotEvery int, profile bool, logf func(string, ...any)) {
	sp := sched.Spec{Campaign: *lease.Spec}
	cfg, closeTarget, err := sp.Open()
	if err != nil {
		logf("fleet: lease %s: %v", lease.ID, err)
		write(Frame{Type: FrameError, Error: &ErrorReport{Lease: lease.ID, Msg: err.Error()}})
		return
	}
	defer closeTarget()
	if profile && cfg.Profiler == nil {
		// One profiler per lease: the complete frame then carries exactly
		// this shard's bins, and the coordinator does the fleet-wide rollup.
		cfg.Profiler = binstat.New()
	}

	// Per-iteration callbacks. The engine is built after the closures, so
	// they capture it through a variable assigned below; the engine never
	// fires them before Run.
	tail := &errorTail{}
	cfg.ErrorLog = tail
	var eng *core.Engine
	if snapshotEvery <= 0 {
		snapshotEvery = 8
	}
	cfg.CheckpointEvery = snapshotEvery
	cfg.Checkpoint = func(snap *core.Snapshot) {
		write(Frame{Type: FrameProgress, Progress: &Progress{
			Lease: lease.ID, Iters: snap.Iters, Snapshot: snap,
		}})
	}
	cfg.Trace = func(it core.IterationStat) {
		write(Frame{Type: FrameMerge, Merge: &Merge{
			Lease:  lease.ID,
			Iters:  it.Iter + 1,
			Delta:  eng.Coverage().DrainDelta(),
			Errors: tail.drain(),
		}})
	}

	eng = sched.NewEngine(cfg, lease.Snapshot)
	// Journal only what this session adds: restored coverage is already on
	// the coordinator's side of the ledger.
	eng.Coverage().StartJournal()

	renewEvery := ttl / 3
	if renewEvery <= 0 {
		renewEvery = time.Second
	}
	stopRenew := make(chan struct{})
	go func() {
		tick := time.NewTicker(renewEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopRenew:
				return
			case <-tick.C:
				write(Frame{Type: FrameRenew, Renew: &Renew{Lease: lease.ID}})
			}
		}
	}()
	logf("fleet: running lease %s (%s)", lease.ID, sp.DisplayLabel())
	eng.Run()
	close(stopRenew)
	final := eng.Snapshot()
	write(Frame{Type: FrameComplete, Complete: &Complete{
		Lease: lease.ID, Snapshot: final, Profile: cfg.Profiler.Report(),
	}})
	logf("fleet: lease %s complete at %d iterations", lease.ID, final.Iters)
}

var _ io.Writer = (*errorTail)(nil) // Config.ErrorLog contract
