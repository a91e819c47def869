package fleet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/binstat"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/store"
)

// Options configures a coordinator.
type Options struct {
	// Store, when non-nil, makes the fleet durable through the same
	// sched.Batch a store-backed sched.Run drives: progress snapshots are
	// checkpointed into it, already-explored setups are reused or resumed
	// from it, a batch manifest tracks the fleet's shards, and failed writes
	// are reported in the report's StoreErr. The coordinator owns the store
	// (workers never touch it), so the store's single-process lock composes
	// with any number of workers.
	Store *store.Store

	// BatchID names the store batch; empty derives a stable ID from the
	// specs (sched.NewBatch), so restarting a coordinator resumes its own
	// batch.
	BatchID string

	// TTL is the lease time-to-live. A lease not renewed and not advanced
	// by progress for TTL is reclaimed and its shard re-leased. Default 10s.
	TTL time.Duration

	// Retry is the backoff workers are told to wait before re-requesting
	// when every remaining shard is leased. Default 200ms.
	Retry time.Duration

	// SnapshotEvery is the progress-snapshot cadence in iterations.
	// Default 8. Progress snapshots are the store checkpoints, the reclaim
	// resume points and the status endpoint's source, so this also sets how
	// often a shard's status line advances.
	SnapshotEvery int

	// Profile asks every worker (via the welcome frame) to run its engines
	// under a phase profiler and ship per-shard reports; the coordinator
	// aggregates them fleet-wide, shows the top bins on the status endpoint,
	// and attaches the rollup to the final report. Workers profiling on
	// their own (-profile on `compi work`) feed the same aggregate even when
	// this is off.
	Profile bool

	// Logf, when non-nil, receives coordinator event lines (leases granted,
	// reclaims, completions).
	Logf func(format string, args ...any)
}

// Shard lease states, as shown by the status endpoint. A completing shard's
// final snapshot is being written to the store outside the coordinator's
// lock: its lease no longer takes frames, the reaper leaves it alone, and it
// counts as resolved only once the write has returned.
const (
	shardPending    = "pending"
	shardLeased     = "leased"
	shardCompleting = "completing"
	shardDone       = "done"
	shardFailed     = "failed"
)

// shardState is the lease state of one spec's campaign; the campaign itself
// and its store writes live in the sched.Batch. The coordinator reads the
// campaign's label and target, which never change, from here, so nothing
// under its lock reads a campaign that a store write outside it updates.
type shardState struct {
	label      string
	target     string
	state      string
	gen        int    // lease generation; bumped on every grant
	leaseID    string // current lease, "" unless leased
	worker     int    // session ID holding the lease
	workerName string
	deadline   time.Time      // lease expiry; advanced by renew/progress
	iters      int            // latest reported iteration count
	errCount   int            // error records in the latest snapshot (status only)
	reclaims   int            // times this shard's lease was reclaimed
	resume     *core.Snapshot // last progress snapshot: the reclaim-resume point
	reused     bool           // resolved from the store without a lease
	err        error          // why the shard failed
}

// Coordinator owns one fleet batch: a sched.Batch over the specs, their
// shard lease state, and the listeners. Create with NewCoordinator, drive
// with Serve (and optionally ServeStatus), collect with Wait.
type Coordinator struct {
	opt   Options
	wire  []spec.Campaign   // portable form of each spec, shipped in leases
	prof  *binstat.Profiler // fleet-wide rollup of worker-shipped reports
	batch *sched.Batch

	mu         sync.Mutex
	shards     []shardState
	sessions   map[int]*session
	nextSess   int
	cov        map[string]*coverage.Tracker // live status trackers
	start      time.Time
	resolved   int
	done       chan struct{}
	doneClosed bool

	lnMu     sync.Mutex
	ln       net.Listener
	statusLn net.Listener
}

// session is one connected worker conn.
type session struct {
	id   int
	name string
	conn net.Conn
}

// NewCoordinator prepares a fleet over specs. Specs that cannot be
// dispatched (live strategy objects and the like — see spec.Portable) fail
// their shard immediately; everything else starts pending.
func NewCoordinator(specs []sched.Spec, opt Options) *Coordinator {
	if opt.TTL <= 0 {
		opt.TTL = 10 * time.Second
	}
	if opt.Retry <= 0 {
		opt.Retry = 200 * time.Millisecond
	}
	if opt.SnapshotEvery <= 0 {
		opt.SnapshotEvery = 8
	}
	c := &Coordinator{
		opt:      opt,
		wire:     make([]spec.Campaign, len(specs)),
		prof:     binstat.New(),
		batch:    sched.NewBatch(specs, opt.Store, opt.BatchID),
		shards:   make([]shardState, len(specs)),
		sessions: map[int]*session{},
		cov:      map[string]*coverage.Tracker{},
		start:    time.Now(),
		done:     make(chan struct{}),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, sp := range specs {
		camp := c.batch.Campaign(i)
		c.shards[i] = shardState{label: camp.Label, target: camp.Target, state: shardPending}
		w, err := sp.Portable()
		if err != nil {
			c.failShardLocked(i, fmt.Errorf("fleet: %w", err))
			continue
		}
		c.wire[i] = w
	}
	c.checkDoneLocked()
	return c
}

// BatchID returns the store batch ID ("" without a store).
func (c *Coordinator) BatchID() string { return c.batch.ID() }

func (c *Coordinator) logf(format string, args ...any) {
	if c.opt.Logf != nil {
		c.opt.Logf(format, args...)
	}
}

// label is shard i's campaign label.
func (c *Coordinator) label(i int) string { return c.shards[i].label }

// failShardLocked resolves shard i with a deterministic error.
func (c *Coordinator) failShardLocked(i int, err error) {
	sh := &c.shards[i]
	sh.state = shardFailed
	sh.leaseID = ""
	sh.err = err
	c.batch.Fail(i, err)
	c.logf("fleet: shard %d (%s) failed: %v", i, c.label(i), err)
	c.resolved++
	c.checkDoneLocked()
}

// resolveShardLocked marks shard i done with snap, its final snapshot or the
// stored one it was reused from.
func (c *Coordinator) resolveShardLocked(i int, snap *core.Snapshot) {
	sh := &c.shards[i]
	sh.state = shardDone
	sh.leaseID = ""
	sh.resume = nil
	sh.iters = snap.Iters
	sh.errCount = len(snap.Errors)
	c.mergeSnapshotCovLocked(sh.target, snap)
	c.resolved++
	c.checkDoneLocked()
}

func (c *Coordinator) checkDoneLocked() {
	if c.resolved == len(c.shards) && !c.doneClosed {
		c.doneClosed = true
		close(c.done)
	}
}

// mergeSnapshotCovLocked folds a snapshot's coverage into the live status
// tracker for target.
func (c *Coordinator) mergeSnapshotCovLocked(target string, snap *core.Snapshot) {
	tr := c.cov[target]
	if tr == nil {
		tr = coverage.New()
		c.cov[target] = tr
	}
	for _, b := range snap.Covered {
		tr.AddBranch(b)
	}
	for _, f := range snap.Funcs {
		tr.AddFunc(f)
	}
}

// Serve accepts worker connections on ln until the batch drains (or ln is
// closed). It blocks; run it in a goroutine and use Wait for the report.
func (c *Coordinator) Serve(ln net.Listener) error {
	c.lnMu.Lock()
	c.ln = ln
	c.lnMu.Unlock()
	go func() {
		// Reaper: reclaim leases whose deadline passed (dead or stalled
		// workers that still hold a connection open).
		tick := time.NewTicker(c.opt.TTL / 4)
		defer tick.Stop()
		for {
			select {
			case <-c.done:
				return
			case now := <-tick.C:
				c.reapExpired(now)
			}
		}
	}()
	go func() {
		<-c.done
		ln.Close() // unblock Accept; worker conns see EOF and exit
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-c.done:
				return nil
			default:
				return err
			}
		}
		go c.handle(conn)
	}
}

// reapExpired reclaims every lease whose deadline has passed.
func (c *Coordinator) reapExpired(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.shards {
		sh := &c.shards[i]
		if sh.state == shardLeased && now.After(sh.deadline) {
			c.reclaimShardLocked(i, "lease expired")
		}
	}
}

// reclaimShardLocked returns a leased shard to the pending pool. The resume
// snapshot (last progress) is kept, so the next lease continues from it; the
// lease ID is retired, so any frames the previous holder still sends are
// discarded as stale.
func (c *Coordinator) reclaimShardLocked(i int, why string) {
	sh := &c.shards[i]
	if sh.state != shardLeased {
		return
	}
	c.logf("fleet: reclaiming shard %d (%s) from worker %d (%s): %s",
		i, c.label(i), sh.worker, sh.workerName, why)
	sh.state = shardPending
	sh.leaseID = ""
	sh.worker = 0
	sh.workerName = ""
	sh.reclaims++
	c.batch.Requeue(i)
}

// handle runs one worker session: handshake, then the frame loop. Any
// protocol violation — a garbage frame, a wrong-version hello — drops the
// connection; the session's leases are reclaimed either way.
func (c *Coordinator) handle(conn net.Conn) {
	defer conn.Close()
	f, err := ReadFrame(conn)
	if err != nil || f.Type != FrameHello {
		return
	}
	if f.Hello.Proto != Version {
		return
	}
	c.mu.Lock()
	c.nextSess++
	s := &session{id: c.nextSess, name: f.Hello.Name, conn: conn}
	if s.name == "" {
		s.name = fmt.Sprintf("worker-%d", s.id)
	}
	c.sessions[s.id] = s
	c.mu.Unlock()
	c.logf("fleet: worker %d (%s) connected from %s", s.id, s.name, conn.RemoteAddr())

	defer func() {
		c.mu.Lock()
		delete(c.sessions, s.id)
		for i := range c.shards {
			if c.shards[i].state == shardLeased && c.shards[i].worker == s.id {
				c.reclaimShardLocked(i, "connection lost")
			}
		}
		c.mu.Unlock()
		c.logf("fleet: worker %d (%s) disconnected", s.id, s.name)
	}()

	err = WriteFrame(conn, Frame{Type: FrameWelcome, Welcome: &Welcome{
		Proto:         Version,
		Worker:        s.id,
		Batch:         c.batch.ID(),
		TTLMS:         c.opt.TTL.Milliseconds(),
		RetryMS:       c.opt.Retry.Milliseconds(),
		SnapshotEvery: c.opt.SnapshotEvery,
		Profile:       c.opt.Profile,
	}})
	if err != nil {
		return
	}

	for {
		f, err := ReadFrame(conn)
		if err != nil {
			return // EOF, dead peer, or garbage: leases reclaimed by the defer
		}
		switch f.Type {
		case FrameLeaseRequest:
			if err := WriteFrame(conn, c.grant(s)); err != nil {
				return
			}
		case FrameRenew:
			c.renew(f.Renew.Lease)
		case FrameProgress:
			c.applyProgress(f.Progress)
		case FrameComplete:
			c.applyComplete(f.Complete)
		case FrameError:
			c.applyError(f.Error)
		default:
			return // coordinator-bound frames only; anything else is protocol abuse
		}
	}
}

// grant answers a lease request: the first pending shard, after answering
// any store-reusable shards in place.
func (c *Coordinator) grant(s *session) Frame {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.shards {
		sh := &c.shards[i]
		if sh.state != shardPending {
			continue
		}
		// A stored exploration that covers the request resolves the shard
		// without leasing it; a shorter one is the lease's resume snapshot,
		// unless a reclaimed lease of this batch got further.
		snap, reused := c.batch.Start(i)
		if reused {
			c.logf("fleet: shard %d (%s) reused from store (%d iterations)", i, c.label(i), snap.Iters)
			sh.reused = true
			c.resolveShardLocked(i, snap)
			continue
		}
		if sh.resume == nil {
			sh.resume = snap
		}
		sh.gen++
		sh.state = shardLeased
		sh.leaseID = fmt.Sprintf("shard%d.g%d", i, sh.gen)
		sh.worker = s.id
		sh.workerName = s.name
		sh.deadline = time.Now().Add(c.opt.TTL)
		lease := &Lease{
			Status:  LeaseGranted,
			ID:      sh.leaseID,
			Shard:   i,
			Spec:    &c.wire[i],
			TTLMS:   c.opt.TTL.Milliseconds(),
			RetryMS: c.opt.Retry.Milliseconds(),
		}
		if sh.resume != nil {
			lease.Snapshot = sh.resume
			// The live status tracker sees resumed coverage up front,
			// before the new holder's first progress snapshot.
			c.mergeSnapshotCovLocked(sh.target, sh.resume)
		}
		c.logf("fleet: leased shard %d (%s) to worker %d (%s) as %s",
			i, c.label(i), s.id, s.name, sh.leaseID)
		return Frame{Type: FrameLease, Lease: lease}
	}
	if c.resolved == len(c.shards) {
		return Frame{Type: FrameLease, Lease: &Lease{Status: LeaseDrained}}
	}
	return Frame{Type: FrameLease, Lease: &Lease{Status: LeaseWait, RetryMS: c.opt.Retry.Milliseconds()}}
}

// findLocked resolves a lease ID to its shard index, or -1 for stale or
// unknown leases.
func (c *Coordinator) findLocked(leaseID string) int {
	if leaseID == "" {
		return -1
	}
	for i := range c.shards {
		if c.shards[i].state == shardLeased && c.shards[i].leaseID == leaseID {
			return i
		}
	}
	return -1
}

func (c *Coordinator) renew(leaseID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i := c.findLocked(leaseID); i >= 0 {
		c.shards[i].deadline = time.Now().Add(c.opt.TTL)
	}
}

// applyProgress checkpoints a shard: the snapshot becomes the reclaim-resume
// point, sets the shard's status line and unions its coverage into the live
// status tracker, and then, outside the lock, extends the store checkpoint.
// Stale leases are discarded; and because a snapshot carries the whole
// campaign so far, a re-leased shard's replayed iterations do not count
// their errors twice. A snapshot that reaches the store after a later one
// of its shard (its lease reclaimed meanwhile) appends nothing.
func (c *Coordinator) applyProgress(p *Progress) {
	if p.Snapshot == nil {
		return
	}
	c.mu.Lock()
	i := c.findLocked(p.Lease)
	if i < 0 {
		c.mu.Unlock()
		return
	}
	sh := &c.shards[i]
	sh.deadline = time.Now().Add(c.opt.TTL)
	sh.iters = p.Iters
	sh.errCount = len(p.Snapshot.Errors)
	sh.resume = p.Snapshot
	c.mergeSnapshotCovLocked(sh.target, p.Snapshot)
	c.mu.Unlock()
	c.batch.Checkpoint(i, p.Snapshot)
}

// applyComplete resolves a shard with its final snapshot. The shard turns
// completing under the lock, so no frame, reclaim or grant touches it while
// sched.Batch.Finish writes the store outside the lock; it resolves, which
// may let Wait return, only after that write has returned.
func (c *Coordinator) applyComplete(cp *Complete) {
	if cp.Snapshot == nil {
		return
	}
	c.mu.Lock()
	i := c.findLocked(cp.Lease)
	if i >= 0 {
		c.shards[i].state = shardCompleting
		c.shards[i].leaseID = ""
	}
	c.mu.Unlock()
	if i < 0 {
		return
	}
	c.batch.Finish(i, cp.Snapshot.Result(), cp.Snapshot)
	c.logf("fleet: shard %d (%s) complete at %d iterations", i, c.label(i), cp.Snapshot.Iters)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resolveShardLocked(i, cp.Snapshot)
	// Fold after resolving the shard: stale leases (reclaimed shards whose
	// first holder reports late) are discarded above, so a re-leased
	// shard's bins land exactly once.
	c.prof.AddReport(cp.Profile)
}

func (c *Coordinator) applyError(e *ErrorReport) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i := c.findLocked(e.Lease); i >= 0 {
		c.failShardLocked(i, errors.New(e.Msg))
	}
}

// Wait blocks until every shard is resolved and returns the batch report,
// merged from the per-shard final snapshots in spec order by
// sched.Batch.Report — the merge sched.Run performs, which is what pins
// fleet == single-process equality.
func (c *Coordinator) Wait() *sched.Report {
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := c.batch.Report(c.nextSess)
	rep.Elapsed = time.Since(c.start)
	rep.Profile = c.prof.Report()
	return rep
}

// Done exposes the batch-drained signal.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// ServeStatus answers every connection on ln with one plain-text status
// dump and closes it — `nc host port` is the whole client.
func (c *Coordinator) ServeStatus(ln net.Listener) error {
	c.lnMu.Lock()
	c.statusLn = ln
	c.lnMu.Unlock()
	go func() {
		<-c.done
		// Give a final status readout a grace window? No: drained fleets
		// report through Wait; the endpoint dies with the batch.
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-c.done:
				return nil
			default:
				return err
			}
		}
		go func(conn net.Conn) {
			defer conn.Close()
			io.WriteString(conn, c.StatusText())
		}(conn)
	}
}

// StatusText renders the fleet's live state: per-shard lease state, live
// coverage counters per target, and worker liveness.
func (c *Coordinator) StatusText() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var b []byte
	app := func(format string, args ...any) { b = fmt.Appendf(b, format, args...) }
	batch := c.batch.ID()
	if batch == "" {
		batch = "(none)"
	}
	app("fleet batch %s: %d/%d shards resolved, up %s\n",
		batch, c.resolved, len(c.shards), time.Since(c.start).Round(time.Second))
	if prof := c.prof.Report(); len(prof) > 0 {
		app("%s\n", prof.Line(6))
	}
	app("\nshards:\n")
	for i := range c.shards {
		sh := &c.shards[i]
		line := fmt.Sprintf("  %-3d %-28s %-8s iters=%-5d errors=%-3d", i, sh.label, sh.state, sh.iters, sh.errCount)
		switch {
		case sh.state == shardLeased:
			line += fmt.Sprintf(" lease=%s worker=%d(%s) deadline=%s",
				sh.leaseID, sh.worker, sh.workerName, time.Until(sh.deadline).Round(time.Millisecond))
		case sh.state == shardDone && sh.reused:
			line += " (store)"
		case sh.state == shardFailed:
			line += fmt.Sprintf(" err=%v", sh.err)
		}
		if sh.reclaims > 0 {
			line += fmt.Sprintf(" reclaims=%d", sh.reclaims)
		}
		app("%s\n", line)
	}
	targets := make([]string, 0, len(c.cov))
	for name := range c.cov {
		targets = append(targets, name)
	}
	sort.Strings(targets)
	app("\ncoverage:\n")
	for _, name := range targets {
		app("  %-12s %d branches, %d functions\n", name, c.cov[name].Count(), len(c.cov[name].Funcs()))
	}
	ids := make([]int, 0, len(c.sessions))
	for id := range c.sessions {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	app("\nworkers: %d connected\n", len(ids))
	for _, id := range ids {
		s := c.sessions[id]
		held := 0
		for i := range c.shards {
			if c.shards[i].state == shardLeased && c.shards[i].worker == id {
				held++
			}
		}
		app("  %-3d %-16s %s leases=%d\n", id, s.name, s.conn.RemoteAddr(), held)
	}
	return string(b)
}
