// Package fleet is the coordinator/worker campaign fleet: one long-running
// `compi serve` process owns a scheduler batch and its campaign store, and
// any number of `compi work` processes — on the same machine or not — lease
// campaign shards from it over a TCP dispatch protocol, send progress
// snapshots back as they run, and return final snapshots.
//
// The protocol reuses the out-of-process target protocol's wire form
// (internal/proto's 4-byte big-endian length prefix + one JSON object per
// frame, via proto.ReadRaw/WriteRaw) with its own frame schema. A session:
//
//	worker connects
//	-> hello   {proto, name}
//	<- welcome {proto, worker, batch, ttl_ms, retry_ms, snapshot_every}
//	repeat until drained:
//	    -> lease-request {}
//	    <- lease {status, id, shard, spec, snapshot?, ttl_ms, retry_ms}
//	         status granted: run the shard —
//	             -> lease-renew {lease}               (ttl/3 cadence, keeps the lease)
//	             -> progress {lease, iters, snapshot} (every snapshot_every)
//	             -> complete {lease, snapshot}        (final snapshot)
//	           or
//	             -> error {lease, msg}                (deterministic spec error)
//	         status wait: sleep retry_ms, request again
//	         status drained: exit 0
//
// Frames from the worker after its lease has been reclaimed (the coordinator
// saw the deadline expire, or the connection dropped and the shard was
// re-leased) carry a stale lease ID and are discarded — re-leased shards
// resume from the last progress snapshot.
//
// Determinism: the coordinator's final report is assembled from per-shard
// FINAL snapshots merged in spec order by sched.Batch.Report — exactly how
// sched.Run builds its report — so a fleet's result is pinned equal to a
// single-process sched.Run over the same specs, regardless of worker count,
// scheduling order, or how many times shards were reclaimed mid-flight. The
// live status endpoint reads the same snapshots: each progress snapshot sets
// its shard's iteration and error counts and unions its coverage into the
// per-target status tracker, so the status advances every snapshot_every
// iterations.
package fleet

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/binstat"
	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/spec"
)

// Version is the campaign-dispatch protocol version, independent of the
// target protocol's. The coordinator refuses a worker speaking a different
// version; the frame schema is pinned by a golden-bytes test. Version 2
// replaced the lease frame's bespoke wire spec with the canonical
// spec.Campaign schema. Version 3 dropped the per-iteration merge frame:
// progress snapshots carry everything it did.
const Version = 3

// FrameType discriminates the dispatch protocol's frames.
type FrameType string

// The frame types of the dispatch protocol.
const (
	// FrameHello opens a session (worker → coordinator).
	FrameHello FrameType = "hello"
	// FrameWelcome accepts a session (coordinator → worker): the worker's
	// ID and the batch's pacing parameters.
	FrameWelcome FrameType = "welcome"
	// FrameLeaseRequest asks for a shard (worker → coordinator).
	FrameLeaseRequest FrameType = "lease-request"
	// FrameLease answers a request (coordinator → worker): a granted shard,
	// a wait backoff, or the batch-drained signal.
	FrameLease FrameType = "lease"
	// FrameRenew extends a lease's deadline (worker → coordinator).
	FrameRenew FrameType = "lease-renew"
	// FrameProgress checkpoints a shard (worker → coordinator): the current
	// engine snapshot, which is the coordinator's store checkpoint, the
	// resume point should this lease be reclaimed, and what the status
	// endpoint shows.
	FrameProgress FrameType = "progress"
	// FrameComplete finishes a shard (worker → coordinator): the final
	// snapshot the report row is built from.
	FrameComplete FrameType = "complete"
	// FrameError fails a shard deterministically (worker → coordinator):
	// the spec itself is unrunnable (unknown target, dead external binary).
	FrameError FrameType = "error"
)

// Frame is the wire envelope: a type tag plus exactly one payload, the one
// matching the type.
type Frame struct {
	Type     FrameType     `json:"type"`
	Hello    *Hello        `json:"hello,omitempty"`
	Welcome  *Welcome      `json:"welcome,omitempty"`
	LeaseReq *LeaseRequest `json:"lease_request,omitempty"`
	Lease    *Lease        `json:"lease,omitempty"`
	Renew    *Renew        `json:"renew,omitempty"`
	Progress *Progress     `json:"progress,omitempty"`
	Complete *Complete     `json:"complete,omitempty"`
	Error    *ErrorReport  `json:"error,omitempty"`
}

// Hello opens a worker session.
type Hello struct {
	Proto int    `json:"proto"`
	Name  string `json:"name,omitempty"`
}

// Welcome accepts a worker session. Times travel as explicit units (ms) so
// both ends agree without sharing a clock.
type Welcome struct {
	Proto int `json:"proto"`
	// Worker is the coordinator-assigned session ID, used in status output.
	Worker int `json:"worker"`
	// Batch is the store batch this fleet is running.
	Batch string `json:"batch,omitempty"`
	// TTLMS is the lease time-to-live: a lease not renewed or advanced for
	// this long is reclaimed and re-leased to another worker.
	TTLMS int64 `json:"ttl_ms"`
	// RetryMS is the backoff before re-requesting after a wait lease.
	RetryMS int64 `json:"retry_ms"`
	// SnapshotEvery is the progress-snapshot cadence in iterations.
	SnapshotEvery int `json:"snapshot_every"`
	// Profile asks workers to run their engines under a phase profiler and
	// ship the per-shard report in the complete frame. Profiling is
	// observational — trajectories are pinned byte-identical either way — so
	// a worker may also enable it locally; this flag just lets one
	// coordinator switch the whole fleet.
	Profile bool `json:"profile,omitempty"`
}

// LeaseRequest asks for the next shard.
type LeaseRequest struct{}

// Lease statuses.
const (
	// LeaseGranted carries a shard to run.
	LeaseGranted = "granted"
	// LeaseWait means every remaining shard is leased elsewhere; retry
	// after RetryMS.
	LeaseWait = "wait"
	// LeaseDrained means every shard is resolved; the worker should exit.
	LeaseDrained = "drained"
)

// Lease answers a lease request.
type Lease struct {
	Status string `json:"status"`
	// ID names the lease ("shard<i>.g<generation>"); every later frame about
	// this shard must carry it, and a reclaimed lease's ID never validates
	// again.
	ID string `json:"id,omitempty"`
	// Shard is the spec index in the coordinator's batch.
	Shard int `json:"shard,omitempty"`
	// Spec is the campaign to run: the canonical data-only schema
	// (internal/spec). Specs carrying live objects never reach the wire —
	// the coordinator refuses them at batch build (spec.Portable).
	Spec *spec.Campaign `json:"spec,omitempty"`
	// Snapshot, when non-nil, is the shard's resume point: the store's (or a
	// reclaimed predecessor's) last checkpoint. The worker restores it
	// before running, making re-leased work continue instead of restart.
	Snapshot *core.Snapshot `json:"snapshot,omitempty"`
	TTLMS    int64          `json:"ttl_ms,omitempty"`
	RetryMS  int64          `json:"retry_ms,omitempty"`
}

// Renew extends a lease.
type Renew struct {
	Lease string `json:"lease"`
}

// Progress checkpoints a running shard.
type Progress struct {
	Lease    string         `json:"lease"`
	Iters    int            `json:"iters"`
	Snapshot *core.Snapshot `json:"snapshot"`
}

// Complete finishes a shard with its final snapshot. Profile, when present,
// is the shard engine's phase-profile report (the worker ran with profiling
// on); the coordinator folds it into the fleet-wide aggregate shown by the
// status endpoint.
type Complete struct {
	Lease    string         `json:"lease"`
	Snapshot *core.Snapshot `json:"snapshot"`
	Profile  binstat.Report `json:"profile,omitempty"`
}

// ErrorReport fails a shard: the spec cannot run, deterministically, on any
// worker (unknown target, unstartable external binary). Msg becomes the
// campaign's report error, matching what sched.Run would record.
type ErrorReport struct {
	Lease string `json:"lease"`
	Msg   string `json:"msg"`
}

// validate checks the type tag is known and its payload present.
func (f *Frame) validate() error {
	var ok bool
	switch f.Type {
	case FrameHello:
		ok = f.Hello != nil
	case FrameWelcome:
		ok = f.Welcome != nil
	case FrameLeaseRequest:
		ok = f.LeaseReq != nil
	case FrameLease:
		ok = f.Lease != nil
	case FrameRenew:
		ok = f.Renew != nil
	case FrameProgress:
		ok = f.Progress != nil
	case FrameComplete:
		ok = f.Complete != nil
	case FrameError:
		ok = f.Error != nil
	default:
		return fmt.Errorf("fleet: unknown frame type %q", f.Type)
	}
	if !ok {
		return fmt.Errorf("fleet: %q frame without its payload", f.Type)
	}
	return nil
}

// WriteFrame writes f to w in the shared length-prefixed wire form.
func WriteFrame(w io.Writer, f Frame) error {
	if err := f.validate(); err != nil {
		return err
	}
	payload, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("fleet: encoding %q frame: %w", f.Type, err)
	}
	return proto.WriteRaw(w, payload)
}

// ReadFrame reads one frame from r: one length-prefixed payload that must
// decode to exactly one valid frame envelope.
func ReadFrame(r io.Reader) (Frame, error) {
	payload, err := proto.ReadRaw(r)
	if err != nil {
		return Frame{}, err
	}
	var f Frame
	if err := json.Unmarshal(payload, &f); err != nil {
		return Frame{}, fmt.Errorf("fleet: bad frame payload: %w", err)
	}
	if err := f.validate(); err != nil {
		return Frame{}, err
	}
	return f, nil
}
