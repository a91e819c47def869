package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/solver"
	"repro/internal/store"
)

// The traced run wraps the public seams through which the benchmark calls
// each layer — core.SolverService, core.Backend, the per-spec Trace and
// Checkpoint hooks, the fleet listener — and records a span per call. Nothing
// inside the repository is instrumented. Spans stay in memory and are written
// out as a Chrome trace when the run ends.

// span is one timed call at a layer boundary. parent is the span that caused
// it (0 for a unit); tid groups a campaign's spans in the trace viewer.
type span struct {
	name       string
	id, parent int
	tid        int
	start, end time.Time
}

// tracer collects the spans and layer counters of a run's traced units.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	nextID int
	spans  []span
	unitID int
	tids   map[string]int // campaign label → trace-viewer thread

	counts      map[string]float64 // additive layer counters, by metric name
	solverDur   []time.Duration
	solverPreds []int
	calls       [][]expr.Pred // every solver call's predicate set, for the expr replay
	launchDur   []time.Duration
	ckptDur     []time.Duration
	protoStart  []time.Duration
	reuse       []time.Duration
	query       []time.Duration

	canonDur    []time.Duration
	canonPreds  int
	memoHits    int64
	memoLookups int64

	tracedWall, untracedWall time.Duration
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), tids: map[string]int{}, counts: map[string]float64{}}
}

func (t *tracer) newID() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// beginUnit opens the unit span every campaign span of the unit hangs off.
func (t *tracer) beginUnit() {
	if t == nil {
		return
	}
	t.unitID = t.newID()
}

func (t *tracer) endUnit(start, end time.Time) {
	if t == nil {
		return
	}
	t.add(span{name: "unit", id: t.unitID, start: start, end: end})
}

// pair records a traced unit's wall time next to its untraced twin's.
func (t *tracer) pair(traced, untraced time.Duration) {
	t.tracedWall += traced
	t.untracedWall += untraced
}

// campaign starts tracing one campaign of the current unit.
func (t *tracer) campaign(label string) *campTrace {
	t.mu.Lock()
	tid, ok := t.tids[label]
	if !ok {
		tid = len(t.tids) + 1
		t.tids[label] = tid
	}
	t.nextID++
	c := &campTrace{t: t, id: t.nextID, parent: t.unitID, tid: tid}
	t.mu.Unlock()
	return c
}

func (t *tracer) protoStarted(start, end time.Time) {
	if t == nil {
		return
	}
	t.add(span{name: "proto.start", id: t.newID(), parent: t.unitID, start: start, end: end})
	t.mu.Lock()
	t.protoStart = append(t.protoStart, end.Sub(start))
	t.mu.Unlock()
}

// reusePass records one pass over a finished store: the whole pass and its
// index query.
func (t *tracer) reusePass(start, q0, q1, end time.Time) {
	if t == nil {
		return
	}
	id := t.newID()
	t.add(span{name: "store.reuse", id: id, parent: t.unitID, start: start, end: end})
	t.add(span{name: "store.query", id: t.newID(), parent: id, start: q0, end: q1})
	t.mu.Lock()
	t.reuse = append(t.reuse, end.Sub(start))
	t.query = append(t.query, q1.Sub(q0))
	t.mu.Unlock()
}

func (t *tracer) queried(q0, q1 time.Time) {
	t.add(span{name: "store.query", id: t.newID(), parent: t.unitID, start: q0, end: q1})
	t.mu.Lock()
	t.query = append(t.query, q1.Sub(q0))
	t.mu.Unlock()
}

// launched records one execution: the span and what the focus log says.
func (t *tracer) launched(start, end time.Time, parent, tid, nprocs int, failed bool, events, logBytes, pathPreds int, raw int64) {
	t.add(span{name: "mpi.launch", id: t.newID(), parent: parent, tid: tid, start: start, end: end})
	t.mu.Lock()
	defer t.mu.Unlock()
	t.launchDur = append(t.launchDur, end.Sub(start))
	t.counts["mpi.ranks"] += float64(nprocs)
	if failed {
		t.counts["mpi.failed_runs"]++
	}
	t.counts["conc.trace_events"] += float64(events)
	t.counts["conc.log_bytes"] += float64(logBytes)
	t.counts["conc.path_preds"] += float64(pathPreds)
	t.counts["conc.raw_constraints"] += float64(raw)
}

func (t *tracer) solved(start, end time.Time, parent, tid int, preds []expr.Pred) {
	t.add(span{name: "solver.call", id: t.newID(), parent: parent, tid: tid, start: start, end: end})
	t.mu.Lock()
	defer t.mu.Unlock()
	t.solverDur = append(t.solverDur, end.Sub(start))
	t.solverPreds = append(t.solverPreds, len(preds))
	t.calls = append(t.calls, preds)
}

// campaignResult adds the engine's own counters for one campaign.
func (t *tracer) campaignResult(res core.Result) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts["core.solver_calls"] += float64(res.SolverCall)
	t.counts["core.unsat_calls"] += float64(res.UnsatCalls)
	t.counts["core.refuted_skips"] += float64(res.RefutedSkips)
	t.counts["core.restarts"] += float64(res.Restarts)
	t.counts["coverage.branches"] += float64(res.Coverage.Count())
}

// solverStats adds a solver service's counter window.
func (t *tracer) solverStats(s solver.Stats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts["solver.service_calls"] += float64(s.Calls)
	t.counts["solver.sat_hits"] += float64(s.SATHits)
	t.counts["solver.unsat_hits"] += float64(s.UnsatHits)
	t.counts["solver.live_solves"] += float64(s.Misses)
	t.counts["solver.live_s"] += s.LiveTime.Seconds()
}

// batchDone adds a batch driver's occupancy: busy is the sum of the
// campaigns' engine time, capacity the workers times the batch wall time.
func (t *tracer) batchDone(driver string, rep *sched.Report, workers int, wall time.Duration, dirBytes int64) {
	var busy time.Duration
	for _, c := range rep.Campaigns {
		busy += campaignElapsed(c.Result)
	}
	t.count(driver+".busy_s", busy.Seconds())
	t.count(driver+".capacity_s", float64(workers)*wall.Seconds())
	t.count("store.dir_bytes", float64(dirBytes))
}

func (t *tracer) fleetTraffic(l *countingListener) {
	t.count("fleet.bytes_in", float64(l.in.Load()))
	t.count("fleet.bytes_out", float64(l.out.Load()))
	t.count("fleet.reads", float64(l.reads.Load()))
}

// campaignElapsed is a campaign's engine time. Results rebuilt from a
// snapshot carry no Elapsed; their last iteration's cumulative time is the
// same quantity.
func campaignElapsed(res core.Result) time.Duration {
	if res.Elapsed > 0 || len(res.Iterations) == 0 {
		return res.Elapsed
	}
	return res.Iterations[len(res.Iterations)-1].Elapsed
}

// instrumentBatch gives every spec its own solver wrapper around the shared
// service and Trace/Checkpoint hooks that bracket each Snapshot plus
// SaveCampaign. The hooks leave the setup key intact, so the batch still
// checkpoints and reattaches; they do make the specs non-portable, so the
// traced batch manifest carries no stamped specs.
func (t *tracer) instrumentBatch(specs []sched.Spec, dir string, svc *solver.Service) ([]sched.Spec, []*campTrace) {
	out := make([]sched.Spec, len(specs))
	cts := make([]*campTrace, len(specs))
	for i, sp := range specs {
		ct := t.campaign(sp.DisplayLabel())
		key, _ := sched.SetupKey(sp)
		file := filepath.Join(dir, "campaigns", store.CampaignName(sp.DisplayLabel(), key)+".json")
		sp.Overrides.Solver = &tracedSolver{inner: svc, c: ct}
		sp.Overrides.Trace = func(it core.IterationStat) { ct.iterDone(it, time.Now(), true) }
		sp.Overrides.Checkpoint = func(*core.Snapshot) {
			now := time.Now()
			var size int64
			if fi, err := os.Stat(file); err == nil {
				size = fi.Size()
			}
			ct.ckptDone(now, size)
		}
		out[i], cts[i] = sp, ct
	}
	return out, cts
}

// campTrace is one campaign's span state. Every hook of a campaign runs on
// its engine's goroutine, so the fields need no lock.
type campTrace struct {
	t               *tracer
	id, parent, tid int
	iter            int       // the open iteration span's ID, 0 until a child or the Trace callback needs it
	start, last     time.Time // engine start; the previous iteration or checkpoint boundary
}

func (c *campTrace) open() int {
	if c.iter == 0 {
		c.iter = c.t.newID()
	}
	return c.iter
}

// iterDone closes the iteration span at now. An iteration starts at the
// previous boundary (the engine start for the first). With synth, the
// iteration's execution comes from IterationStat.RunTime instead of a backend
// wrapper: it is placed at the start of the iteration, where the engine
// launches.
func (c *campTrace) iterDone(it core.IterationStat, now time.Time, synth bool) {
	if c == nil {
		return
	}
	start := c.last
	if start.IsZero() {
		start = now.Add(-it.Elapsed)
		c.start = start
	}
	id := c.open()
	if synth {
		c.t.launched(start, start.Add(it.RunTime), id, c.tid, it.NProcs, it.Failed, 0, it.FocusLog, it.PathLen, it.RawCount)
	}
	c.t.add(span{name: "core.iteration", id: id, parent: c.id, tid: c.tid, start: start, end: now})
	c.last, c.iter = now, 0
}

// ckptDone closes the checkpoint that followed the last iteration.
func (c *campTrace) ckptDone(now time.Time, bytes int64) {
	c.t.add(span{name: "store.ckpt", id: c.t.newID(), parent: c.id, tid: c.tid, start: c.last, end: now})
	c.t.mu.Lock()
	c.t.ckptDur = append(c.t.ckptDur, now.Sub(c.last))
	c.t.counts["store.ckpt_bytes"] += float64(bytes)
	c.t.mu.Unlock()
	c.last = now
}

// replay places a finished campaign's iterations from its Elapsed history,
// anchored at the engine start.
func (c *campTrace) replay(anchor time.Time, its []core.IterationStat) {
	if anchor.IsZero() {
		return
	}
	c.start, c.last = anchor, anchor
	for _, it := range its {
		c.iterDone(it, anchor.Add(it.Elapsed), true)
	}
}

// finish closes the campaign span.
func (c *campTrace) finish() {
	if c == nil || c.start.IsZero() {
		return
	}
	c.t.add(span{name: "campaign", id: c.id, parent: c.parent, tid: c.tid, start: c.start, end: c.last})
}

// tracedSolver times every call into a solver service and keeps a copy of
// the predicate set for the expr replay.
type tracedSolver struct {
	inner core.SolverService
	c     *campTrace
}

func (s *tracedSolver) SolveIncremental(preds []expr.Pred, prev map[expr.Var]int64, opt solver.Options) (solver.Result, bool) {
	rec := append([]expr.Pred(nil), preds...) // preds is only valid during the call
	t0 := time.Now()
	r, ok := s.inner.SolveIncremental(preds, prev, opt)
	s.c.t.solved(t0, time.Now(), s.c.open(), s.c.tid, rec)
	return r, ok
}

func (s *tracedSolver) Stats() solver.Stats { return s.inner.Stats() }

// tracedBackend times every launch and reads the focus rank's log.
type tracedBackend struct {
	inner core.Backend
	c     *campTrace
}

func (b *tracedBackend) Launch(s core.LaunchSpec) mpi.RunResult {
	t0 := time.Now()
	run := b.inner.Launch(s)
	t1 := time.Now()
	var events, logBytes, path int
	var raw int64
	if s.Focus >= 0 && s.Focus < len(run.Ranks) {
		rr := run.Ranks[s.Focus]
		logBytes = rr.LogBytes
		if rr.Log != nil {
			events, path, raw = len(rr.Log.Trace), len(rr.Log.Path), rr.Log.RawCount
		}
	}
	b.c.t.launched(t0, t1, b.c.open(), b.c.tid, s.NProcs, run.Failed(), events, logBytes, path, raw)
	return run
}

func (b *tracedBackend) Close() error { return b.inner.Close() }

// countingListener counts the coordinator side of every worker connection.
type countingListener struct {
	net.Listener
	in, out, reads atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.in.Add(int64(n))
	c.l.reads.Add(1)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.out.Add(int64(n))
	return n, err
}

// replayExpr canonicalizes the recorded solver-call predicate sets once more,
// directly through expr.CanonicalKey and through a fresh expr.KeyMemo. The
// sample takes every k-th call, with k the smallest stride that keeps the
// sample under budget predicates: canonicalization is superlinear in set
// size, so replaying every deep SUSY set would cost as much as the campaign.
func (t *tracer) replayExpr(budget int) {
	calls := t.calls
	t.calls = nil
	total := 0
	for _, p := range calls {
		total += len(p)
	}
	stride := 1
	if total > budget {
		stride = (total + budget - 1) / budget
	}
	memo := expr.NewKeyMemo(0)
	for i := 0; i < len(calls); i += stride {
		t0 := time.Now()
		expr.CanonicalKey(calls[i])
		t.canonDur = append(t.canonDur, time.Since(t0))
		t.canonPreds += len(calls[i])
		memo.Key(calls[i])
	}
	hits, lookups := memo.Stats()
	t.memoHits += hits
	t.memoLookups += lookups
}

// layerMetrics lists every per-layer metric with its unit, in print order.
var layerMetrics = []metricDef{
	{"wall_s", "s"},
	{"trace_overhead_frac", "ratio"},
	{"iter_p50_ms", "ms"},
	{"iter_p99_ms", "ms"},
	{"time_to_cov_s", "s"},
	{"core.self_s", "s"},
	{"core.solver_calls", "count"},
	{"core.unsat_calls", "count"},
	{"core.refuted_skips", "count"},
	{"core.accept_ratio", "ratio"},
	{"core.restarts", "count"},
	{"expr.canon_calls", "count"},
	{"expr.canon_s", "s"},
	{"expr.canon_ns_per_pred", "ns"},
	{"expr.canon_p99_us", "us"},
	{"expr.memo_hit_ratio", "ratio"},
	{"solver.calls", "count"},
	{"solver.busy_s", "s"},
	{"solver.self_s", "s"},
	{"solver.call_p50_us", "us"},
	{"solver.call_p99_us", "us"},
	{"solver.preds_mean", "count"},
	{"solver.preds_max", "count"},
	{"solver.sat_hits", "count"},
	{"solver.unsat_hits", "count"},
	{"solver.live_solves", "count"},
	{"solver.live_s", "s"},
	{"solver.hit_ratio", "ratio"},
	{"mpi.launches", "count"},
	{"mpi.busy_s", "s"},
	{"mpi.launch_p50_us", "us"},
	{"mpi.launch_p99_us", "us"},
	{"mpi.ranks", "count"},
	{"mpi.failed_runs", "count"},
	{"conc.trace_events", "count"},
	{"conc.log_bytes", "bytes"},
	{"conc.path_preds", "count"},
	{"conc.raw_constraints", "count"},
	{"conc.reduction_ratio", "ratio"},
	{"coverage.branches", "count"},
	{"proto.start_s", "s"},
	{"proto.child_rss_mb", "MiB"},
	{"store.ckpt_calls", "count"},
	{"store.ckpt_s", "s"},
	{"store.ckpt_p50_ms", "ms"},
	{"store.ckpt_p99_ms", "ms"},
	{"store.ckpt_bytes", "bytes"},
	{"store.dir_bytes", "bytes"},
	{"store.query_ms", "ms"},
	{"store.reuse_ms", "ms"},
	{"sched.campaigns", "count"},
	{"sched.busy_s", "s"},
	{"sched.utilization", "ratio"},
	{"sched.reused", "count"},
	{"fleet.bytes_in", "bytes"},
	{"fleet.bytes_out", "bytes"},
	{"fleet.reads", "count"},
	{"fleet.busy_s", "s"},
	{"fleet.utilization", "ratio"},
}

// metrics computes every per-layer metric. A layer the workload never calls
// reports 0.
func (t *tracer) metrics() map[string]float64 {
	self := t.selfTimes()
	c := t.counts
	solverBusy := sum(t.solverDur).Seconds()
	ckpt := sum(t.ckptDur).Seconds()
	maxPreds := 0
	for _, n := range t.solverPreds {
		maxPreds = max(maxPreds, n)
	}
	return map[string]float64{
		"wall_s":                 t.tracedWall.Seconds(),
		"trace_overhead_frac":    ratio(t.tracedWall.Seconds(), t.untracedWall.Seconds()) - 1,
		"core.self_s":            self["core.iteration"],
		"core.solver_calls":      c["core.solver_calls"],
		"core.unsat_calls":       c["core.unsat_calls"],
		"core.refuted_skips":     c["core.refuted_skips"],
		"core.accept_ratio":      ratio(c["core.solver_calls"]-c["core.unsat_calls"], c["core.solver_calls"]),
		"core.restarts":          c["core.restarts"],
		"expr.canon_calls":       float64(len(t.canonDur)),
		"expr.canon_s":           sum(t.canonDur).Seconds(),
		"expr.canon_ns_per_pred": ratio(float64(sum(t.canonDur).Nanoseconds()), float64(t.canonPreds)),
		"expr.canon_p99_us":      micros(percentile(t.canonDur, 0.99)),
		"expr.memo_hit_ratio":    ratio(float64(t.memoHits), float64(t.memoLookups)),
		"solver.calls":           float64(len(t.solverDur)),
		"solver.busy_s":          solverBusy,
		"solver.self_s":          solverBusy - c["solver.live_s"],
		"solver.call_p50_us":     micros(percentile(t.solverDur, 0.50)),
		"solver.call_p99_us":     micros(percentile(t.solverDur, 0.99)),
		"solver.preds_mean":      ratio(float64(sumInts(t.solverPreds)), float64(len(t.solverPreds))),
		"solver.preds_max":       float64(maxPreds),
		"solver.sat_hits":        c["solver.sat_hits"],
		"solver.unsat_hits":      c["solver.unsat_hits"],
		"solver.live_solves":     c["solver.live_solves"],
		"solver.live_s":          c["solver.live_s"],
		"solver.hit_ratio":       ratio(c["solver.sat_hits"]+c["solver.unsat_hits"], c["solver.service_calls"]),
		"mpi.launches":           float64(len(t.launchDur)),
		"mpi.busy_s":             sum(t.launchDur).Seconds(),
		"mpi.launch_p50_us":      micros(percentile(t.launchDur, 0.50)),
		"mpi.launch_p99_us":      micros(percentile(t.launchDur, 0.99)),
		"mpi.ranks":              c["mpi.ranks"],
		"mpi.failed_runs":        c["mpi.failed_runs"],
		"conc.trace_events":      c["conc.trace_events"],
		"conc.log_bytes":         c["conc.log_bytes"],
		"conc.path_preds":        c["conc.path_preds"],
		"conc.raw_constraints":   c["conc.raw_constraints"],
		"conc.reduction_ratio":   1 - ratio(c["conc.path_preds"], c["conc.raw_constraints"]),
		"coverage.branches":      c["coverage.branches"],
		"proto.start_s":          median(t.protoStart).Seconds(),
		"proto.child_rss_mb":     childRSSMiB(),
		"store.ckpt_calls":       float64(len(t.ckptDur)),
		"store.ckpt_s":           ckpt,
		"store.ckpt_p50_ms":      millis(percentile(t.ckptDur, 0.50)),
		"store.ckpt_p99_ms":      millis(percentile(t.ckptDur, 0.99)),
		"store.ckpt_bytes":       c["store.ckpt_bytes"],
		"store.dir_bytes":        c["store.dir_bytes"],
		"store.query_ms":         millis(median(t.query)),
		"store.reuse_ms":         millis(median(t.reuse)),
		"sched.campaigns":        c["sched.campaigns"],
		"sched.busy_s":           c["sched.busy_s"],
		"sched.utilization":      ratio(c["sched.busy_s"], c["sched.capacity_s"]),
		"sched.reused":           c["sched.reused"],
		"fleet.bytes_in":         c["fleet.bytes_in"],
		"fleet.bytes_out":        c["fleet.bytes_out"],
		"fleet.reads":            c["fleet.reads"],
		"fleet.busy_s":           c["fleet.busy_s"],
		"fleet.utilization":      ratio(c["fleet.busy_s"], c["fleet.capacity_s"]),
	}
}

// selfTimes is each span name's total self time in seconds: a span's
// duration minus the time its child spans cover. Unit spans are left out —
// concurrent campaigns overlap inside them.
func (t *tracer) selfTimes() map[string]float64 {
	children := map[int]time.Duration{}
	for _, s := range t.spans {
		children[s.parent] += s.end.Sub(s.start)
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		if s.name != "unit" {
			self[s.name] += (s.end.Sub(s.start) - children[s.id]).Seconds()
		}
	}
	return self
}

// writeSelfTable prints the self time per span name and its share of all
// traced self time, largest first.
func (t *tracer) writeSelfTable(w io.Writer) {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	total := 0.0
	for n, v := range self {
		names = append(names, n)
		total += v
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "self time by span (traced units, %.3f s wall):\n", t.tracedWall.Seconds())
	for _, n := range names {
		fmt.Fprintf(w, "  %-16s %10.4f s  %5.1f%%\n", n, self[n], 100*ratio(self[n], total))
	}
}

// childRSSMiB is the peak resident set of the largest reaped child process
// (the compi-target of stencil-pipe; 0 when none ran).
func childRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// writeChrome writes the spans as Chrome trace-event JSON, which Perfetto
// and chrome://tracing open.
func (t *tracer) writeChrome(path string, process string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	events := []event{{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": process}}}
	for label, tid := range t.tids {
		events = append(events, event{Name: "thread_name", Ph: "M", PID: 1, TID: tid, Args: map[string]any{"name": label}})
	}
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.name, Cat: strings.SplitN(s.name, ".", 2)[0], Ph: "X",
			TS: us(s.start.Sub(t.epoch)), Dur: us(s.end.Sub(s.start)), PID: 1, TID: s.tid,
			Args: map[string]any{"id": s.id, "parent": s.parent},
		})
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
