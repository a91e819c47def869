package fleet_test

import (
	"bytes"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/fleet"
	"repro/internal/sched"
	"repro/internal/solver"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/targets/stencil"
	"repro/internal/targets/susy"
)

// fleetSpecs is the test grid: two skeleton seeds, a stencil campaign, and
// an unfixed SUSY campaign whose seeded bug produces error records — so the
// equality checks cover coverage, iteration history, and error dedup alike.
func fleetSpecs(iters int) []sched.Spec {
	mk := func(target string, seed int64, c spec.Campaign) sched.Spec {
		c.Target = target
		c.Seed = seed
		c.Iterations = iters
		c.Reduction = true
		c.Framework = true
		if c.RunTimeout == 0 {
			c.RunTimeout = 10 * time.Second
		}
		return sched.Spec{Campaign: c}
	}
	return []sched.Spec{
		mk("skeleton", 3, spec.Campaign{}),
		mk("skeleton", 4, spec.Campaign{}),
		mk("stencil", 11, spec.Campaign{Params: stencil.FixAll(), DFSPhase: 10, MaxTicks: 3_000_000}),
		mk("susy-hmc", 21, spec.Campaign{Params: susy.UnfixAll(), Inputs: susy.DefaultInputs()}),
	}
}

// fingerprint reduces a report to what the determinism contract covers —
// the same dimensions sched's own tests pin, plus per-campaign iteration
// counts (resumed shards must report whole campaigns, not their tail).
type fingerprint struct {
	campaignCov   [][]conc.BranchBit
	campaignIters [][]core.IterationStat // wall-clock zeroed
	solverCalls   []int
	unsatCalls    []int
	mergedCov     map[string][]conc.BranchBit
	errorKeys     map[string][]string
}

func fingerprintOf(r *sched.Report) fingerprint {
	fp := fingerprint{
		mergedCov: map[string][]conc.BranchBit{},
		errorKeys: map[string][]string{},
	}
	for _, c := range r.Campaigns {
		fp.campaignCov = append(fp.campaignCov, c.Result.Coverage.Branches())
		its := append([]core.IterationStat(nil), c.Result.Iterations...)
		for i := range its {
			its[i].Elapsed, its[i].RunTime = 0, 0
		}
		fp.campaignIters = append(fp.campaignIters, its)
		fp.solverCalls = append(fp.solverCalls, c.Result.SolverCall)
		fp.unsatCalls = append(fp.unsatCalls, c.Result.UnsatCalls)
	}
	for name, cov := range r.Coverage {
		fp.mergedCov[name] = cov.Branches()
	}
	for name, byMsg := range r.Errors {
		var msgs []string
		for msg := range byMsg {
			msgs = append(msgs, msg)
		}
		sort.Strings(msgs)
		fp.errorKeys[name] = msgs
	}
	return fp
}

// deterministicSummary renders the report's deterministic lines: the
// per-target rollups and per-error-key lines WriteSummary prints, excluding
// everything wall-clock. Byte-equality of this rendering is the "merged
// report byte-equal to an uninterrupted single-process run" contract.
func deterministicSummary(r *sched.Report) string {
	var buf bytes.Buffer
	r.WriteSummary(&buf)
	var keep []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, "branches covered") || strings.HasPrefix(line, "  [") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// startFleet serves a coordinator on a loopback listener.
func startFleet(t *testing.T, specs []sched.Spec, opt fleet.Options) (*fleet.Coordinator, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		opt.Logf = t.Logf
	}
	c := fleet.NewCoordinator(specs, opt)
	go c.Serve(ln)
	return c, ln.Addr().String()
}

// workInProcess runs n worker loops in-process and waits for them.
func workInProcess(t *testing.T, addr string, n int) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := fleet.Work(addr, fleet.WorkerOptions{Name: t.Name()}); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
}

// zooWorker re-execs the test binary as a fleet worker (or fault mode).
func zooWorker(t *testing.T, addr, mode, name string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"COMPI_FLEET_FAULT="+mode,
		"COMPI_FLEET_ADDR="+addr,
		"COMPI_FLEET_NAME="+name,
	)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

// TestFleetMatchesSched is the fleet determinism contract: a coordinator
// plus two workers produce the same report as a single-process sched.Run
// over the same specs — same per-campaign coverage, same merged rollups,
// same error keys, byte-identical deterministic summary.
func TestFleetMatchesSched(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	const iters = 30
	ref := sched.Run(fleetSpecs(iters), sched.Options{Workers: 2})
	want := fingerprintOf(ref)

	c, addr := startFleet(t, fleetSpecs(iters), fleet.Options{})
	workInProcess(t, addr, 2)
	rep := c.Wait()
	for _, camp := range rep.Campaigns {
		if camp.Err != nil {
			t.Fatalf("fleet campaign %q: %v", camp.Label, camp.Err)
		}
	}
	if got := fingerprintOf(rep); !reflect.DeepEqual(got, want) {
		t.Fatal("fleet report diverged from single-process sched.Run")
	}
	if got, wantS := deterministicSummary(rep), deterministicSummary(ref); got != wantS {
		t.Fatalf("summaries differ:\n--- fleet ---\n%s\n--- sched ---\n%s", got, wantS)
	}
}

// TestFleetWorkerKilledMidLease is the crash-recovery contract: a re-exec'd
// worker process is SIGKILLed while it holds a lease mid-campaign; the
// coordinator reclaims the shard on connection loss, re-leases it to a
// replacement worker resuming from the last progress snapshot, and the final
// report is identical — including error records recorded once, not once per
// lease — to the uninterrupted single-process run.
func TestFleetWorkerKilledMidLease(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-process campaign test")
	}
	const iters = 60
	ref := sched.Run(fleetSpecs(iters), sched.Options{Workers: 2})
	want := fingerprintOf(ref)

	c, addr := startFleet(t, fleetSpecs(iters), fleet.Options{
		SnapshotEvery: 2, // checkpoint densely so the kill lands mid-campaign with progress behind it
	})
	victim := zooWorker(t, addr, "worker", "victim")

	// Kill once the victim has sent a progress snapshot on some lease: poll
	// the status text for a shard that is leased AND past iteration zero.
	midLease := regexp.MustCompile(`leased\s+iters=[1-9]`)
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := c.StatusText()
		if midLease.MatchString(st) {
			break
		}
		if time.Now().After(deadline) {
			victim.Process.Kill()
			t.Fatalf("victim never made progress; status:\n%s", st)
		}
		time.Sleep(time.Millisecond)
	}
	victim.Process.Kill()
	victim.Wait()

	// A replacement finishes the batch.
	workInProcess(t, addr, 2)
	rep := c.Wait()
	for _, camp := range rep.Campaigns {
		if camp.Err != nil {
			t.Fatalf("campaign %q: %v", camp.Label, camp.Err)
		}
	}
	if got := fingerprintOf(rep); !reflect.DeepEqual(got, want) {
		t.Fatal("report after mid-lease kill diverged from the uninterrupted run")
	}
	if got, wantS := deterministicSummary(rep), deterministicSummary(ref); got != wantS {
		t.Fatalf("summaries differ after kill:\n--- fleet ---\n%s\n--- sched ---\n%s", got, wantS)
	}
	// The victim's death must have reclaimed at least one shard.
	if st := c.StatusText(); !strings.Contains(st, "reclaims=") {
		t.Fatalf("no shard was reclaimed; status:\n%s", st)
	}
}

// TestFleetFaultyWorkersReclaimed: a worker that takes a lease and stalls
// (never renews) loses it to the deadline reaper; one that emits garbage
// loses its connection — and therefore its lease — immediately. Either way
// a healthy worker finishes the batch with the reference result.
func TestFleetFaultyWorkersReclaimed(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-process campaign test")
	}
	const iters = 20
	ref := sched.Run(fleetSpecs(iters), sched.Options{Workers: 2})
	want := fingerprintOf(ref)

	for _, mode := range []string{"stall", "garbage"} {
		t.Run(mode, func(t *testing.T) {
			c, addr := startFleet(t, fleetSpecs(iters), fleet.Options{
				TTL:   500 * time.Millisecond, // stalled leases must expire within the test
				Retry: 50 * time.Millisecond,
			})
			faulty := zooWorker(t, addr, mode, mode)
			defer func() {
				faulty.Process.Kill()
				faulty.Wait()
			}()

			// Wait until the faulty worker actually holds a lease (its name
			// shows in a leased shard's "worker=N(name)"; the workers list
			// names it from the handshake on) or already lost one (a reclaim
			// happened — no other worker exists yet, so it must have leased
			// first). Only then may the healthy workers start, so the faulty
			// one cannot be starved of shards.
			deadline := time.Now().Add(30 * time.Second)
			for {
				st := c.StatusText()
				if strings.Contains(st, "("+mode+")") || strings.Contains(st, "reclaims=") {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("faulty worker never leased; status:\n%s", st)
				}
				time.Sleep(time.Millisecond)
			}

			workInProcess(t, addr, 2)
			rep := c.Wait()
			for _, camp := range rep.Campaigns {
				if camp.Err != nil {
					t.Fatalf("campaign %q: %v", camp.Label, camp.Err)
				}
			}
			if got := fingerprintOf(rep); !reflect.DeepEqual(got, want) {
				t.Fatalf("report after %s worker diverged from reference", mode)
			}
			if !strings.Contains(c.StatusText(), "reclaims=") {
				t.Fatalf("%s worker's lease was never reclaimed", mode)
			}
		})
	}
}

// TestFleetStoreResumeAndReuse: a store-backed fleet behaves like a
// store-backed sched.Run — a second fleet over the same specs answers every
// shard from the store, and a longer fleet resumes rather than restarts,
// landing on the uninterrupted reference.
func TestFleetStoreResumeAndReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	const k, n = 10, 25
	want := fingerprintOf(sched.Run(fleetSpecs(n), sched.Options{Workers: 2}))

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	c1, addr1 := startFleet(t, fleetSpecs(k), fleet.Options{Store: st})
	workInProcess(t, addr1, 2)
	rep1 := c1.Wait()
	if rep1.BatchID == "" {
		t.Fatal("store-backed fleet reported no batch ID")
	}

	// Same specs again: all reused, no engine runs on any worker.
	c2, addr2 := startFleet(t, fleetSpecs(k), fleet.Options{Store: st})
	workInProcess(t, addr2, 1)
	rep2 := c2.Wait()
	for _, camp := range rep2.Campaigns {
		if !camp.Reused {
			t.Fatalf("campaign %q not reused on identical re-run", camp.Label)
		}
	}
	if !reflect.DeepEqual(fingerprintOf(rep2), fingerprintOf(rep1)) {
		t.Fatal("reused fleet report differs from the original")
	}

	// Longer budget: resumed from the stored snapshots, equal to fresh.
	c3, addr3 := startFleet(t, fleetSpecs(n), fleet.Options{Store: st})
	workInProcess(t, addr3, 2)
	rep3 := c3.Wait()
	if got := fingerprintOf(rep3); !reflect.DeepEqual(got, want) {
		t.Fatal("resumed fleet diverged from the uninterrupted reference")
	}

	// The manifests a fleet writes are the same shape sched.Run writes.
	man, err := st.LoadBatch(rep3.BatchID)
	if err != nil || man == nil {
		t.Fatalf("manifest: %v %v", man, err)
	}
	for _, e := range man.Entries {
		if e.Status != store.StatusDone || e.Iters != n {
			t.Fatalf("manifest entry %+v not done at %d", e, n)
		}
	}
}

// TestFleetWaitFollowsStoreWrites: Wait returns only once every shard's
// completion is in the store, its final snapshot folded and its index entry
// and manifest entry written. The workers are still connected when Wait
// returns, so the store is read while the coordinator could still be
// writing it.
func TestFleetWaitFollowsStoreWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	const iters = 10
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	specs := fleetSpecs(iters)
	c, addr := startFleet(t, specs, fleet.Options{Store: st})
	worked := make(chan struct{})
	go func() {
		defer close(worked)
		workInProcess(t, addr, 2)
	}()
	rep := c.Wait()
	entries, err := st.Index()
	man, merr := st.LoadBatch(rep.BatchID)
	<-worked
	if err != nil || merr != nil || man == nil {
		t.Fatalf("index %v, manifest %v %v", err, man, merr)
	}
	if len(entries) != len(specs) {
		t.Fatalf("Wait returned with %d of %d campaigns indexed", len(entries), len(specs))
	}
	for _, e := range man.Entries {
		if e.Status != store.StatusDone || e.Iters != iters {
			t.Fatalf("Wait returned with manifest entry %+v not done at %d", e, iters)
		}
		if unfolded, err := st.Unfolded(e.Campaign); err != nil || unfolded != 0 {
			t.Fatalf("Wait returned with %s unfolded (%d iterations, %v)", e.Campaign, unfolded, err)
		}
	}
}

// TestFleetStoreWriteFailure: a directory where index.json belongs fails
// every campaign index write. The fleet reports the failures in the report's
// StoreErr and still returns the results a storeless sched.Run computes.
func TestFleetStoreWriteFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	const iters = 10
	want := fingerprintOf(sched.Run(fleetSpecs(iters), sched.Options{Workers: 2}))

	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := os.Mkdir(filepath.Join(dir, "index.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	c, addr := startFleet(t, fleetSpecs(iters), fleet.Options{Store: st})
	workInProcess(t, addr, 2)
	rep := c.Wait()
	if rep.StoreErr == nil || !strings.Contains(rep.StoreErr.Error(), "index.json") {
		t.Fatalf("StoreErr = %v, want the failed index writes", rep.StoreErr)
	}
	for _, camp := range rep.Campaigns {
		if camp.Err != nil {
			t.Fatalf("fleet campaign %q: %v", camp.Label, camp.Err)
		}
	}
	if got := fingerprintOf(rep); !reflect.DeepEqual(got, want) {
		t.Fatal("store write failures changed the fleet's results")
	}
}

// TestFleetUndispatchableSpecFails: a spec carrying live objects fails its
// shard up front with a descriptive error while the rest of the batch runs.
func TestFleetUndispatchableSpecFails(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	specs := fleetSpecs(5)[:2]
	specs[1].Label = "live"
	specs[1].Overrides.Solver = dummySolver{}
	c, addr := startFleet(t, specs, fleet.Options{})
	workInProcess(t, addr, 1)
	rep := c.Wait()
	if rep.Campaigns[0].Err != nil {
		t.Fatalf("plain campaign failed: %v", rep.Campaigns[0].Err)
	}
	if err := rep.Campaigns[1].Err; err == nil || !strings.Contains(err.Error(), "Config.Solver") {
		t.Fatalf("live-solver campaign error = %v", err)
	}
}

type dummySolver struct{}

func (dummySolver) SolveIncremental(preds []expr.Pred, prev map[expr.Var]int64, opt solver.Options) (solver.Result, bool) {
	return solver.Result{}, false
}
func (dummySolver) Stats() solver.Stats { return solver.Stats{} }

// TestHandshakeRefusesOtherVersion: a worker speaking another dispatch
// protocol version — a version 2 worker would still send per-iteration
// merge frames — gets no welcome, and the coordinator closes the connection
// without registering a session.
func TestHandshakeRefusesOtherVersion(t *testing.T) {
	c, addr := startFleet(t, fleetSpecs(3)[:1], fleet.Options{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	err = fleet.WriteFrame(conn, fleet.Frame{Type: fleet.FrameHello, Hello: &fleet.Hello{
		Proto: fleet.Version - 1, Name: "old",
	}})
	if err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if f, err := fleet.ReadFrame(conn); err == nil {
		t.Fatalf("coordinator answered a protocol %d hello with a %q frame", fleet.Version-1, f.Type)
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("coordinator kept the connection open")
	}
	if st := c.StatusText(); !strings.Contains(st, "workers: 0 connected") {
		t.Fatalf("refused worker was registered:\n%s", st)
	}
	workInProcess(t, addr, 1) // drain the batch so the coordinator shuts down
	c.Wait()
}

// TestFleetStatusText sanity-checks the status rendering mid-run without
// depending on timing: a coordinator with no workers shows its shards
// pending, then resolved after a worker drains the batch.
func TestFleetStatusText(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	specs := fleetSpecs(3)[:2]
	c, addr := startFleet(t, specs, fleet.Options{})
	st := c.StatusText()
	if !strings.Contains(st, "0/2 shards resolved") || !strings.Contains(st, "pending") {
		t.Fatalf("pending status:\n%s", st)
	}
	workInProcess(t, addr, 1)
	c.Wait()
	st = c.StatusText()
	if !strings.Contains(st, "2/2 shards resolved") || strings.Contains(st, "pending") {
		t.Fatalf("drained status:\n%s", st)
	}
}

// TestFleetProfileRollup: a coordinator with Profile on makes its workers
// run engines under phase profilers, aggregates the shipped per-shard
// reports, surfaces the top bins on the status endpoint, and — because
// profiling is observational — produces a report fingerprint identical to
// an unprofiled single-process sched.Run.
func TestFleetProfileRollup(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	const iters = 5
	specs := fleetSpecs(iters)[:2] // two skeleton shards
	ref := sched.Run(fleetSpecs(iters)[:2], sched.Options{Workers: 1})
	want := fingerprintOf(ref)

	c, addr := startFleet(t, specs, fleet.Options{Profile: true})
	workInProcess(t, addr, 1)
	rep := c.Wait()
	for _, camp := range rep.Campaigns {
		if camp.Err != nil {
			t.Fatalf("fleet campaign %q: %v", camp.Label, camp.Err)
		}
	}
	if got := fingerprintOf(rep); !reflect.DeepEqual(got, want) {
		t.Fatal("profiled fleet report diverged from unprofiled sched.Run")
	}

	exe, ok := rep.Profile.Get("execute")
	if !ok {
		t.Fatalf("fleet profile has no execute bin: %v", rep.Profile)
	}
	total := 0
	for _, camp := range rep.Campaigns {
		total += len(camp.Result.Iterations)
	}
	if exe.Count != int64(total) {
		t.Fatalf("fleet execute bin count %d, want %d (one per iteration across shards)", exe.Count, total)
	}
	if st := c.StatusText(); !strings.Contains(st, "profile: ") || !strings.Contains(st, "execute=") {
		t.Fatalf("status text missing profile line:\n%s", st)
	}
}
