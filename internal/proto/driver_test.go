package proto_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/proto"
	"repro/internal/sched"
	"repro/internal/spec"
)

// startFault re-execs this test binary as a misbehaving protocol target (see
// TestMain) and wires a driver to it with a short watchdog.
func startFault(t *testing.T, mode string) *proto.Driver {
	t.Helper()
	drv, err := proto.Start(os.Args[0], proto.Options{
		Env:    []string{"COMPI_PROTO_FAULT=" + mode},
		Stderr: os.Stderr,
		Grace:  500 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("starting %q fault target: %v", mode, err)
	}
	t.Cleanup(func() { drv.Close() })
	return drv
}

// runFaultCampaign drives a short campaign against a fault target and returns
// the result. The run must terminate well inside the test timeout even though
// the target dies on iteration 0: the driver's sticky failure turns every
// later iteration into an immediate failed launch.
func runFaultCampaign(t *testing.T, drv *proto.Driver) core.Result {
	t.Helper()
	prog, err := drv.Program()
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name != "mini" {
		t.Fatalf("handshake program = %q, want mini", prog.Name)
	}
	eng := core.NewEngine(core.Config{
		Program:      prog,
		Backend:      drv,
		Iterations:   4,
		InitialProcs: 2,
		MaxProcs:     4,
		Framework:    true,
		Seed:         1,
		RunTimeout:   time.Second,
	})
	return eng.Run()
}

// assertSingleFault checks the shared postcondition of every fault mode: the
// campaign completes its budget, every iteration fails through the restart
// path, and the dead target collapses to exactly one distinct error record.
func assertSingleFault(t *testing.T, res core.Result, wantMsg string) {
	t.Helper()
	if len(res.Iterations) != 4 {
		t.Fatalf("campaign ran %d iterations, want the full budget of 4", len(res.Iterations))
	}
	for _, it := range res.Iterations {
		if !it.Failed || !it.Restarted {
			t.Fatalf("iteration %d: Failed=%v Restarted=%v, want both true", it.Iter, it.Failed, it.Restarted)
		}
	}
	distinct := res.DistinctErrors()
	if len(distinct) != 1 {
		keys := make([]string, 0, len(distinct))
		for k := range distinct {
			keys = append(keys, k)
		}
		t.Fatalf("got %d distinct error keys %q, want exactly 1", len(distinct), keys)
	}
	for msg, recs := range distinct {
		if !strings.Contains(msg, wantMsg) {
			t.Fatalf("error key %q does not mention %q", msg, wantMsg)
		}
		if len(recs) != 4 {
			t.Fatalf("error key has %d records, want one per iteration (4)", len(recs))
		}
	}
}

func TestDriverTargetExitsMidIteration(t *testing.T) {
	res := runFaultCampaign(t, startFault(t, "exit-mid"))
	assertSingleFault(t, res, "exited with code 3")
}

func TestDriverTargetWritesGarbage(t *testing.T) {
	res := runFaultCampaign(t, startFault(t, "garbage"))
	assertSingleFault(t, res, "unreadable frame")
}

func TestDriverTargetStopsResponding(t *testing.T) {
	start := time.Now()
	res := runFaultCampaign(t, startFault(t, "stall"))
	assertSingleFault(t, res, "stopped responding")
	// Read deadline = RunTimeout (1s) + Grace (500ms), and only the first
	// iteration waits on it; the sticky failure short-circuits the rest.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("stalled target held the campaign for %s; watchdog did not fire in time", elapsed)
	}
}

// TestDriverRejectsImpossibleRankStatus: a well-framed rank frame whose
// status no rank can end with is a malformed frame, not a failed rank the
// engine has no error record for.
func TestDriverRejectsImpossibleRankStatus(t *testing.T) {
	res := runFaultCampaign(t, startFault(t, "bad-status"))
	assertSingleFault(t, res, "rank status 9")
	assertCrashNamesTarget(t, res)
}

func TestDriverRejectsUndecodableLog(t *testing.T) {
	res := runFaultCampaign(t, startFault(t, "bad-log"))
	assertSingleFault(t, res, "undecodable log")
	assertCrashNamesTarget(t, res)
}

// assertCrashNamesTarget checks that a malformed-frame fault is recorded as
// a crash whose key names the target binary.
func assertCrashNamesTarget(t *testing.T, res core.Result) {
	t.Helper()
	name := filepath.Base(os.Args[0])
	for msg, recs := range res.DistinctErrors() {
		if !strings.Contains(msg, fmt.Sprintf("unreadable frame from target %q", name)) {
			t.Fatalf("error key %q does not name the target %q", msg, name)
		}
		if recs[0].Status != mpi.StatusCrash {
			t.Fatalf("error key %q recorded as %v, want crash", msg, recs[0].Status)
		}
	}
}

// TestDriverRejectsExtraFrames: a frame beyond an iteration's nprocs would
// be read as the next iteration's answer, so the next Launch refuses it.
func TestDriverRejectsExtraFrames(t *testing.T) {
	res := runFaultCampaign(t, startFault(t, "extra-frame"))
	if res.Iterations[0].Failed {
		t.Fatal("iteration 0, whose frames were well-formed, failed")
	}
	distinct := res.DistinctErrors()
	if len(distinct) != 1 {
		t.Fatalf("got %d distinct error keys, want exactly 1", len(distinct))
	}
	for msg, recs := range distinct {
		if !strings.Contains(msg, "between iterations") || len(recs) != len(res.Iterations)-1 {
			t.Fatalf("error key %q with %d records, want every iteration after the first", msg, len(recs))
		}
	}
}

// TestDriverRefusesOtherVersion: a target of protocol version 2 is refused at
// the handshake, before any iteration runs.
func TestDriverRefusesOtherVersion(t *testing.T) {
	drv, err := proto.Start(os.Args[0], proto.Options{
		Env:    []string{"COMPI_PROTO_FAULT=v2"},
		Stderr: os.Stderr,
	})
	if err == nil {
		drv.Close()
		t.Fatal("driver accepted a protocol 2 target")
	}
	if want := fmt.Sprintf("speaks protocol 2, driver speaks %d", proto.Version); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q, want substring %q", err, want)
	}
}

// TestSchedSurvivesDeadExternalTarget runs a dying external target through
// the scheduler next to nothing else: the batch must complete (no worker
// hang) with the campaign reporting its single deduplicated error.
func TestSchedSurvivesDeadExternalTarget(t *testing.T) {
	rep := sched.Run([]sched.Spec{{Campaign: spec.Campaign{
		Label: "fault/exit-mid",
		External: &spec.External{
			Bin: os.Args[0],
			Env: []string{"COMPI_PROTO_FAULT=exit-mid"},
		},
		Iterations:   4,
		InitialProcs: 2,
		MaxProcs:     4,
		Framework:    true,
		Seed:         1,
		RunTimeout:   time.Second,
	}}}, sched.Options{Workers: 2})

	c := rep.Campaigns[0]
	if c.Err != nil {
		t.Fatalf("campaign errored instead of recording the fault: %v", c.Err)
	}
	if c.Target != "mini" {
		t.Fatalf("target resolved to %q, want mini (from the handshake manifest)", c.Target)
	}
	if n := rep.DistinctErrorCount(); n != 1 {
		t.Fatalf("report has %d distinct errors, want 1", n)
	}
	for msg := range rep.Errors["mini"] {
		if !strings.Contains(msg, "exited with code 3") {
			t.Fatalf("merged error key %q does not carry the exit code", msg)
		}
	}
}
