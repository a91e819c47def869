package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/conc"
)

func TestSnapshotRoundTrip(t *testing.T) {
	e1 := NewEngine(Config{
		Program: skeletonProg(t), Iterations: 40, Reduction: true,
		Framework: true, Seed: 5, RunTimeout: 5 * time.Second,
	})
	res1 := e1.Run()
	snap := e1.Snapshot()

	if snap.Program != "skeleton" {
		t.Fatalf("program: %s", snap.Program)
	}
	if len(snap.Covered) != res1.Coverage.Count() {
		t.Fatal("snapshot coverage incomplete")
	}
	if len(snap.Inputs) == 0 || len(snap.Prev) == 0 {
		t.Fatalf("snapshot missing inputs/prev: %+v", snap)
	}
	if snap.Caps["x"] != 200 || snap.Caps["y"] != 100 {
		t.Fatalf("caps not captured: %v", snap.Caps)
	}

	var buf bytes.Buffer
	if err := snap.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NProcs != snap.NProcs || len(loaded.Covered) != len(snap.Covered) {
		t.Fatal("JSON round trip lost state")
	}

	// Resume in a new engine: coverage must be monotone over the resumed
	// campaign, and the learned inputs carry over.
	e2 := NewEngine(Config{
		Program: skeletonProg(t), Iterations: 40, Reduction: true,
		Framework: true, Seed: 6, RunTimeout: 5 * time.Second,
	})
	if err := e2.Restore(loaded); err != nil {
		t.Fatal(err)
	}
	if e2.Coverage().Count() != res1.Coverage.Count() {
		t.Fatal("restored coverage mismatch")
	}
	res2 := e2.Run()
	if res2.Coverage.Count() < res1.Coverage.Count() {
		t.Fatal("coverage regressed after resume")
	}
}

func TestErrorLogWritesJSONLines(t *testing.T) {
	var buf bytes.Buffer
	NewEngine(Config{
		Program: skeletonProg(t), Iterations: 60, Reduction: true,
		Framework: true, Seed: 1, RunTimeout: 5 * time.Second,
		ErrorLog: &buf,
	}).Run()
	lines := 0
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var rec ErrorRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("bad JSONL: %v", err)
		}
		if rec.Inputs == nil {
			t.Fatal("record without inputs")
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("no error records written")
	}
}

func TestRestoreSanitizesLaunch(t *testing.T) {
	e := NewEngine(Config{Program: skeletonProg(t), Iterations: 1, Framework: true, Seed: 1})
	if err := e.Restore(&Snapshot{Program: "skeleton", NProcs: 4, Focus: 9}); err != nil {
		t.Fatal(err)
	}
	if e.cur.focus != 0 {
		t.Fatalf("focus not clamped: %d", e.cur.focus)
	}
	if err := e.Restore(&Snapshot{Program: "skeleton", NProcs: 0, Focus: 0}); err != nil {
		t.Fatal(err)
	}
	if e.cur.nprocs < 1 {
		t.Fatalf("nprocs not defaulted: %d", e.cur.nprocs)
	}
}

func TestRestoreValidation(t *testing.T) {
	cases := []struct {
		name string
		snap Snapshot
		want string
	}{
		{"wrong program", Snapshot{Program: "stencil"}, "program"},
		{"newer version", Snapshot{Program: "skeleton", Version: SnapshotVersion + 1}, "newer"},
		{"bad branch bit", Snapshot{Program: "skeleton", Covered: []conc.BranchBit{99999}}, "branch"},
		{"undeclared func", Snapshot{Program: "skeleton", Funcs: []string{"no_such_fn"}}, "not declared"},
		{"undeclared input", Snapshot{Program: "skeleton",
			Inputs: map[string]int64{"zz": 1}}, "not declared"},
		{"undeclared cap", Snapshot{Program: "skeleton",
			Caps: map[string]int64{"zz": 1}}, "not declared"},
		{"stats/iters mismatch", Snapshot{Program: "skeleton", Iters: 3,
			Stats: []IterationStat{{Iter: 0}}}, "iteration stats"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(Config{Program: skeletonProg(t), Iterations: 1, Framework: true, Seed: 1})
			err := e.Restore(&tc.snap)
			if err == nil {
				t.Fatal("snapshot accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			// A rejected snapshot must not poison engine state.
			if e.Coverage().Count() != 0 || len(e.errors) != 0 || e.iters != 0 {
				t.Fatal("engine state mutated by rejected snapshot")
			}
		})
	}
}

func TestRestoreAfterRunRejected(t *testing.T) {
	e := NewEngine(Config{
		Program: skeletonProg(t), Iterations: 2, Framework: true, Seed: 1,
		RunTimeout: 5 * time.Second,
	})
	e.Run()
	if err := e.Restore(&Snapshot{Program: "skeleton"}); err == nil {
		t.Fatal("Restore accepted after Run")
	}
}
