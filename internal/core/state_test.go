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

// encodingCampaigns are the campaigns the snapshot encoding is pinned on,
// each an engine constructor taking the checkpoint hook: hpl, a
// schedule-space mworder campaign, whose deadlock records carry match
// orders, and a skeleton campaign restored from a mid-run snapshot, whose
// first checkpoint encodes the whole restored history at once.
func encodingCampaigns(t *testing.T) map[string]func(ckpt func(*Snapshot)) *Engine {
	t.Helper()
	hpl := Config{
		Program: prog(t, "hpl"), Iterations: 120, Reduction: true,
		Framework: true, Seed: 2, RunTimeout: 5 * time.Second,
	}
	mworder := schedConfig(t, "mworder", true)
	mworder.Iterations = 120
	skeleton := Config{
		Program: skeletonProg(t), Iterations: 120, Reduction: true,
		Framework: true, Seed: 3, RunTimeout: 5 * time.Second,
	}
	head := skeleton
	head.Iterations = 60
	e := NewEngine(head)
	e.Run()
	var buf bytes.Buffer
	if err := e.Snapshot().Save(&buf); err != nil {
		t.Fatal(err)
	}
	mid, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	with := func(cfg Config, ckpt func(*Snapshot)) Config {
		cfg.Checkpoint = ckpt
		return cfg
	}
	return map[string]func(func(*Snapshot)) *Engine{
		"hpl":     func(ckpt func(*Snapshot)) *Engine { return NewEngine(with(hpl, ckpt)) },
		"mworder": func(ckpt func(*Snapshot)) *Engine { return NewEngine(with(mworder, ckpt)) },
		"restored": func(ckpt func(*Snapshot)) *Engine {
			e := NewEngine(with(skeleton, ckpt))
			if err := e.Restore(mid); err != nil {
				t.Fatal(err)
			}
			return e
		},
	}
}

// freshJSON is what Save writes for s when s carries no encoded history.
func freshJSON(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	stripped := *s
	stripped.hist = history{}
	b, err := json.Marshal(&stripped)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestSnapshotEncodingMatchesFresh pins the incremental encoding: at every
// checkpoint, Save (which splices the engine's encoded history) writes the
// bytes of a fresh encoding of the same snapshot.
func TestSnapshotEncodingMatchesFresh(t *testing.T) {
	for name, newEngine := range encodingCampaigns(t) {
		t.Run(name, func(t *testing.T) {
			var last *Snapshot
			checkpoints := 0
			newEngine(func(s *Snapshot) {
				checkpoints++
				last = s
				if s.hist.nErrors != len(s.Errors) || s.hist.nStats != len(s.Stats) {
					t.Fatalf("checkpoint at iteration %d: history cache holds %d/%d entries for %d/%d",
						s.Iters, s.hist.nErrors, s.hist.nStats, len(s.Errors), len(s.Stats))
				}
				var got bytes.Buffer
				if err := s.Save(&got); err != nil {
					t.Fatal(err)
				}
				if want := freshJSON(t, s); !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("checkpoint at iteration %d:\n got  %s\n want %s", s.Iters, got.Bytes(), want)
				}
			}).Run()
			if checkpoints == 0 || len(last.Errors) == 0 {
				t.Fatalf("%d checkpoints, %d error records: the history is not pinned", checkpoints, len(last.Errors))
			}
		})
	}
}

// TestSnapshotEncodingStaleHistory pins the fallback: a snapshot whose
// Errors or Stats no longer has its cache's entry count is encoded fresh,
// never spliced from the stale cache.
func TestSnapshotEncodingStaleHistory(t *testing.T) {
	e := NewEngine(Config{
		Program: skeletonProg(t), Iterations: 60, Reduction: true,
		Framework: true, Seed: 1, RunTimeout: 5 * time.Second,
	})
	e.Run()
	edits := map[string]func(*Snapshot){
		"stats dropped":  func(s *Snapshot) { s.Stats = s.Stats[:len(s.Stats)-1] },
		"stats added":    func(s *Snapshot) { s.Stats = append(s.Stats, IterationStat{Iter: len(s.Stats)}) },
		"errors dropped": func(s *Snapshot) { s.Errors = nil },
		"errors added":   func(s *Snapshot) { s.Errors = append(s.Errors, ErrorRecord{Msg: "added"}) },
	}
	for name, edit := range edits {
		t.Run(name, func(t *testing.T) {
			s := e.Snapshot()
			if len(s.Errors) == 0 {
				t.Fatal("campaign recorded no error")
			}
			edit(s)
			got, err := s.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal((*snapshotFields)(s))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("stale history spliced:\n got  %s\n want %s", got, want)
			}
		})
	}
}

// TestSnapshotEncodingConcurrent encodes every checkpointed snapshot on
// another goroutine while the engine runs on and extends its encoded
// history. Under -race it pins that the engine never writes the encoded
// history a snapshot it handed out still reads.
func TestSnapshotEncodingConcurrent(t *testing.T) {
	for name, newEngine := range encodingCampaigns(t) {
		t.Run(name, func(t *testing.T) {
			snaps := make(chan *Snapshot)
			encoded := make(chan [][]byte)
			go func() {
				var out [][]byte
				for s := range snaps {
					var buf bytes.Buffer
					if err := s.Save(&buf); err != nil {
						t.Error(err)
					}
					out = append(out, buf.Bytes())
				}
				encoded <- out
			}()
			var taken []*Snapshot
			newEngine(func(s *Snapshot) {
				taken = append(taken, s)
				snaps <- s
			}).Run()
			close(snaps)
			got := <-encoded
			if len(got) != len(taken) {
				t.Fatalf("encoded %d of %d checkpoints", len(got), len(taken))
			}
			for i, s := range taken {
				if want := freshJSON(t, s); !bytes.Equal(got[i], want) {
					t.Fatalf("checkpoint at iteration %d encoded concurrently:\n got  %s\n want %s", s.Iters, got[i], want)
				}
			}
		})
	}
}
