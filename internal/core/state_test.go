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

// encodingCampaigns are the campaigns the journal encoding is pinned on,
// each an engine constructor taking the checkpoint hook: hpl, a
// schedule-space mworder campaign, whose deadlock records carry match
// orders, and a skeleton campaign restored from a mid-run snapshot, whose
// first record carries the whole restored history at once.
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

// saved is what Save writes for s.
func saved(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// extendJournal encodes the record that takes journaled to s, checks that
// it carries only the history entries journaled lacks, and applies it.
func extendJournal(t *testing.T, journaled, s *Snapshot) {
	t.Helper()
	ne, ns := len(journaled.Errors), len(journaled.Stats)
	rec, err := s.EncodeDelta(ne, ns)
	if err != nil {
		t.Fatal(err)
	}
	var r journalRecord
	if err := json.Unmarshal(rec, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Errors) != len(s.Errors)-ne || len(r.Stats) != len(s.Stats)-ns {
		t.Fatalf("record at iteration %d carries %d errors, %d stats; want the %d, %d added",
			s.Iters, len(r.Errors), len(r.Stats), len(s.Errors)-ne, len(s.Stats)-ns)
	}
	if err := journaled.ApplyDelta(rec); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotEncodingMatchesFresh pins the journal encoding: at every
// checkpoint, a snapshot built by applying each checkpoint's record in turn
// to an empty one saves to the bytes of the checkpoint's own snapshot, and
// applying a record again changes nothing.
func TestSnapshotEncodingMatchesFresh(t *testing.T) {
	for name, newEngine := range encodingCampaigns(t) {
		t.Run(name, func(t *testing.T) {
			journaled := &Snapshot{}
			var last *Snapshot
			checkpoints := 0
			newEngine(func(s *Snapshot) {
				checkpoints++
				last = s
				extendJournal(t, journaled, s)
				want := saved(t, s)
				if got := saved(t, journaled); !bytes.Equal(got, want) {
					t.Fatalf("checkpoint at iteration %d:\n got  %s\n want %s", s.Iters, got, want)
				}
				rec, err := s.EncodeDelta(0, 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := journaled.ApplyDelta(rec); err != nil {
					t.Fatal(err)
				}
				if got := saved(t, journaled); !bytes.Equal(got, want) {
					t.Fatalf("checkpoint at iteration %d changed by a record it holds:\n got  %s\n want %s", s.Iters, got, want)
				}
			}).Run()
			if checkpoints == 0 || len(last.Errors) == 0 {
				t.Fatalf("%d checkpoints, %d error records: the history is not pinned", checkpoints, len(last.Errors))
			}
		})
	}
}

// TestSnapshotEncodingStaleHistory pins what a record applies to. It takes
// a mid-run checkpoint m to the final snapshot. Applied to m with a history
// entry dropped, which the record's base counts assume, it is rejected and
// changes nothing. Applied to m with the record's own next entry already
// added, it appends only the entries past it and yields the final snapshot.
func TestSnapshotEncodingStaleHistory(t *testing.T) {
	var ckpts []*Snapshot
	e := NewEngine(Config{
		Program: skeletonProg(t), Iterations: 60, Reduction: true,
		Framework: true, Seed: 1, RunTimeout: 5 * time.Second,
		Checkpoint: func(s *Snapshot) { ckpts = append(ckpts, s) },
	})
	e.Run()
	final := e.Snapshot()
	var mid *Snapshot
	for _, s := range ckpts {
		if len(s.Errors) > 0 && len(s.Errors) < len(final.Errors) {
			mid = s
			break
		}
	}
	if mid == nil {
		t.Fatalf("no checkpoint between the first error record and the last of %d", len(final.Errors))
	}
	rec, err := final.EncodeDelta(len(mid.Errors), len(mid.Stats))
	if err != nil {
		t.Fatal(err)
	}
	clone := func() *Snapshot {
		c := *mid
		c.Errors = append([]ErrorRecord(nil), mid.Errors...)
		c.Stats = append([]IterationStat(nil), mid.Stats...)
		return &c
	}
	edits := map[string]struct {
		edit  func(*Snapshot)
		apply bool
	}{
		"stats dropped":  {func(s *Snapshot) { s.Stats = s.Stats[:len(s.Stats)-1] }, false},
		"errors dropped": {func(s *Snapshot) { s.Errors = s.Errors[:len(s.Errors)-1] }, false},
		"stats added":    {func(s *Snapshot) { s.Stats = append(s.Stats, final.Stats[len(s.Stats)]) }, true},
		"errors added":   {func(s *Snapshot) { s.Errors = append(s.Errors, final.Errors[len(s.Errors)]) }, true},
	}
	for name, tc := range edits {
		t.Run(name, func(t *testing.T) {
			s := clone()
			tc.edit(s)
			before := saved(t, s)
			err := s.ApplyDelta(rec)
			switch {
			case !tc.apply && err == nil:
				t.Fatal("a record that does not continue the snapshot applied")
			case !tc.apply && !bytes.Equal(saved(t, s), before):
				t.Fatal("a rejected record changed the snapshot")
			case tc.apply && err != nil:
				t.Fatal(err)
			case tc.apply && !bytes.Equal(saved(t, s), saved(t, final)):
				t.Fatal("the record applied over entries it carries did not yield its snapshot")
			}
		})
	}
}

// TestSnapshotEncodingConcurrent encodes and applies each checkpoint's
// record on another goroutine while the engine runs on. The replayed
// snapshots must equal the checkpoints' own, saved after the run: an
// engine that runs on never changes a snapshot it handed out.
func TestSnapshotEncodingConcurrent(t *testing.T) {
	for name, newEngine := range encodingCampaigns(t) {
		t.Run(name, func(t *testing.T) {
			snaps := make(chan *Snapshot)
			encoded := make(chan [][]byte)
			go func() {
				var out [][]byte
				journaled := &Snapshot{}
				for s := range snaps {
					rec, err := s.EncodeDelta(len(journaled.Errors), len(journaled.Stats))
					if err == nil {
						err = journaled.ApplyDelta(rec)
					}
					if err != nil {
						t.Error(err)
					}
					var buf bytes.Buffer
					if err := journaled.Save(&buf); err != nil {
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
				if want := saved(t, s); !bytes.Equal(got[i], want) {
					t.Fatalf("checkpoint at iteration %d replayed concurrently:\n got  %s\n want %s", s.Iters, got[i], want)
				}
			}
		})
	}
}
