package core

import (
	"bytes"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/coverage"
	"repro/internal/target"
	"repro/internal/targets/stencil"
	_ "repro/internal/targets/stencil"
)

// deterministicStats strips the wall-clock fields from iteration stats so
// two runs of the same trajectory compare equal.
func deterministicStats(its []IterationStat) []IterationStat {
	out := append([]IterationStat(nil), its...)
	for i := range out {
		out[i].Elapsed = 0
		out[i].RunTime = 0
	}
	return out
}

func errorKeys(recs []ErrorRecord) []string {
	var keys []string
	for _, r := range recs {
		keys = append(keys, r.Msg)
	}
	sort.Strings(keys)
	return keys
}

// assertSameCampaign checks that two Results describe the same trajectory in
// every deterministic dimension.
func assertSameCampaign(t *testing.T, got, want Result) {
	t.Helper()
	if g, w := deterministicStats(got.Iterations), deterministicStats(want.Iterations); !reflect.DeepEqual(g, w) {
		for i := range g {
			if i < len(w) && !reflect.DeepEqual(g[i], w[i]) {
				t.Fatalf("iteration %d differs:\n got %+v\nwant %+v", i, g[i], w[i])
			}
		}
		t.Fatalf("iteration histories differ: %d vs %d entries", len(g), len(w))
	}
	if !reflect.DeepEqual(got.Coverage.Branches(), want.Coverage.Branches()) {
		t.Fatalf("coverage differs: %d vs %d branches",
			got.Coverage.Count(), want.Coverage.Count())
	}
	if !reflect.DeepEqual(errorKeys(got.Errors), errorKeys(want.Errors)) {
		t.Fatalf("error keys differ:\n got %v\nwant %v",
			errorKeys(got.Errors), errorKeys(want.Errors))
	}
	if got.Restarts != want.Restarts || !reflect.DeepEqual(got.RestartAt, want.RestartAt) {
		t.Fatalf("restart history differs: %d@%v vs %d@%v",
			got.Restarts, got.RestartAt, want.Restarts, want.RestartAt)
	}
	if got.SolverCall != want.SolverCall || got.UnsatCalls != want.UnsatCalls {
		t.Fatalf("solver accounting differs: %d/%d vs %d/%d",
			got.SolverCall, got.UnsatCalls, want.SolverCall, want.UnsatCalls)
	}
}

// resumeConfigs are the campaign setups the determinism contract is pinned
// on: two targets, restart-triggering iteration counts.
func resumeConfigs(t *testing.T) map[string]Config {
	return map[string]Config{
		"skeleton": {
			Program: skeletonProg(t), Reduction: true, Framework: true,
			Seed: 5, RunTimeout: 5 * time.Second,
		},
		"stencil": {
			Program: prog(t, "stencil"), Params: stencil.FixAll(),
			Reduction: true, Framework: true, Seed: 3, DFSPhase: 10,
			RunTimeout: 5 * time.Second,
		},
	}
}

// TestResumeDeterminism pins the snapshot determinism contract: running k
// iterations, snapshotting through a JSON round trip, restoring into a fresh
// engine, and running to n must equal an uninterrupted n-iteration run in
// every deterministic dimension — per-iteration stats, coverage, error keys,
// restart history, solver accounting.
func TestResumeDeterminism(t *testing.T) {
	const k, n = 15, 40
	for name, base := range resumeConfigs(t) {
		t.Run(name, func(t *testing.T) {
			full := base
			full.Iterations = n
			want := NewEngine(full).Run()

			head := base
			head.Iterations = k
			e1 := NewEngine(head)
			e1.Run()
			var buf bytes.Buffer
			if err := e1.Snapshot().Save(&buf); err != nil {
				t.Fatal(err)
			}
			snap, err := LoadSnapshot(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Iters != k {
				t.Fatalf("snapshot records %d iterations, want %d", snap.Iters, k)
			}

			e2 := NewEngine(full)
			if err := e2.Restore(snap); err != nil {
				t.Fatal(err)
			}
			got := e2.Run()
			if len(got.Iterations) != n {
				t.Fatalf("resumed result spans %d iterations, want %d", len(got.Iterations), n)
			}
			assertSameCampaign(t, got, want)
		})
	}
}

// TestRandomStrategyResumeDeterminism pins resume-at-k == uninterrupted-n
// for the random baselines: random-branch and uniform-random draw from the
// engine-owned splitmix64 prng and serialize its stream position plus their
// per-path progress, so an interrupted campaign continues the exact
// trajectory an uninterrupted one would have taken.
func TestRandomStrategyResumeDeterminism(t *testing.T) {
	const k, n = 15, 40
	for name, mk := range map[string]func() Strategy{
		"random-branch":  func() Strategy { return NewRandomBranch(9) },
		"uniform-random": func() Strategy { return NewUniformRandom(9) },
	} {
		t.Run(name, func(t *testing.T) {
			base := Config{
				Program: skeletonProg(t), Reduction: true, Framework: true,
				Seed: 5, RunTimeout: 5 * time.Second,
				NewStrategy: func(*target.Program, *coverage.Tracker) Strategy { return mk() },
			}
			full := base
			full.Iterations = n
			want := NewEngine(full).Run()

			head := base
			head.Iterations = k
			e1 := NewEngine(head)
			e1.Run()
			var buf bytes.Buffer
			if err := e1.Snapshot().Save(&buf); err != nil {
				t.Fatal(err)
			}
			snap, err := LoadSnapshot(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Strategy == nil {
				t.Fatalf("%s produced no serialized strategy state", name)
			}

			e2 := NewEngine(full)
			if err := e2.Restore(snap); err != nil {
				t.Fatal(err)
			}
			assertSameCampaign(t, e2.Run(), want)
		})
	}
}

// TestCheckpointResumeDeterminism exercises the store's actual write path: a
// mid-campaign checkpoint (taken by the Checkpoint hook, not after Run
// returns) must restore to the same trajectory.
func TestCheckpointResumeDeterminism(t *testing.T) {
	const k, n = 10, 30
	base := Config{
		Program: skeletonProg(t), Reduction: true, Framework: true,
		Seed: 21, RunTimeout: 5 * time.Second,
	}
	full := base
	full.Iterations = n
	want := NewEngine(full).Run()

	var at *Snapshot
	ck := full
	ck.Checkpoint = func(s *Snapshot) {
		if s.Iters == k {
			at = s
		}
	}
	NewEngine(ck).Run()
	if at == nil {
		t.Fatal("checkpoint hook never saw iteration k")
	}

	e := NewEngine(full)
	if err := e.Restore(at); err != nil {
		t.Fatal(err)
	}
	assertSameCampaign(t, e.Run(), want)
}

// TestCheckpointCadence checks CheckpointEvery thins the hook calls.
func TestCheckpointCadence(t *testing.T) {
	count := 0
	cfg := Config{
		Program: skeletonProg(t), Iterations: 12, Reduction: true,
		Framework: true, Seed: 2, RunTimeout: 5 * time.Second,
		Checkpoint:      func(*Snapshot) { count++ },
		CheckpointEvery: 4,
	}
	NewEngine(cfg).Run()
	if count != 3 {
		t.Fatalf("expected 3 checkpoints at cadence 4 over 12 iterations, got %d", count)
	}
}

// TestResumeV3SnapshotWithRefutedKeys pins compatibility with snapshots
// written while the engine kept its own refuted set and its per-setup input
// corpus: the committed v3 fixture (skeleton, seed 3, taken at iteration 70
// of 120) still carries its "refuted" canonical keys and its "corpus" and
// "corpusCov" maps. LoadSnapshot only counts the keys, as Refutations, and
// skips the corpus, and the resumed campaign — whose refutations the solver
// service re-derives — equals the uninterrupted run, the fixture's recorded
// history included.
func TestResumeV3SnapshotWithRefutedKeys(t *testing.T) {
	raw, err := os.ReadFile("testdata/snapshot_v3_refuted.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"refuted": [`, `"corpus": {`, `"corpusCov": {`} {
		if !bytes.Contains(raw, []byte(key)) {
			t.Fatalf("fixture no longer carries %s", key)
		}
	}
	snap, err := LoadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 3 || snap.Iters != 70 || snap.Refutations != 24 {
		t.Fatalf("fixture is v%d at iteration %d with %d refutations, want v3 at 70 with 24",
			snap.Version, snap.Iters, snap.Refutations)
	}
	cfg := Config{
		Program: skeletonProg(t), Iterations: 120, Reduction: true,
		Framework: true, Seed: 3, RunTimeout: 5 * time.Second,
	}
	want := NewEngine(cfg).Run()
	e := NewEngine(cfg)
	if err := e.Restore(snap); err != nil {
		t.Fatal(err)
	}
	assertSameCampaign(t, e.Run(), want)
}

func TestPRNGDeterminism(t *testing.T) {
	a, b := newPRNG(99), newPRNG(99)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatalf("same-seed streams diverge at draw %d", i)
		}
	}
	// State round trip: a PRNG rebuilt from a captured state continues the
	// stream exactly.
	mid := a.state
	c := &prng{state: mid}
	for i := 0; i < 100; i++ {
		if a.Int63n(1000) != c.Int63n(1000) {
			t.Fatalf("state-restored stream diverges at draw %d", i)
		}
	}
	seen := map[int64]bool{}
	for i := 0; i < 200; i++ {
		v := b.Int63n(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Int63n out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) < 7 {
		t.Fatalf("Int63n(7) hit only %d values in 200 draws", len(seen))
	}
}

// TestStrategyStateRoundTrip drives a bounded DFS partway, serializes it,
// and checks the deserialized copy is positionally identical (its own
// serialization matches byte for byte).
func TestStrategyStateRoundTrip(t *testing.T) {
	for _, mk := range []func() Strategy{
		func() Strategy { return NewBoundedDFS(4) },
		func() Strategy { return NewTwoPhase(4, 6) },
		func() Strategy { return NewRandomBranch(3) },
		func() Strategy { return NewUniformRandom(3) },
	} {
		s := mk().(PersistentStrategy)
		s.Observe(mkPath(3, 0))
		for i := 0; i < 3; i++ {
			if _, _, ok := s.Propose(); ok {
				s.Reject()
			}
		}
		b1, err := s.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		s2 := mk().(PersistentStrategy)
		if err := s2.UnmarshalState(b1); err != nil {
			t.Fatal(err)
		}
		b2, err := s2.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("%s: state not stable across round trip:\n%s\nvs\n%s", s.Name(), b1, b2)
		}
		if err := s2.UnmarshalState([]byte("{bad json")); err == nil {
			t.Fatalf("%s: accepted corrupt state", s.Name())
		}
	}
}
