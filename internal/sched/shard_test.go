package sched

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/conc"
	"repro/internal/solver"
)

// TestShardPartition pins the static properties of the shard set: shard 0 is
// the base setup, setups are distinct until they wrap, wrapped shards get a
// perturbed seed, and every shard carries the group label.
func TestShardPartition(t *testing.T) {
	base := skeletonSpec(7)
	base.InitialProcs = 4
	base.MaxProcs = 8
	base.InitialFocus = 2

	if got := Shard(base, 1); len(got) != 1 || !reflect.DeepEqual(got[0], base) {
		t.Fatalf("Shard(n=1) must return the base spec unchanged: %+v", got)
	}

	n := 6
	shards := Shard(base, n)
	if len(shards) != n {
		t.Fatalf("want %d shards, got %d", n, len(shards))
	}
	if shards[0].InitialProcs != 4 || shards[0].InitialFocus != 2 {
		t.Fatalf("shard 0 must keep the base setup, got procs=%d focus=%d",
			shards[0].InitialProcs, shards[0].InitialFocus)
	}
	type setup struct{ np, f int }
	seen := map[setup]int{}
	for i, s := range shards {
		if s.Group != base.label() {
			t.Fatalf("shard %d group = %q, want %q", i, s.Group, base.label())
		}
		if !strings.Contains(s.Label, "/shard") {
			t.Fatalf("shard %d label = %q", i, s.Label)
		}
		if s.InitialProcs < 1 || s.InitialProcs > 8 {
			t.Fatalf("shard %d procs = %d out of range", i, s.InitialProcs)
		}
		if s.InitialFocus < 0 || s.InitialFocus >= s.InitialProcs {
			t.Fatalf("shard %d focus = %d for %d procs", i, s.InitialFocus, s.InitialProcs)
		}
		seen[setup{s.InitialProcs, s.InitialFocus}]++
	}
	if len(seen) != n {
		t.Fatalf("expected %d distinct setups, got %d: %v", n, len(seen), seen)
	}
}

func TestShardWrapPerturbsSeed(t *testing.T) {
	base := skeletonSpec(7)
	base.InitialProcs = 2
	base.MaxProcs = 2
	// Setups available: (2,0), (2,1), (1,0) — ask for 5 so two shards wrap.
	shards := Shard(base, 5)
	if len(shards) != 5 {
		t.Fatalf("want 5 shards, got %d", len(shards))
	}
	for i := 3; i < 5; i++ {
		if shards[i].Seed == base.Seed {
			t.Fatalf("wrapped shard %d kept the base seed; it would duplicate shard %d exactly", i, i-3)
		}
		if shards[i].InitialProcs != shards[i-3].InitialProcs ||
			shards[i].InitialFocus != shards[i-3].InitialFocus {
			t.Fatalf("wrapped shard %d should reuse shard %d's setup", i, i-3)
		}
	}
}

// TestShardedRunDeterministicAndMerged is the sharding acceptance test: a
// sharded batch produces the same per-campaign coverage and merged group
// rollup at 1 and 4 workers, with the shared solver service in play; the
// group rollup equals the union of its members; and running the same batch
// with a private solver service per campaign changes nothing.
func TestShardedRunDeterministicAndMerged(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	mkSpecs := func() []Spec {
		base := skeletonSpec(3)
		base.Iterations = 30
		base.InitialProcs = 4
		base.MaxProcs = 8
		return Shard(base, 4)
	}

	serial := Run(mkSpecs(), Options{Workers: 1})
	wide := Run(mkSpecs(), Options{Workers: 4})
	privSpecs := mkSpecs()
	for i := range privSpecs {
		privSpecs[i].Overrides.Solver = solver.NewService(solver.ServiceConfig{})
	}
	private := Run(privSpecs, Options{Workers: 4})

	fpS, fpW, fpP := fingerprintOf(serial), fingerprintOf(wide), fingerprintOf(private)
	if !reflect.DeepEqual(fpS, fpW) {
		t.Fatal("sharded batch diverged between -j1 and -j4")
	}
	if !reflect.DeepEqual(fpS, fpP) {
		t.Fatal("shared solver service changed campaign trajectories vs private solvers")
	}
	if serial.Solver.Calls == 0 {
		t.Fatal("shared service saw no calls")
	}
	if private.Solver.Calls != 0 {
		t.Fatalf("private-solver run still reported shared-service stats: %+v", private.Solver)
	}

	for _, rep := range []*Report{serial, wide} {
		groups := rep.Groups()
		if len(groups) != 1 {
			t.Fatalf("want one shard group, got %d", len(groups))
		}
		g := groups[0]
		if g.Shards != 4 || g.Target != "skeleton" {
			t.Fatalf("bad group rollup: %+v", g)
		}
		// The rollup is the union of the members and matches the per-target
		// merged tracker (this batch is all one target).
		union := map[conc.BranchBit]struct{}{}
		iters := 0
		for _, c := range rep.Campaigns {
			if c.Err != nil {
				t.Fatalf("campaign %s: %v", c.Label, c.Err)
			}
			for _, b := range c.Result.Coverage.Branches() {
				union[b] = struct{}{}
			}
			iters += len(c.Result.Iterations)
		}
		if g.Coverage.Count() != len(union) {
			t.Fatalf("group coverage %d != union of members %d", g.Coverage.Count(), len(union))
		}
		if g.Iterations != iters {
			t.Fatalf("group iterations %d != sum of members %d", g.Iterations, iters)
		}
		if !reflect.DeepEqual(g.Coverage.Branches(), rep.Coverage["skeleton"].Branches()) {
			t.Fatal("group coverage differs from the per-target merged tracker")
		}
	}

	// Shard 0 is the base spec, so the group strictly extends an unsharded
	// run of the same spec.
	baseRep := Run([]Spec{mkSpecs()[0]}, Options{Workers: 1})
	baseCov := baseRep.Campaigns[0].Result.Coverage
	group := serial.Groups()[0]
	for _, b := range baseCov.Branches() {
		if !group.Coverage.Covered(b) {
			t.Fatalf("group rollup lost branch %v covered by the base shard", b)
		}
	}
}

// TestSharedServiceAcrossTargets: an explicit service passed in Options is
// used (and accumulates) across separate Run batches.
func TestSharedServiceAcrossTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	svc := solver.NewService(solver.ServiceConfig{})
	r1 := Run([]Spec{skeletonSpec(9)}, Options{Workers: 1, Solver: svc})
	first := svc.Stats()
	if r1.Solver.Calls != first.Calls || first.Calls == 0 {
		t.Fatalf("batch window %d != service counters %d", r1.Solver.Calls, first.Calls)
	}
	// The second, identical batch reads the forms the first compiled and
	// must produce the identical campaign.
	r2 := Run([]Spec{skeletonSpec(9)}, Options{Workers: 1, Solver: svc})
	if !reflect.DeepEqual(r1.Campaigns[0].Result.Coverage.Branches(),
		r2.Campaigns[0].Result.Coverage.Branches()) {
		t.Fatal("warm rerun changed coverage")
	}
}

// TestWriteSummaryShardGroups: the summary includes the rollup line and the
// solver-service line.
func TestWriteSummaryShardGroups(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	base := skeletonSpec(3)
	base.Iterations = 10
	rep := Run(Shard(base, 2), Options{Workers: 2})
	var b strings.Builder
	rep.WriteSummary(&b)
	out := b.String()
	if !strings.Contains(out, "shard group skeleton/seed3") {
		t.Fatalf("summary missing shard group rollup:\n%s", out)
	}
	if !strings.Contains(out, "solver service:") {
		t.Fatalf("summary missing solver service line:\n%s", out)
	}
	if !strings.Contains(out, "2 shards") {
		t.Fatalf("summary missing shard count:\n%s", out)
	}
}
