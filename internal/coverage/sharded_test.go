package coverage

import (
	"testing"

	"repro/internal/conc"
)

// TestShardDistribution sanity-checks that consecutive branch bits spread
// across shards (the contention argument rests on it).
func TestShardDistribution(t *testing.T) {
	hit := map[uint32]bool{}
	for b := 0; b < nShards; b++ {
		hit[shardOf(conc.BranchBit(b))] = true
	}
	if len(hit) != nShards {
		t.Fatalf("consecutive bits landed on %d/%d shards", len(hit), nShards)
	}
}

// BenchmarkRecordHot measures the tracker's record fast path (branch already
// covered) under increasing writer parallelism — the number the sharding
// exists for.
func BenchmarkRecordHot(b *testing.B) {
	tr := New()
	const nBranches = 1024
	for i := 0; i < nBranches; i++ {
		tr.AddBranch(conc.BranchBit(i))
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			tr.AddBranch(conc.BranchBit(i % nBranches))
			i++
		}
	})
}
