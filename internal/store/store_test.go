package store

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
)

func TestWriteAtomicBasics(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.json")
	if err := WriteAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "one")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); string(b) != "one" {
		t.Fatalf("content %q", b)
	}

	// A failing write callback must leave the previous content and no temp
	// files behind.
	err := WriteAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "gar")
		return fmt.Errorf("boom")
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
	if b, _ := os.ReadFile(path); string(b) != "one" {
		t.Fatalf("failed write clobbered destination: %q", b)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("temp files left behind: %v", ents)
	}
}

func TestWriteAtomicConcurrent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.txt")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			WriteAtomic(path, func(w io.Writer) error {
				_, err := fmt.Fprintf(w, "writer-%d", i)
				return err
			})
		}(i)
	}
	wg.Wait()
	// Whatever won, the file is one complete write, never interleaved.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b), "writer-") || len(b) > len("writer-9") {
		t.Fatalf("torn content: %q", b)
	}
}

func TestOpenCreatesAndValidatesManifest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Dir() != dir {
		t.Fatalf("dir %q", s.Dir())
	}
	var m storeManifest
	b, err := os.ReadFile(filepath.Join(dir, "store.json"))
	if err != nil {
		t.Fatal(err)
	}
	if json.Unmarshal(b, &m); m.Version != Version || m.Canon != expr.CanonVersion {
		t.Fatalf("manifest %+v", m)
	}
	if _, err := Open(dir); err != nil {
		t.Fatalf("reopen: %v", err)
	}

	// A store written by a newer schema is refused.
	os.WriteFile(filepath.Join(dir, "store.json"),
		[]byte(fmt.Sprintf(`{"version":%d}`, Version+1)), 0o644)
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "schema version") {
		t.Fatalf("newer store accepted: %v", err)
	}
}

func TestCampaignRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap := &core.Snapshot{
		Version: core.SnapshotVersion, Program: "skeleton",
		Inputs: map[string]int64{"x": 7}, Prev: map[string]int64{"x": 7},
		Iters: 3, RNG: 42,
		Stats: []core.IterationStat{{Iter: 0}, {Iter: 1}, {Iter: 2}},
	}
	if err := s.SaveCampaign("camp-a", snap); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadCampaign("camp-a")
	if err != nil {
		t.Fatal(err)
	}
	if got.Program != "skeleton" || got.Iters != 3 || got.RNG != 42 || len(got.Stats) != 3 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	names, err := s.Campaigns()
	if err != nil || len(names) != 1 || names[0] != "camp-a" {
		t.Fatalf("campaigns %v (%v)", names, err)
	}
	if _, err := s.LoadCampaign("missing"); err == nil {
		t.Fatal("missing campaign load succeeded")
	}
}

func TestCampaignNameSanitizes(t *testing.T) {
	n := CampaignName("sked/np=8 focus:0", "abcdef0123456789")
	if strings.ContainsAny(n, "/=: ") {
		t.Fatalf("unsanitized name %q", n)
	}
	if !strings.HasSuffix(n, "-abcdef012345") {
		t.Fatalf("key suffix missing: %q", n)
	}
	long := CampaignName(strings.Repeat("x", 200), "k")
	if len(long) > 85 {
		t.Fatalf("name not truncated: %d chars", len(long))
	}
}

func TestBatchRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveBatch(&BatchManifest{}); err == nil {
		t.Fatal("manifest without ID accepted")
	}
	m := &BatchManifest{ID: "batch-1", Entries: []BatchEntry{
		{Label: "a", Key: "k1", Status: StatusDone, Campaign: "a-k1", Iters: 10},
		{Label: "b", Status: StatusPending},
	}}
	if err := s.SaveBatch(m); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadBatch("batch-1")
	if err != nil || got == nil {
		t.Fatalf("load: %v %v", got, err)
	}
	if len(got.Entries) != 2 || got.Entries[0].Status != StatusDone {
		t.Fatalf("entries %+v", got.Entries)
	}
	if miss, err := s.LoadBatch("nope"); miss != nil || err != nil {
		t.Fatalf("missing batch: %v %v", miss, err)
	}
	ids, err := s.Batches()
	if err != nil || len(ids) != 1 || ids[0] != "batch-1" {
		t.Fatalf("batches %v (%v)", ids, err)
	}
}

// TestSetupIndex: the campaign index is the store's setup index. An empty
// store has no entry; a setup finished again, further, in another batch
// moves its one entry there.
func TestSetupIndex(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if entries, err := s.Index(); err != nil || len(entries) != 0 {
		t.Fatalf("empty store reported setups %v (err %v)", entries, err)
	}
	for _, step := range []struct {
		batch string
		iters int
	}{{"b1", 50}, {"b2", 100}} {
		e := BatchEntry{Label: "c", Key: "k1", Status: StatusDone, Campaign: "c1", Iters: step.iters}
		snap := &core.Snapshot{Version: core.SnapshotVersion, Program: "p", Iters: step.iters}
		if err := s.SaveCampaign(e.Campaign, snap); err != nil {
			t.Fatal(err)
		}
		if err := s.IndexCampaign(step.batch, e, snap); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := s.Index()
	if err != nil || len(entries) != 1 {
		t.Fatalf("index %v (err %v)", entries, err)
	}
	if e := entries[0]; e.Key != "k1" || e.Campaign != "c1" || e.Iters != 100 || e.Batch != "b2" {
		t.Fatalf("entry %+v", e)
	}
}
