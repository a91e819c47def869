package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/target"
)

// stdoutOf runs fn with os.Stdout sent to a file and returns what it printed
// and its exit code.
func stdoutOf(t *testing.T, fn func() int) (string, int) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	code := fn()
	os.Stdout = saved
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), code
}

// TestStoreInventoryShowsJournal: a store left with an interrupted campaign,
// whose checkpoints only its journal holds, lists that campaign with its
// journaled iterations marked unfolded, in text and JSON. `compi store
// compact` folds the journal and says so; the inventory then shows the same
// iterations, folded.
func TestStoreInventoryShowsJournal(t *testing.T) {
	const iters = 10
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	prog, ok := target.Lookup("skeleton")
	if !ok {
		t.Fatal("skeleton not registered")
	}
	core.NewEngine(core.Config{
		Program: prog, Iterations: iters, Reduction: true, Framework: true,
		Seed: 3, RunTimeout: 5 * time.Second,
		Checkpoint: func(s *core.Snapshot) {
			if err := st.AppendCampaign("skel", s); err != nil {
				t.Error(err)
			}
		},
	}).Run()
	// A running manifest entry is what keeps compaction from dropping the
	// interrupted campaign.
	err = st.SaveBatch(&store.BatchManifest{ID: "b", Entries: []store.BatchEntry{
		{Label: "skel", Key: "k", Status: store.StatusRunning, Campaign: "skel"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	out, code := stdoutOf(t, func() int { return newStoreMode().Run([]string{"-dir", dir}) })
	if code != 0 || !strings.Contains(out, "campaigns 1\n") || !strings.Contains(out, "iters=10") ||
		!strings.Contains(out, "journaled=10 (unfolded)") {
		t.Fatalf("inventory (exit %d) does not show the journaled campaign:\n%s", code, out)
	}
	out, code = stdoutOf(t, func() int { return newStoreMode().Run([]string{"-dir", dir, "-json"}) })
	var inv struct {
		Campaigns []struct {
			Name     string `json:"name"`
			Iters    int    `json:"iters"`
			Unfolded int    `json:"unfolded"`
		} `json:"campaigns"`
	}
	if err := json.Unmarshal([]byte(out), &inv); err != nil || code != 0 {
		t.Fatalf("inventory -json (exit %d, %v):\n%s", code, err, out)
	}
	if len(inv.Campaigns) != 1 || inv.Campaigns[0].Iters != iters || inv.Campaigns[0].Unfolded != iters {
		t.Fatalf("inventory -json campaigns %+v, want skel at %d iterations, all unfolded", inv.Campaigns, iters)
	}

	out, code = stdoutOf(t, func() int { return newStoreMode().Run([]string{"compact", "-dir", dir}) })
	if code != 0 || !strings.Contains(out, "folded 1 journals") {
		t.Fatalf("compact (exit %d) did not report the folded journal:\n%s", code, out)
	}
	out, _ = stdoutOf(t, func() int { return newStoreMode().Run([]string{"-dir", dir}) })
	if !strings.Contains(out, "iters=10") || strings.Contains(out, "unfolded") {
		t.Fatalf("inventory after compaction:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "campaigns", "skel.log")); !os.IsNotExist(err) {
		t.Fatalf("journal left after compaction: %v", err)
	}
}
