package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// campaignFP is one campaign's output fingerprint.
type campaignFP struct {
	Label    string   `json:"label"`
	Covered  int      `json:"covered"`
	Branches string   `json:"branches"` // SHA-256 of the sorted covered-branch set
	Iters    int      `json:"iters"`
	Solver   int      `json:"solverCalls"`
	Unsat    int      `json:"unsatCalls"`
	Errors   []string `json:"errors,omitempty"` // distinct error keys, "status: message", sorted
}

// fingerprint is one unit's output: its campaigns in spec order and, for a
// batch, the report's per-target lines.
type fingerprint struct {
	Campaigns []campaignFP `json:"campaigns"`
	Report    []string     `json:"report,omitempty"`
}

func (f fingerprint) equal(g fingerprint) bool {
	a, _ := json.Marshal(f)
	b, _ := json.Marshal(g)
	return bytes.Equal(a, b)
}

// golden.json holds one fingerprint per (golden family, scale, pool seed).
// Regenerate it with -update-golden bench/golden.json after a change that is
// meant to alter campaign output.
//
//go:embed golden.json
var goldenJSON []byte

func goldenKey(w *workload, sc scale, seed int64) string {
	return fmt.Sprintf("%s/%s/seed%d", w.golden, sc.name, seed)
}

func loadGolden() (map[string]fingerprint, error) {
	var g map[string]fingerprint
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// checkGolden compares a unit's output with its golden fingerprint, or, when
// collecting, records it — requiring agreement with any fingerprint already
// collected for the same key by a workload of the same family.
func (cfg *runConfig) checkGolden(u *unitResult, seed int64) {
	key := goldenKey(cfg.workload, cfg.sc, seed)
	name := "golden:" + cfg.workload.golden
	if cfg.collect != nil {
		if prev, ok := cfg.collect[key]; ok {
			u.check(name, prev.equal(u.fp), "%s differs from the fingerprint collected earlier", key)
			return
		}
		cfg.collect[key] = u.fp
		return
	}
	want, ok := cfg.golden[key]
	u.check(name, ok && want.equal(u.fp), "%s: output does not match golden.json (present: %v)", key, ok)
}

// writeGolden merges fps into the golden file at path.
func writeGolden(path string, fps map[string]fingerprint) error {
	all := map[string]fingerprint{}
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !os.IsNotExist(err):
		return err
	}
	for k, v := range fps {
		all[k] = v
	}
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetEscapeHTML(false) // keep the "0->2->0" cycles readable
	enc.SetIndent("", "  ")
	if err := enc.Encode(all); err != nil {
		return err
	}
	return os.WriteFile(path, out.Bytes(), 0o644)
}
