package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/spec"
)

// TestCampaignFlagParity is the registry-walking parity test: every mode
// that shapes campaigns must bind every canonical campaign flag or exclude
// it with a reason string. This is what keeps "-schedules exists on sched
// but not drive"-style drift from coming back — adding a campaign flag to
// spec.CampaignFlagNames makes every mode account for it or fail here.
func TestCampaignFlagParity(t *testing.T) {
	sawCampaignMode := false
	for _, m := range modes() {
		cm, ok := m.(campaignMode)
		if !ok {
			continue
		}
		sawCampaignMode = true
		excluded := cm.Excluded()
		for _, name := range spec.CampaignFlagNames() {
			bound := cm.Flags().Lookup(name) != nil
			reason, hasReason := excluded[name]
			switch {
			case bound && hasReason:
				t.Errorf("%s: flag -%s both bound and excluded (%q)", m.Name(), name, reason)
			case !bound && !hasReason:
				t.Errorf("%s: campaign flag -%s neither bound nor excluded with a reason", m.Name(), name)
			case !bound && reason == "":
				t.Errorf("%s: flag -%s excluded without a reason", m.Name(), name)
			}
		}
		// Exclusions must only name canonical campaign flags — a stale entry
		// means the canonical list and the mode drifted apart.
		canon := map[string]bool{}
		for _, name := range spec.CampaignFlagNames() {
			canon[name] = true
		}
		for name := range excluded {
			if !canon[name] {
				t.Errorf("%s: excludes %q, which is not a campaign flag", m.Name(), name)
			}
		}
	}
	if !sawCampaignMode {
		t.Fatal("no campaign modes in the registry")
	}
}

// TestRegistryShape pins the registry's structural invariants: unique,
// well-formed names; FlagSets named "compi <mode>" so -h output mentions the
// mode; and the generated usage text listing every mode.
func TestRegistryShape(t *testing.T) {
	seen := map[string]bool{}
	usage := usageText()
	for _, m := range modes() {
		name := m.Name()
		if name == "" || strings.ContainsAny(name, " -") {
			t.Errorf("bad mode name %q", name)
		}
		if seen[name] {
			t.Errorf("duplicate mode %q", name)
		}
		seen[name] = true
		if m.Synopsis() == "" {
			t.Errorf("%s: empty synopsis", name)
		}
		if got, want := m.Flags().Name(), "compi "+name; got != want {
			t.Errorf("%s: FlagSet named %q, want %q", name, got, want)
		}
		if !strings.Contains(usage, name) {
			t.Errorf("usage text omits mode %q:\n%s", name, usage)
		}
	}
	// The default mode must exist: bare `compi -target x` dispatches to it.
	if !seen["run"] {
		t.Error("registry has no run mode")
	}
}

// TestModeFlagSetsErrorHandling: every mode's FlagSet uses ExitOnError, the
// contract behind the CI smoke loop (`compi <mode> -h` exits 0, bad flags
// exit 2).
func TestModeFlagSetsErrorHandling(t *testing.T) {
	for _, m := range modes() {
		if got := m.Flags().ErrorHandling(); got != flag.ExitOnError {
			t.Errorf("%s: flag error handling %v, want ExitOnError", m.Name(), got)
		}
	}
}

// TestStoreUnknownAction: a first argument that is not a store action is a
// usage error (exit 2) naming it, whether it comes before or after -dir,
// rather than falling through to the inventory's "-dir is required".
func TestStoreUnknownAction(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"compcat", "-dir", dir},
		{"minimize", "-dir", dir},
		{"-dir", dir, "compcat"},
	} {
		if got := newStoreMode().Run(args); got != 2 {
			t.Errorf("compi store %v exited %d, want 2", args, got)
		}
	}
}

// TestStoreDirExitCodes: the modes that read an existing store return their
// exit code through Run instead of exiting the process: 2 when no directory
// is given, 1 when the path is not a directory.
func TestStoreDirExitCodes(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		run  func(args []string) int
	}{
		{"store", func(args []string) int { return newStoreMode().Run(args) }},
		{"store compact", func(args []string) int { return newStoreMode().Run(append([]string{"compact"}, args...)) }},
		{"store reindex", func(args []string) int { return newStoreMode().Run(append([]string{"reindex"}, args...)) }},
		{"report", func(args []string) int { return newReportMode().Run(args) }},
	} {
		if got := mode.run(nil); got != 2 {
			t.Errorf("compi %s without -dir exited %d, want 2", mode.name, got)
		}
		if got := mode.run([]string{"-dir", file}); got != 1 {
			t.Errorf("compi %s -dir <file> exited %d, want 1", mode.name, got)
		}
	}
}

// TestSchedUnopenableStateDir: a -state-dir the store cannot open fails the
// batch with exit 1 before any campaign runs.
func TestSchedUnopenableStateDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-targets", "skeleton", "-seeds", "3", "-iters", "1", "-state-dir", file}
	if got := newSchedMode().Run(args); got != 1 {
		t.Errorf("compi sched -state-dir <file> exited %d, want 1", got)
	}
}
