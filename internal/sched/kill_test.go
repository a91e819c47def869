package sched

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

// TestMain doubles as the kill-resume fault injector: re-executed with
// COMPI_SCHED_KILL=k set, the test binary runs one store-backed campaign
// (COMPI_SCHED_LABEL, COMPI_SCHED_ITERS iterations, store COMPI_SCHED_DIR)
// and exits with status 3 inside its Checkpoint hook once iteration k is
// checkpointed, the way a killed `compi sched` dies, instead of running the
// tests. internal/fleet and internal/proto keep their fault zoos the same
// way.
func TestMain(m *testing.M) {
	kill := os.Getenv("COMPI_SCHED_KILL")
	if kill == "" {
		os.Exit(m.Run())
	}
	k, err1 := strconv.Atoi(kill)
	n, err2 := strconv.Atoi(os.Getenv("COMPI_SCHED_ITERS"))
	st, err3 := store.Open(os.Getenv("COMPI_SCHED_DIR"))
	if err := errors.Join(err1, err2, err3); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sp := killSpec(os.Getenv("COMPI_SCHED_LABEL"), n)
	sp.Overrides.Checkpoint = func(snap *core.Snapshot) {
		if snap.Iters == k {
			os.Exit(3)
		}
	}
	rep := Run([]Spec{sp}, Options{Workers: 1, Store: st})
	fmt.Fprintf(os.Stderr, "campaign ended without reaching iteration %d (store error %v)\n", k, rep.StoreErr)
	os.Exit(2)
}

// killSpec is the campaign the kill-resume test runs under a label.
func killSpec(label string, iters int) Spec {
	sp := skeletonSpec(7)
	sp.Label = label
	sp.Iterations = iters
	return sp
}

// TestKillResume is the kill-resume fault pin. A child process runs a
// store-backed campaign of n iterations and dies inside its Checkpoint hook
// after iteration k. Rerunning the same batch must run exactly the n-k
// iterations left, counted through Overrides.Trace, and equal a storeless
// n-iteration run. It must do so on a setup's first run, and on a relabeled
// run of a setup an earlier batch finished to fewer than k iterations (where
// the index names the earlier, shorter snapshot), with or without a Compact
// between the kill and the rerun.
func TestKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	const n, k, earlier = 40, 25, 12
	want := fingerprintOf(Run([]Spec{killSpec("B", n)}, Options{Workers: 1}))

	for _, tc := range []struct {
		name    string
		earlier int // iterations label A finished to first; 0 = none
		compact bool
	}{
		{"first run", 0, false},
		{"first run, compacted", 0, true},
		{"relabeled", earlier, false},
		{"relabeled, compacted", earlier, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.earlier > 0 {
				st, err := store.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				if rep := Run([]Spec{killSpec("A", tc.earlier)}, Options{Workers: 1, Store: st}); rep.StoreErr != nil {
					t.Fatal(rep.StoreErr)
				}
				st.Close()
			}

			child := exec.Command(os.Args[0], "-test.run=^$")
			child.Env = append(os.Environ(),
				"COMPI_SCHED_KILL="+strconv.Itoa(k), "COMPI_SCHED_ITERS="+strconv.Itoa(n),
				"COMPI_SCHED_LABEL=B", "COMPI_SCHED_DIR="+dir)
			out, err := child.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 3 {
				t.Fatalf("child was not killed at its checkpoint: %v\n%s", err, out)
			}

			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if tc.compact {
				if _, err := st.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			ran := 0
			sp := killSpec("B", n)
			sp.Overrides.Trace = func(core.IterationStat) { ran++ }
			rep := Run([]Spec{sp}, Options{Workers: 1, Store: st})
			if rep.StoreErr != nil {
				t.Fatal(rep.StoreErr)
			}
			if ran != n-k {
				t.Fatalf("rerun ran %d iterations, want %d", ran, n-k)
			}
			if got := fingerprintOf(rep); !reflect.DeepEqual(got, want) {
				t.Fatal("resumed campaign differs from the uninterrupted run")
			}
		})
	}
}
