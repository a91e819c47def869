package sched

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/binstat"
	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/spec"
	_ "repro/internal/targets/skeleton"
	"repro/internal/targets/stencil"
	"repro/internal/targets/susy"
)

func skeletonSpec(seed int64) Spec {
	return Spec{Campaign: spec.Campaign{
		Target:     "skeleton",
		Seed:       seed,
		Iterations: 40,
		Reduction:  true,
		Framework:  true,
		RunTimeout: 5 * time.Second,
	}}
}

// fingerprint reduces a report to the parts the determinism contract covers:
// per-campaign coverage sets and per-target merged coverage plus distinct
// error keys. Wall-clock fields are excluded on purpose.
type fingerprint struct {
	campaignCov [][]conc.BranchBit
	mergedCov   map[string][]conc.BranchBit
	errorKeys   map[string][]string
}

func fingerprintOf(r *Report) fingerprint {
	fp := fingerprint{
		mergedCov: map[string][]conc.BranchBit{},
		errorKeys: map[string][]string{},
	}
	for _, c := range r.Campaigns {
		fp.campaignCov = append(fp.campaignCov, c.Result.Coverage.Branches())
	}
	for name, cov := range r.Coverage {
		fp.mergedCov[name] = cov.Branches()
	}
	for name, byMsg := range r.Errors {
		var msgs []string
		for msg := range byMsg {
			msgs = append(msgs, msg)
		}
		sort.Strings(msgs)
		fp.errorKeys[name] = msgs
	}
	return fp
}

// TestRunDeterministicAcrossWorkerCounts is the scheduler's core contract:
// the same spec list run serially and with 8 workers must produce identical
// coverage sets and error keys. Run under -race this also checks that each
// engine's tracker stays with its engine until the report merges it.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	mkSpecs := func() []Spec {
		var specs []Spec
		for _, seed := range []int64{1, 2, 3, 4, 5, 6} {
			specs = append(specs, skeletonSpec(seed))
		}
		// Two stencil campaigns share a target, so its union tracker merges
		// two campaigns' trackers.
		for _, seed := range []int64{11, 12} {
			specs = append(specs, Spec{Campaign: spec.Campaign{
				Target:     "stencil",
				Seed:       seed,
				Params:     stencil.FixAll(),
				Iterations: 25,
				Reduction:  true,
				Framework:  true,
				RunTimeout: 5 * time.Second,
				MaxTicks:   3_000_000,
			}})
		}
		return specs
	}

	serial := Run(mkSpecs(), Options{Workers: 1})
	wide := Run(mkSpecs(), Options{Workers: 8})
	if serial.Workers != 1 || wide.Workers != 8 {
		t.Fatalf("workers recorded %d/%d", serial.Workers, wide.Workers)
	}
	fpS, fpW := fingerprintOf(serial), fingerprintOf(wide)
	if !reflect.DeepEqual(fpS.campaignCov, fpW.campaignCov) {
		t.Fatal("per-campaign coverage differs between -j1 and -j8")
	}
	if !reflect.DeepEqual(fpS.mergedCov, fpW.mergedCov) {
		t.Fatal("merged coverage differs between -j1 and -j8")
	}
	if !reflect.DeepEqual(fpS.errorKeys, fpW.errorKeys) {
		t.Fatalf("error keys differ: %v vs %v", fpS.errorKeys, fpW.errorKeys)
	}
}

// TestCrossCampaignIsolation runs a fixed and an unfixed SUSY campaign
// concurrently. Before the Params refactor the fix toggles were package
// globals, so either campaign could flip the other's bugs mid-run; now each
// campaign's bag must only govern its own executions: the unfixed campaign
// crashes on the seeded wrong-malloc bug while the concurrent fixed campaign
// never sees a crash.
func TestCrossCampaignIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	mk := func(label string, params map[string]int64, seed int64) Spec {
		return Spec{Campaign: spec.Campaign{
			Label:  label,
			Target: "susy-hmc",
			Seed:   seed,
			Params: params,
			// Seed the known-good inputs so iteration 0 gets past the
			// sanity chain; the RHMC bug then fires on any successful
			// setup in the unfixed campaign.
			Inputs:     susy.DefaultInputs(),
			Iterations: 30,
			Reduction:  true,
			Framework:  true,
			RunTimeout: 15 * time.Second,
		}}
	}
	rep := Run([]Spec{
		mk("fixed", susy.FixAll(), 21),
		mk("unfixed", susy.UnfixAll(), 21),
	}, Options{Workers: 2})

	var fixed, unfixed *Campaign
	for i := range rep.Campaigns {
		switch rep.Campaigns[i].Label {
		case "fixed":
			fixed = &rep.Campaigns[i]
		case "unfixed":
			unfixed = &rep.Campaigns[i]
		}
	}
	crashes := func(c *Campaign) []string {
		var out []string
		for msg := range c.Result.DistinctErrors() {
			if strings.Contains(msg, "out of range") ||
				strings.Contains(msg, "divide by zero") {
				out = append(out, msg)
			}
		}
		return out
	}
	if got := crashes(unfixed); len(got) == 0 {
		t.Fatalf("unfixed campaign found no seeded crash; errors: %v",
			unfixed.Result.DistinctErrors())
	}
	if got := crashes(fixed); len(got) != 0 {
		t.Fatalf("fixed campaign crashed — campaign params leaked: %v", got)
	}
}

func TestUnknownTargetIsSpecError(t *testing.T) {
	rep := Run([]Spec{
		{Campaign: spec.Campaign{Target: "no-such-program"}},
		skeletonSpec(1),
	}, Options{Workers: 2})
	if rep.Campaigns[0].Err == nil ||
		!strings.Contains(rep.Campaigns[0].Err.Error(), "unknown target") {
		t.Fatalf("want unknown-target error, got %v", rep.Campaigns[0].Err)
	}
	if rep.Campaigns[1].Err != nil {
		t.Fatalf("good spec failed: %v", rep.Campaigns[1].Err)
	}
	if _, ok := rep.Coverage["no-such-program"]; ok {
		t.Fatal("failed spec contributed a coverage tracker")
	}
	var buf bytes.Buffer
	rep.WriteSummary(&buf)
	if !strings.Contains(buf.String(), "unknown target") {
		t.Fatal("summary does not surface the spec error")
	}
}

func TestLabelAndSeedDefaults(t *testing.T) {
	s := skeletonSpec(7)
	if got := s.label(); got != "skeleton/seed7" {
		t.Fatalf("label: %q", got)
	}
	s.Label = "custom"
	if got := s.label(); got != "custom" {
		t.Fatalf("label: %q", got)
	}
	rep := Run([]Spec{skeletonSpec(7)}, Options{Workers: 1})
	if rep.Campaigns[0].Label != "skeleton/seed7" {
		t.Fatalf("report label: %q", rep.Campaigns[0].Label)
	}
	if rep.Campaigns[0].Target != "skeleton" {
		t.Fatalf("report target: %q", rep.Campaigns[0].Target)
	}
}

// TestTraceIsSerializedAndComplete drives several campaigns with a shared
// trace callback that is deliberately not thread-safe; the scheduler's
// serialization promise means the slice below must end up with one entry per
// campaign iteration without -race complaints.
func TestTraceIsSerializedAndComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	var seen []string
	specs := []Spec{skeletonSpec(1), skeletonSpec(2), skeletonSpec(3), skeletonSpec(4)}
	rep := Run(specs, Options{
		Workers: 4,
		Trace: func(label string, it core.IterationStat) {
			seen = append(seen, label)
		},
	})
	want := 0
	for _, c := range rep.Campaigns {
		want += len(c.Result.Iterations)
	}
	if len(seen) != want {
		t.Fatalf("trace saw %d iterations, campaigns ran %d", len(seen), want)
	}
}

// TestBatchProfileRollup pins two things about Options.Profiler: profiling
// a batch never perturbs it (fingerprint-equal to the unprofiled run), and
// the batch report's Profile window actually contains the campaigns' engine
// phase bins — not just the shared solver service's — with per-iteration
// counts that add up across campaigns.
func TestBatchProfileRollup(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	mkSpecs := func() []Spec {
		return []Spec{skeletonSpec(31), skeletonSpec(32)}
	}

	plain := Run(mkSpecs(), Options{Workers: 2})
	if len(plain.Profile) != 0 {
		t.Fatalf("unprofiled batch has a profile: %v", plain.Profile)
	}

	prof := binstat.New()
	profiled := Run(mkSpecs(), Options{Workers: 2, Profiler: prof})
	if !reflect.DeepEqual(fingerprintOf(plain), fingerprintOf(profiled)) {
		t.Fatal("profiled batch diverged from the unprofiled batch")
	}

	var iters int64
	for _, c := range profiled.Campaigns {
		iters += int64(len(c.Result.Iterations))
	}
	exec, ok := profiled.Profile.Get("execute")
	if !ok || exec.Count != iters {
		t.Fatalf("execute bin count %d (present=%v), want one per iteration (%d)", exec.Count, ok, iters)
	}
	for _, bin := range []string{"trace-collect", "constraint-build", "solve", "solver.live"} {
		if st, ok := profiled.Profile.Get(bin); !ok || st.Count == 0 {
			t.Fatalf("batch profile missing %q bin: %v", bin, profiled.Profile)
		}
	}

	// The summary renders the profile table after the batch lines.
	var buf bytes.Buffer
	profiled.WriteSummary(&buf)
	if !strings.Contains(buf.String(), "execute") {
		t.Fatalf("WriteSummary omitted the profile table:\n%s", buf.String())
	}
}
