package fleet_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/fleet"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/target"
)

// The dispatch handshake's wire bytes are an interface contract between
// coordinator and worker builds: golden-pinned, like the target protocol's
// handshake. Changing either golden constant means the protocol changed and
// Version must be bumped.
const (
	helloGolden   = `{"type":"hello","hello":{"proto":3,"name":"w1"}}`
	welcomeGolden = `{"type":"welcome","welcome":{"proto":3,"worker":3,"batch":"batch-0abc","ttl_ms":10000,"retry_ms":200,"snapshot_every":8}}`
)

func TestHandshakeGolden(t *testing.T) {
	pin := func(f fleet.Frame, golden string) {
		t.Helper()
		var buf bytes.Buffer
		if err := fleet.WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		if n := binary.BigEndian.Uint32(raw[:4]); int(n) != len(raw)-4 {
			t.Fatalf("length prefix %d for %d payload bytes", n, len(raw)-4)
		}
		if got := string(raw[4:]); got != golden {
			t.Fatalf("wire bytes changed:\n got  %s\n want %s", got, golden)
		}
		back, err := fleet.ReadFrame(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if back.Type != f.Type {
			t.Fatalf("round trip changed type: %q", back.Type)
		}
	}
	pin(fleet.Frame{Type: fleet.FrameHello, Hello: &fleet.Hello{Proto: 3, Name: "w1"}}, helloGolden)
	pin(fleet.Frame{Type: fleet.FrameWelcome, Welcome: &fleet.Welcome{
		Proto: 3, Worker: 3, Batch: "batch-0abc", TTLMS: 10000, RetryMS: 200, SnapshotEvery: 8,
	}}, welcomeGolden)
}

func TestFrameValidation(t *testing.T) {
	var buf bytes.Buffer
	// Unknown type and missing payload are refused on write...
	if err := fleet.WriteFrame(&buf, fleet.Frame{Type: "bogus"}); err == nil ||
		!strings.Contains(err.Error(), "unknown frame type") {
		t.Fatalf("bogus type: %v", err)
	}
	if err := fleet.WriteFrame(&buf, fleet.Frame{Type: fleet.FrameRenew}); err == nil ||
		!strings.Contains(err.Error(), "without its payload") {
		t.Fatalf("missing payload: %v", err)
	}
	// ...and on read, even when the bytes frame correctly.
	payload, _ := json.Marshal(map[string]any{"type": "progress"})
	var raw bytes.Buffer
	raw.Write(binary.BigEndian.AppendUint32(nil, uint32(len(payload))))
	raw.Write(payload)
	if _, err := fleet.ReadFrame(&raw); err == nil || !strings.Contains(err.Error(), "without its payload") {
		t.Fatalf("payloadless progress read: %v", err)
	}
	// Non-frame garbage is rejected by the shared codec's bounds check.
	if _, err := fleet.ReadFrame(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff, 'j'})); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestLeaseSpecRoundTrip pins the v2 wire contract: leases ship the
// canonical spec.Campaign verbatim, so a portable spec must survive JSON
// unchanged, and a spec carrying a live object must be refused naming the
// offending field with the same text the old wire layer used.
func TestLeaseSpecRoundTrip(t *testing.T) {
	sp := sched.Spec{Campaign: spec.Campaign{
		Label:  "shard-3",
		Target: "skeleton",
		Seed:   7,
		Group:  "grid",
		External: &spec.External{
			Bin: "/usr/bin/compi-target", Args: []string{"-t", "x"}, Env: []string{"A=1"},
		},
		Params:       map[string]int64{"cap": 9},
		Inputs:       map[string]int64{"x": 4},
		Iterations:   55,
		TimeBudget:   1500 * time.Millisecond,
		InitialProcs: 8, InitialFocus: 1, MaxProcs: 16,
		Reduction: true, DepthBound: 6, DFSPhase: 10,
		OneWay: true, Framework: true, PureRandom: true,
		Schedules:  true,
		RunTimeout: 5 * time.Second, MaxTicks: 1 << 20,
		SolverMaxNodes: 4096,
	}}
	w, err := sp.Portable()
	if err != nil {
		t.Fatal(err)
	}
	// The portable form must survive JSON (that is its whole job).
	b, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var w2 spec.Campaign
	if err := json.Unmarshal(b, &w2); err != nil {
		t.Fatal(err)
	}
	b2, _ := json.Marshal(w2)
	if string(b) != string(b2) {
		t.Fatalf("round trip changed the spec:\n got  %s\n want %s", b2, b)
	}
	if w.Canonical() != w2.Canonical() {
		t.Fatal("round trip changed the canonical setup key")
	}

	// Live objects are refused, naming the field — same error text the old
	// bespoke wire layer produced.
	live := sp
	live.External = nil
	live.Overrides.NewStrategy = func(p *target.Program, c *coverage.Tracker) core.Strategy { return nil }
	if _, err := live.Portable(); err == nil ||
		!strings.Contains(err.Error(), "Config.NewStrategy") ||
		!strings.Contains(err.Error(), "cannot be dispatched") {
		t.Fatalf("live strategy factory: %v", err)
	}
}
