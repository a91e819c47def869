// Package spec defines the one canonical campaign description: a data-only,
// JSON-serializable, schema-versioned Campaign every layer of the system
// agrees on. The scheduler runs it (plus live Overrides), the fleet ships it
// verbatim in lease frames, the store keys its campaign index and batch
// manifests by its Canonical() hash, the CLI's shared FlagBinder builds it,
// and replay records round-trip through it — so "reproduce exactly this
// campaign" is one JSON blob, not four parallel structs kept in sync by
// hand.
//
// What is data and what is live: everything a campaign's trajectory is
// determined by (target, seed, strategy name, search knobs, parameter bags)
// is data and lives here. Everything that is a live in-process object — a
// stateful Strategy value, a Backend owning a child process, trace and
// checkpoint callbacks — cannot be named on a wire or in a store and lives
// in Overrides, which never serializes. Portable is the boundary check.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/target"
)

// Version is the Campaign schema version. Decode refuses blobs stamped with
// a newer version; Portable stamps outgoing campaigns with the current one.
// The setup key (Canonical) deliberately does not include it — schema bumps
// must not orphan stored explorations; core.SnapshotVersion already fences
// incompatible snapshots.
const Version = 1

// External identifies an out-of-process target binary driven over the pipe
// protocol. The path must resolve on whichever machine runs the campaign.
type External struct {
	Bin  string   `json:"bin"`
	Args []string `json:"args,omitempty"`
	Env  []string `json:"env,omitempty"`
}

// Campaign is the canonical, data-only description of one testing campaign.
// Durations serialize as nanosecond integers (Go's time.Duration encoding).
// The zero value is a valid in-memory campaign (Version 0 means "current");
// blobs that leave the process carry an explicit Version.
type Campaign struct {
	// Version is the schema version of a serialized campaign.
	Version int `json:"version,omitempty"`

	// Label identifies the campaign in reports; defaults to
	// "<target>/seed<seed>".
	Label string `json:"label,omitempty"`

	// Target names a program in the registry. May be empty only when
	// External is set (the program model then comes from the target's
	// handshake manifest) or when live Overrides supply a Program.
	Target string `json:"target,omitempty"`

	// External, when non-nil, runs the campaign against an out-of-process
	// target binary.
	External *External `json:"external,omitempty"`

	// Seed is the campaign seed. One field — the old sched.Spec.Seed /
	// core.Config.Seed split is gone.
	Seed int64 `json:"seed,omitempty"`

	// Group marks this campaign as one shard of a larger search; reports
	// merge all campaigns sharing a Group into one rollup.
	Group string `json:"group,omitempty"`

	// Strategy names the search strategy: "" or "compi" (the default
	// two-phase DFS), "bounded-dfs", "random-branch", "uniform-random", or
	// "cfg". Strategy parameters are data too: DepthBound bounds
	// bounded-dfs, Seed seeds the random strategies.
	Strategy string `json:"strategy,omitempty"`

	// Iterations and TimeBudget say how long to explore — deliberately
	// excluded from Canonical(), which keys *what* is explored.
	Iterations int           `json:"iterations,omitempty"`
	TimeBudget time.Duration `json:"timeBudget,omitempty"`

	// InitialProcs/InitialFocus seed the first launch; MaxProcs caps the
	// derived process count.
	InitialProcs int `json:"initialProcs,omitempty"`
	InitialFocus int `json:"initialFocus,omitempty"`
	MaxProcs     int `json:"maxProcs,omitempty"`

	Reduction  bool `json:"reduction,omitempty"`
	DepthBound int  `json:"depthBound,omitempty"`
	DFSPhase   int  `json:"dfsPhase,omitempty"`
	OneWay     bool `json:"oneWay,omitempty"`
	Framework  bool `json:"framework,omitempty"`
	PureRandom bool `json:"pureRandom,omitempty"`
	Schedules  bool `json:"schedules,omitempty"`

	RunTimeout     time.Duration `json:"runTimeout,omitempty"`
	MaxTicks       int64         `json:"maxTicks,omitempty"`
	SolverMaxNodes int           `json:"solverMaxNodes,omitempty"`

	// Params is the campaign parameter bag (per-target knobs, seeded-bug
	// fix toggles); Inputs seeds the first execution's symbolic inputs.
	Params map[string]int64 `json:"params,omitempty"`
	Inputs map[string]int64 `json:"inputs,omitempty"`

	// MatchOrder, for replay campaigns, is the wildcard-match directive
	// prefix that steers the runtime to a recorded schedule.
	MatchOrder [][]int `json:"matchOrder,omitempty"`
}

// TargetName is the target the campaign's results are attributed to: the
// explicit Target, or the external binary's base name until the handshake
// manifest resolves the real program.
func (c Campaign) TargetName() string {
	if c.Target == "" && c.External != nil {
		return filepath.Base(c.External.Bin)
	}
	return c.Target
}

// DisplayLabel is the label the campaign reports under — the explicit
// Label, or "<target>/seed<seed>".
func (c Campaign) DisplayLabel() string {
	if c.Label != "" {
		return c.Label
	}
	return fmt.Sprintf("%s/seed%d", c.TargetName(), c.Seed)
}

// normStrategy folds the default strategy's two spellings together so
// "compi" and "" canonicalize (and validate) identically.
func normStrategy(s string) string {
	if s == "compi" {
		return ""
	}
	return s
}

// Validate checks a campaign is structurally runnable: schema version
// supported, a target named (in the registry, when no live Program override
// will supply one), a known strategy, and no nonsensical negatives. It does
// not touch defaults — zero means "engine default" throughout.
func (c *Campaign) Validate() error {
	if c.Version > Version {
		return fmt.Errorf("spec: campaign schema v%d is newer than this build supports (v%d)", c.Version, Version)
	}
	if c.Target == "" && c.External == nil {
		return fmt.Errorf("spec: campaign %q names no target", c.DisplayLabel())
	}
	if c.External != nil && c.External.Bin == "" {
		return fmt.Errorf("spec: campaign %q has an external target without a binary path", c.DisplayLabel())
	}
	if c.Target != "" && c.External == nil {
		if _, ok := target.Lookup(c.Target); !ok {
			return fmt.Errorf("spec: campaign %q names unknown target %q", c.DisplayLabel(), c.Target)
		}
	}
	if _, err := core.NamedStrategy(normStrategy(c.Strategy), c.Seed, c.DepthBound); err != nil {
		return fmt.Errorf("spec: campaign %q: %w", c.DisplayLabel(), err)
	}
	for name, val := range map[string]int64{
		"iterations":     int64(c.Iterations),
		"timeBudget":     int64(c.TimeBudget),
		"initialProcs":   int64(c.InitialProcs),
		"initialFocus":   int64(c.InitialFocus),
		"maxProcs":       int64(c.MaxProcs),
		"depthBound":     int64(c.DepthBound),
		"dfsPhase":       int64(c.DFSPhase),
		"runTimeout":     int64(c.RunTimeout),
		"maxTicks":       c.MaxTicks,
		"solverMaxNodes": int64(c.SolverMaxNodes),
	} {
		if val < 0 {
			return fmt.Errorf("spec: campaign %q: negative %s", c.DisplayLabel(), name)
		}
	}
	for k := range c.Params {
		if k == "" {
			return fmt.Errorf("spec: campaign %q has an empty parameter name", c.DisplayLabel())
		}
	}
	for k := range c.Inputs {
		if k == "" {
			return fmt.Errorf("spec: campaign %q has an empty input name", c.DisplayLabel())
		}
	}
	return nil
}

// EngineConfig lowers the campaign to the engine's Config: a pure
// field-by-field mapping plus the strategy name resolved to a factory
// (strategies are stateful, so the config carries a constructor — the
// scheduler's determinism contract). Live objects are the caller's to add
// afterwards (see Overrides.Apply).
func (c Campaign) EngineConfig() (core.Config, error) {
	factory, err := core.NamedStrategy(normStrategy(c.Strategy), c.Seed, c.DepthBound)
	if err != nil {
		return core.Config{}, fmt.Errorf("spec: campaign %q: %w", c.DisplayLabel(), err)
	}
	return core.Config{
		NewStrategy:    factory,
		Params:         c.Params,
		Inputs:         c.Inputs,
		Iterations:     c.Iterations,
		TimeBudget:     c.TimeBudget,
		InitialProcs:   c.InitialProcs,
		InitialFocus:   c.InitialFocus,
		MaxProcs:       c.MaxProcs,
		Reduction:      c.Reduction,
		DepthBound:     c.DepthBound,
		DFSPhase:       c.DFSPhase,
		OneWay:         c.OneWay,
		Framework:      c.Framework,
		PureRandom:     c.PureRandom,
		Schedules:      c.Schedules,
		Seed:           c.Seed,
		RunTimeout:     c.RunTimeout,
		MaxTicks:       c.MaxTicks,
		SolverMaxNodes: c.SolverMaxNodes,
	}, nil
}

// Decode reads one campaign from strict JSON: unknown fields, duplicate
// keys, and newer schema versions are all errors (a blob that would silently
// drop or shadow a field is a campaign that would silently run differently).
// The decoded campaign is validated.
func Decode(r io.Reader) (Campaign, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return Campaign{}, fmt.Errorf("spec: reading campaign: %w", err)
	}
	if err := checkDuplicateKeys(json.NewDecoder(bytes.NewReader(raw))); err != nil {
		return Campaign{}, fmt.Errorf("spec: campaign JSON: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var c Campaign
	if err := dec.Decode(&c); err != nil {
		return Campaign{}, fmt.Errorf("spec: campaign JSON: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Campaign{}, err
	}
	return c, nil
}

// checkDuplicateKeys walks one JSON value and rejects objects that bind the
// same key twice (encoding/json would silently keep the last one).
func checkDuplicateKeys(dec *json.Decoder) error {
	t, err := dec.Token()
	if err != nil {
		return err
	}
	d, ok := t.(json.Delim)
	if !ok {
		return nil
	}
	switch d {
	case '{':
		seen := map[string]bool{}
		for dec.More() {
			kt, err := dec.Token()
			if err != nil {
				return err
			}
			key := kt.(string)
			if seen[key] {
				return fmt.Errorf("duplicate key %q", key)
			}
			seen[key] = true
			if err := checkDuplicateKeys(dec); err != nil {
				return err
			}
		}
		_, err = dec.Token() // consume '}'
		return err
	case '[':
		for dec.More() {
			if err := checkDuplicateKeys(dec); err != nil {
				return err
			}
		}
		_, err = dec.Token() // consume ']'
		return err
	}
	return nil
}

// Diff reports the fields on which two campaigns differ, one
// "field: old != new" line per difference, for error messages — a resumed
// batch whose manifest slot was written by a different spec names exactly
// what changed instead of resuming the wrong exploration.
func Diff(a, b Campaign) []string {
	am, bm := fieldMap(a), fieldMap(b)
	keys := map[string]bool{}
	for k := range am {
		keys[k] = true
	}
	for k := range bm {
		keys[k] = true
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	var out []string
	for _, k := range names {
		av, aok := am[k]
		bv, bok := bm[k]
		if aok && bok && av == bv {
			continue
		}
		if !aok {
			av = "(unset)"
		}
		if !bok {
			bv = "(unset)"
		}
		out = append(out, fmt.Sprintf("%s: %s != %s", k, av, bv))
	}
	return out
}

// fieldMap flattens a campaign to its JSON field names and re-marshaled
// values, so Diff compares exactly what serializes.
func fieldMap(c Campaign) map[string]string {
	raw, _ := json.Marshal(c)
	var m map[string]json.RawMessage
	json.Unmarshal(raw, &m)
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = string(v)
	}
	return out
}
