package spec

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
)

// canonicalState is the canonical initial state a campaign's exploration is
// determined by — the JSON-marshal of this struct, hashed, is the one setup
// key the store's campaign index, batch manifests, and the fleet coordinator
// all agree on. Iterations and TimeBudget are deliberately excluded: they
// say how *long* to explore, not *what* — a 50-iteration run is a prefix of
// the 100-iteration run of the same state, which is exactly what lets a
// later batch resume or reuse it. SnapshotVersion is included so snapshots
// from an incompatible schema never collide with current keys.
//
// COMPATIBILITY: the field order, names, and omitempty placement reproduce
// the pre-spec sched.setupKeyState byte-for-byte (struct field order is JSON
// field order), so every key a pre-refactor store wrote still resolves —
// pinned by TestCanonicalGolden. New dimensions may only be appended, and
// only with omitempty, so campaigns that don't use them keep their keys.
type canonicalState struct {
	Target       string           `json:"target"`
	External     string           `json:"external,omitempty"`
	Snapshot     int              `json:"snapshot"`
	Seed         int64            `json:"seed"`
	InitialProcs int              `json:"initialProcs"`
	InitialFocus int              `json:"initialFocus"`
	MaxProcs     int              `json:"maxProcs"`
	Reduction    bool             `json:"reduction"`
	DepthBound   int              `json:"depthBound"`
	DFSPhase     int              `json:"dfsPhase"`
	OneWay       bool             `json:"oneWay"`
	Framework    bool             `json:"framework"`
	PureRandom   bool             `json:"pureRandom"`
	Schedules    bool             `json:"schedules,omitempty"`
	RunTimeout   time.Duration    `json:"runTimeout"`
	MaxTicks     int64            `json:"maxTicks"`
	MaxNodes     int              `json:"maxNodes"`
	Params       map[string]int64 `json:"params,omitempty"`
	Inputs       map[string]int64 `json:"inputs,omitempty"`

	// Appended post-refactor (omitempty: default campaigns keep their
	// pre-spec keys). Strategy is the normalized strategy name; MatchOrder
	// pins replay campaigns steered to a recorded schedule.
	Strategy   string  `json:"strategy,omitempty"`
	MatchOrder [][]int `json:"matchOrder,omitempty"`
}

// Canonical returns the campaign's canonical setup key: a truncated SHA-256
// over the canonical state's JSON encoding (map keys sort, so the encoding
// is canonical). Two campaigns with equal keys explore the same trajectory
// prefix; the schema version of the spec itself is excluded so version
// bumps never orphan a store.
func (c Campaign) Canonical() string {
	st := canonicalState{
		Target:       c.TargetName(),
		Snapshot:     core.SnapshotVersion,
		Seed:         c.Seed,
		InitialProcs: c.InitialProcs,
		InitialFocus: c.InitialFocus,
		MaxProcs:     c.MaxProcs,
		Reduction:    c.Reduction,
		DepthBound:   c.DepthBound,
		DFSPhase:     c.DFSPhase,
		OneWay:       c.OneWay,
		Framework:    c.Framework,
		PureRandom:   c.PureRandom,
		Schedules:    c.Schedules,
		RunTimeout:   c.RunTimeout,
		MaxTicks:     c.MaxTicks,
		MaxNodes:     c.SolverMaxNodes,
		Params:       c.Params,
		Inputs:       c.Inputs,
		Strategy:     normStrategy(c.Strategy),
		MatchOrder:   c.MatchOrder,
	}
	if c.External != nil {
		st.External = filepath.Base(c.External.Bin) + " " + fmt.Sprint(c.External.Args)
	}
	b, _ := json.Marshal(st)
	return fmt.Sprintf("%x", sha256.Sum256(b))[:24]
}
