package solver

// The partition and its map-based reference, for the external test that
// replays a campaign's recorded solver calls.
var (
	DependentSet       = dependentSet
	DependentSetOracle = dependentSetMap
)
