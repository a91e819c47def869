package expr

import "sync"

// KeyMemo computes CanonicalKey for a caller that canonicalizes conjunction
// after conjunction of one campaign, and caches the part of the work that
// carries over between calls: each predicate tree's normalized form.
// Engines submit proposal after proposal sharing the semantic constraints
// and the path prefix, so nearly every predicate of a call was normalized by
// an earlier one; only the set-level work — refinement and ordering — runs
// per call. Whole sequences are not cached: on the deep SUSY campaigns an
// exact-sequence cache answered too few calls to pay for keying them.
//
// Soundness: the cache is keyed by *Expr pointer and relation. Trees are
// immutable by contract, and a normalized form depends only on its tree and
// relation, so a cached form is exactly what a fresh normalization builds
// and Key always equals CanonicalKey.
//
// A KeyMemo is safe for concurrent use. Memory is bounded: when the cache
// would exceed its cap it is dropped whole rather than evicted entry by
// entry — a campaign's working set is rebuilt in a few proposals.
type KeyMemo struct {
	mu    sync.Mutex
	cap   int
	norms map[*Expr]*[GE + 1]*normPred

	hits    int64
	lookups int64
}

// DefaultKeyMemoCap bounds the number of cached trees.
const DefaultKeyMemoCap = 1 << 14

// NewKeyMemo returns an empty memo caching at most cap trees (cap <= 0
// selects DefaultKeyMemoCap).
func NewKeyMemo(cap int) *KeyMemo {
	if cap <= 0 {
		cap = DefaultKeyMemoCap
	}
	return &KeyMemo{cap: cap, norms: map[*Expr]*[GE + 1]*normPred{}}
}

// Key returns CanonicalKey(preds). A nil memo computes fresh.
func (m *KeyMemo) Key(preds []Pred) Key {
	if m == nil {
		return CanonicalKey(preds)
	}
	norms := make([]*normPred, len(preds))
	m.mu.Lock()
	m.lookups += int64(len(preds))
	for i, p := range preds {
		if byRel := m.norms[p.E]; byRel != nil && p.Rel <= GE {
			if norms[i] = byRel[p.Rel]; norms[i] != nil {
				m.hits++
			}
		}
	}
	m.mu.Unlock()

	// Canonicalize outside the lock: it is the expensive part, and it fills
	// in the forms the cache lacked.
	k := keyOf(canonicalForm(preds, norms))

	m.mu.Lock()
	if len(m.norms)+len(preds) > m.cap {
		m.norms = map[*Expr]*[GE + 1]*normPred{}
	}
	for i, p := range preds {
		if p.E == nil || p.Rel > GE {
			continue
		}
		byRel := m.norms[p.E]
		if byRel == nil {
			byRel = new([GE + 1]*normPred)
			m.norms[p.E] = byRel
		}
		byRel[p.Rel] = norms[i]
	}
	m.mu.Unlock()
	return k
}

// Stats reports (predicates whose normalized form came from the cache,
// predicates looked up).
func (m *KeyMemo) Stats() (hits, lookups int64) {
	if m == nil {
		return 0, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.lookups
}
