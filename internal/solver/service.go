package solver

import (
	"container/list"
	"crypto/sha256"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/binstat"
	"repro/internal/expr"
)

// Service is the shared, concurrency-safe solving front end. It wraps the
// free functions Solve/SolveIncremental with two caches:
//
//   - a SAT-result memo, keyed on the exact solving input (the literal
//     predicate partition, the previous values it can see, and the options).
//     The backtracking search is sensitive to predicate order, variable
//     identity and seed, so only an exact match is guaranteed to reproduce
//     the live result; a hit therefore returns bit-for-bit what the live
//     solver would have returned. Cached assignments are re-verified against
//     the full predicate set before reuse and fall back to a live solve on
//     mismatch.
//
//   - an UNSAT-set cache, keyed on the canonical form of the partition
//     (expr.CanonicalKey): renamed or reordered but equivalent constraint
//     sets collide. Only *refuted* conjunctions enter this cache — a
//     constant-false predicate or bounds propagation emptying a domain —
//     because refutation is independent of previous values, seed and search
//     budget, so serving a cached UNSAT is indistinguishable from solving
//     live. An UNSAT hit lets the engine Reject a proposal without touching
//     the search at all.
//
// Because every hit returns exactly what the live call would have, a Service
// never perturbs an engine's trajectory: campaigns sharing one Service are
// byte-identical to campaigns solving privately, which is what lets the
// scheduler wire a single Service across a whole sharded batch without
// breaking its determinism contract.
type Service struct {
	mu    sync.Mutex
	sat   *lru[[32]byte, map[expr.Var]int64]
	unsat *lru[unsatKey, struct{}]
	stats Stats

	// memo computes the canonical key every conjunction needs for the UNSAT
	// cache, reusing the normalized form of each predicate tree an earlier
	// call already normalized: engines re-submit the same prefixes
	// throughout a campaign. Self-locking, shared by all callers of the
	// service.
	memo *expr.KeyMemo

	// prof, when non-nil, receives the service's own bins ("solver.canon",
	// "solver.live"). Purely observational.
	prof *binstat.Profiler
}

// unsatKey is a refuted canonical form. Bounds propagation depends on the
// variable domain, so the domain bounds are part of the key.
type unsatKey struct {
	canon  expr.Key
	lo, hi int64
}

// ServiceConfig sizes the Service caches. Zero values select the defaults.
type ServiceConfig struct {
	// MaxSAT and MaxUnsat bound the entry counts of the two caches
	// (least-recently-used eviction). Negative disables that cache.
	MaxSAT   int
	MaxUnsat int

	// Profiler, when non-nil, receives the service's wall-clock bins:
	// "solver.canon" (canonical-key computation per call) and "solver.live" (live backtracking solves). Profiling is
	// purely observational and the profiler may be shared with the engines
	// using this service.
	Profiler *binstat.Profiler
}

// Default cache bounds.
const (
	DefaultMaxSAT   = 4096
	DefaultMaxUnsat = 4096
)

// NewService returns an empty solver service.
func NewService(cfg ServiceConfig) *Service {
	if cfg.MaxSAT == 0 {
		cfg.MaxSAT = DefaultMaxSAT
	}
	if cfg.MaxUnsat == 0 {
		cfg.MaxUnsat = DefaultMaxUnsat
	}
	return &Service{
		sat:   newLRU[[32]byte, map[expr.Var]int64](cfg.MaxSAT),
		unsat: newLRU[unsatKey, struct{}](cfg.MaxUnsat),
		memo:  expr.NewKeyMemo(0),
		prof:  cfg.Profiler,
	}
}

// Stats is the service's counter snapshot. All counters are cumulative;
// subtract two snapshots (Delta) for a window.
type Stats struct {
	Calls     int64 // solve requests through the service
	SATHits   int64 // answered from the SAT memo
	UnsatHits int64 // rejected from the UNSAT cache without solving
	Misses    int64 // live solves
	Evicted   int64 // cache entries evicted (both caches)
	LiveTime  time.Duration
}

// Delta returns the counters accumulated since the earlier snapshot.
func (s Stats) Delta(since Stats) Stats {
	return Stats{
		Calls:     s.Calls - since.Calls,
		SATHits:   s.SATHits - since.SATHits,
		UnsatHits: s.UnsatHits - since.UnsatHits,
		Misses:    s.Misses - since.Misses,
		Evicted:   s.Evicted - since.Evicted,
		LiveTime:  s.LiveTime - since.LiveTime,
	}
}

// HitRate is the fraction of calls served from either cache.
func (s Stats) HitRate() float64 {
	if s.Calls == 0 {
		return 0
	}
	return float64(s.SATHits+s.UnsatHits) / float64(s.Calls)
}

// Summary renders the one-line service report the CLIs print.
func (s Stats) Summary() string {
	if s.Calls == 0 {
		return "solver service: no calls"
	}
	avg := time.Duration(0)
	if s.Misses > 0 {
		avg = s.LiveTime / time.Duration(s.Misses)
	}
	return fmt.Sprintf(
		"solver service: %d calls, %d sat hits, %d unsat hits (%.1f%% cached), %d live solves (avg %s), %d evicted",
		s.Calls, s.SATHits, s.UnsatHits, 100*s.HitRate(), s.Misses,
		avg.Round(time.Microsecond), s.Evicted)
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// SolveIncremental is the cached equivalent of the package-level
// SolveIncremental: identical inputs yield identical results, hit or miss.
func (s *Service) SolveIncremental(preds []expr.Pred, prev map[expr.Var]int64, opt Options) (Result, bool) {
	opt = opt.normalized()
	if len(preds) == 0 {
		return carryStale(map[expr.Var]int64{}, prev), true
	}
	vals, ok, unsat := s.solveCached(incrementalSubset(preds), prev, opt)
	if !ok {
		return unsat, false
	}
	return carryStale(vals, prev), true
}

// Solve is the cached equivalent of the package-level Solve.
func (s *Service) Solve(preds []expr.Pred, prev map[expr.Var]int64, opt Options) (Result, bool) {
	opt = opt.normalized()
	vals, ok, unsat := s.solveCached(preds, prev, opt)
	if !ok {
		return unsat, false
	}
	return makeResult(vals, prev), true
}

// solveCached answers one conjunction from the caches or a live solve. The
// returned map is private to the caller. On an unsatisfiable answer the
// third return is the unsatisfiable Result: Proven for a refutation, and
// Cached too when the UNSAT cache answered.
func (s *Service) solveCached(sub []expr.Pred, prev map[expr.Var]int64, opt Options) (map[expr.Var]int64, bool, Result) {
	csp := s.prof.Time("solver.canon")
	uk := unsatKey{canon: s.memo.Key(sub), lo: opt.Lo, hi: opt.Hi}
	csp.End()

	s.mu.Lock()
	s.stats.Calls++
	_, refuted := s.unsat.get(uk)
	if refuted {
		s.stats.UnsatHits++
	}
	s.mu.Unlock()
	if refuted {
		return nil, false, Result{Proven: true, Cached: true}
	}

	sk := satFingerprint(sub, prev, opt)
	s.mu.Lock()
	if vals, hit := s.sat.get(sk); hit {
		if satisfiesAll(sub, vals) {
			s.stats.SATHits++
			s.mu.Unlock()
			return cloneVals(vals), true, Result{}
		}
		// A verification miss means the memo entry is stale or corrupt;
		// drop it and solve live.
		s.sat.remove(sk)
	}
	s.stats.Misses++
	s.mu.Unlock()

	start := time.Now()
	p := newProblem(sub, prev, opt)
	vals, ok, proven := p.solve()
	elapsed := time.Since(start)
	s.prof.Observe("solver.live", elapsed)

	s.mu.Lock()
	s.stats.LiveTime += elapsed
	switch {
	case ok:
		s.stats.Evicted += s.sat.add(sk, cloneVals(vals))
	case proven:
		s.stats.Evicted += s.unsat.add(uk, struct{}{})
	}
	s.mu.Unlock()
	if !ok {
		return nil, false, Result{Proven: proven}
	}
	return vals, true, Result{}
}

// satisfiesAll re-verifies a cached assignment against the predicate set.
func satisfiesAll(preds []expr.Pred, vals map[expr.Var]int64) bool {
	env := func(v expr.Var) int64 { return vals[v] }
	for _, p := range preds {
		vs := map[expr.Var]struct{}{}
		p.Vars(vs)
		for v := range vs {
			if _, ok := vals[v]; !ok {
				return false
			}
		}
		hold, ok := p.Eval(env)
		if !ok || !hold {
			return false
		}
	}
	return true
}

func cloneVals(vals map[expr.Var]int64) map[expr.Var]int64 {
	out := make(map[expr.Var]int64, len(vals))
	for v, x := range vals {
		out[v] = x
	}
	return out
}

// satFingerprint keys the SAT memo: the literal predicate serialization (in
// order — the search is order-sensitive), the previous values projected onto
// the partition's variables (the only ones the search can read), and the
// normalized options including the seed.
func satFingerprint(sub []expr.Pred, prev map[expr.Var]int64, opt Options) [32]byte {
	var b []byte
	var vars []expr.Var
	for _, p := range sub {
		b = append(p.Append(b), '\n')
		vars = appendVars(vars, p.E)
	}
	slices.Sort(vars)
	for _, v := range slices.Compact(vars) {
		if x, ok := prev[v]; ok {
			b = strconv.AppendInt(append(b, 'p'), int64(v), 10)
			b = append(strconv.AppendInt(append(b, '='), x, 10), '\n')
		}
	}
	b = append(b, 'o')
	for i, x := range []int64{opt.Lo, opt.Hi, int64(opt.MaxNodes), opt.Seed} {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, x, 10)
	}
	return sha256.Sum256(b)
}

// lru is a minimal mutex-free (caller-locked) LRU map with bounded size.
type lru[K comparable, V any] struct {
	max   int
	ll    *list.List
	items map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](max int) *lru[K, V] {
	return &lru[K, V]{max: max, ll: list.New(), items: map[K]*list.Element{}}
}

func (c *lru[K, V]) get(k K) (V, bool) {
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(lruEntry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// add inserts or refreshes an entry and returns the number of evictions.
func (c *lru[K, V]) add(k K, v V) int64 {
	if c.max < 0 {
		return 0
	}
	if el, ok := c.items[k]; ok {
		el.Value = lruEntry[K, V]{k, v}
		c.ll.MoveToFront(el)
		return 0
	}
	c.items[k] = c.ll.PushFront(lruEntry[K, V]{k, v})
	var evicted int64
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(lruEntry[K, V]).key)
		evicted++
	}
	return evicted
}

func (c *lru[K, V]) remove(k K) {
	if el, ok := c.items[k]; ok {
		c.ll.Remove(el)
		delete(c.items, k)
	}
}

func (c *lru[K, V]) len() int { return len(c.items) }

// keys returns every key currently cached, in no particular order.
func (c *lru[K, V]) keys() []K {
	out := make([]K, 0, len(c.items))
	for k := range c.items {
		out = append(out, k)
	}
	return out
}
