package solver

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/binstat"
	"repro/internal/expr"
)

// Service is the shared, concurrency-safe solving front end. Every call is a
// live solve, exactly what the free function SolveIncremental computes; what
// the service adds is that each predicate tree is compiled into its solver
// form (linear form and sorted variables) once, not once per call. Engines
// submit proposal after proposal over the same semantic constraints and path
// prefix, and a negated predicate keeps its tree, so nearly every predicate
// of a call was compiled by an earlier one.
//
// Because a compiled form depends only on its immutable tree, sharing one
// Service never perturbs an engine's trajectory: campaigns sharing a Service
// are byte-identical to campaigns solving privately, which is what lets the
// scheduler wire a single Service across a whole batch without breaking its
// determinism contract.
type Service struct {
	forms formCache

	mu    sync.Mutex
	stats Stats

	// prof, when non-nil, receives the service's "solver.live" bin. Purely
	// observational.
	prof *binstat.Profiler
}

// ServiceConfig configures a Service.
type ServiceConfig struct {
	// Profiler, when non-nil, receives the service's wall-clock bin
	// "solver.live" (one live solve per call). Profiling is purely
	// observational and the profiler may be shared with the engines using
	// this service.
	Profiler *binstat.Profiler
}

// NewService returns a solver service with an empty compile cache.
func NewService(cfg ServiceConfig) *Service {
	return &Service{prof: cfg.Profiler}
}

// Stats is the service's counter snapshot. All counters are cumulative;
// subtract two snapshots (Delta) for a window.
type Stats struct {
	Calls int64 // solve requests through the service

	// SATHits and UnsatHits are always 0: the service keeps no result
	// cache. They remain for readers written against the earlier caches.
	SATHits   int64
	UnsatHits int64

	Misses   int64 // live solves: every call
	LiveTime time.Duration
}

// Delta returns the counters accumulated since the earlier snapshot.
func (s Stats) Delta(since Stats) Stats {
	return Stats{
		Calls:     s.Calls - since.Calls,
		SATHits:   s.SATHits - since.SATHits,
		UnsatHits: s.UnsatHits - since.UnsatHits,
		Misses:    s.Misses - since.Misses,
		LiveTime:  s.LiveTime - since.LiveTime,
	}
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
	return fmt.Sprintf("solver service: %d calls, %d live solves (avg %s)",
		s.Calls, s.Misses, avg.Round(time.Microsecond))
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// SolveIncremental returns exactly what the package-level SolveIncremental
// returns for the same inputs.
func (s *Service) SolveIncremental(preds []expr.Pred, prev map[expr.Var]int64, opt Options) (Result, bool) {
	opt = opt.normalized()
	if len(preds) == 0 {
		return carryStale(map[expr.Var]int64{}, prev), true
	}
	sub := incrementalSubset(preds)

	start := time.Now()
	p := newProblem(sub, s.forms.lookup(sub), prev, opt)
	vals, ok, proven := p.solve()
	elapsed := time.Since(start)
	s.prof.Observe("solver.live", elapsed)

	s.mu.Lock()
	s.stats.Calls++
	s.stats.Misses++
	s.stats.LiveTime += elapsed
	s.mu.Unlock()
	if !ok {
		return Result{Proven: proven}, false
	}
	return carryStale(vals, prev), true
}

// maxForms bounds a Service's compile cache. A full cache is dropped whole
// rather than evicted entry by entry: a campaign's working set is rebuilt in
// a few proposals.
const maxForms = 1 << 14

// formCache maps each predicate tree to its compiled form. Trees are
// immutable and a form depends only on its tree, so a cached form is exactly
// what a fresh compile builds. Forms are shared between calls and must
// never be written.
type formCache struct {
	mu sync.Mutex
	m  map[*expr.Expr]*form
}

// lookup returns the form of every predicate's tree, compiling outside the
// lock the trees the cache lacks.
func (c *formCache) lookup(preds []expr.Pred) []*form {
	forms := make([]*form, len(preds))
	missing := false
	c.mu.Lock()
	for i, p := range preds {
		forms[i] = c.m[p.E]
		missing = missing || forms[i] == nil
	}
	c.mu.Unlock()
	if !missing {
		return forms
	}
	for i, p := range preds {
		if forms[i] == nil {
			forms[i] = compile(p.E)
		}
	}
	c.mu.Lock()
	if c.m == nil || len(c.m)+len(preds) > maxForms {
		c.m = make(map[*expr.Expr]*form, len(preds))
	}
	for i, p := range preds {
		c.m[p.E] = forms[i]
	}
	c.mu.Unlock()
	return forms
}
