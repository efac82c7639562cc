// Package eval computes RRE pattern instances over a graph database.
// Every evaluation reads one immutable graph.Snapshot, the evaluator's
// version; New snapshots a mutable graph once for offline callers.
//
// The primary entry point is Evaluator.Commuting, which materializes the
// commuting matrix M_p of a pattern p following the matrix rules of
// paper §4.3:
//
//	M_a        = A_a
//	M_{p⁻}     = M_pᵀ
//	M_{p1·p2}  = M_{p1} M_{p2}
//	M_{p1+p2}  = M_{p1} + M_{p2}     (p1 ≠ p2; Alt dedupes equal branches)
//	M_{⌈⌈p⌋⌋}  = M_p > 0
//	M_{[p]}    = diag{ M_p (M_pᵀ > 0) }
//
// Entry (u, v) of M_p is |I^{u,v}(p)|, the number of instances of p from
// u to v. Kleene star, whose instance set the paper defines as the union
// I(ε) ∪ I(p) ∪ I(p²) ∪ …, is materialized as the boolean
// reflexive-transitive closure of M_p: its instance count is capped at 1
// (existence), since the raw count is unbounded on cyclic data. The
// recursion is written once, generic over the semiring (walk.go):
// CommutingWitness runs the same walk over the witness ring. A reader
// of one row of M_p (Pair, WitnessRow) pushes it through the pattern
// instead (push.go), and never builds M_p.
//
// CountInstances is a direct recursive counter over the graph with the
// same semantics; it exists as an executable specification that the
// matrix algebra is property-tested against.
package eval

import (
	"context"
	"sync"
	"sync/atomic"

	"relsim/internal/graph"
	"relsim/internal/rre"
	"relsim/internal/sparse"
)

// Evaluator evaluates RRE patterns over one graph version, a snapshot,
// caching commuting matrices in a versioned Cache: it reads the entries
// valid at its version and writes entries that begin there (see Key).
// It is safe for concurrent use.
//
// An evaluator is bound to its version for life and never invalidates:
// evaluators over different versions share one cache without aliasing,
// and a write never disturbs the entries a still-pinned version reads.
// An owner whose graph changes moves the cache across the change with
// Cache.Commit before anyone reads the next version, then binds a new
// evaluator there, as the server does on every commit and
// relsim.Engine on every reported change.
type Evaluator struct {
	g       *graph.Snapshot
	version uint64
	cache   *Cache
	ctx     context.Context // nil = never canceled

	// counters tallies this evaluator's own cache traffic and matrix
	// products — per-request observability, as opposed to the shared
	// Cache.Stats totals. WithContext copies share the struct, so a
	// request's whole evaluation (including /batch worker copies) lands
	// in one place.
	counters *Counters

	mu      sync.Mutex
	mulHook func(a, b *sparse.Matrix)
}

// Counters are one evaluator's private tallies: cache hits and misses
// its lookups saw, matrix products it performed, and the transposes and
// Equation-1 diagonals its scoring reads built because none was kept
// (Scoring). Hits include two per cut a scoring read took from a cut
// table, added once per Scoring call rather than once per cut. The
// serving layer reads them per request for the slow-query log and
// Server-Timing phase attribution. Fields are atomics — /batch shares
// one evaluator across its worker pool.
type Counters struct {
	Hits, Misses, Products, Transposes, Diagonals atomic.Uint64
}

// New returns an evaluator over g as it is now, at version 0 with a
// private cache: it evaluates over a snapshot of g taken here, so later
// changes to g are not seen.
func New(g *graph.Graph) *Evaluator { return NewVersioned(g.Snapshot(), 0, NewCache()) }

// NewVersioned returns an evaluator bound to one graph version, the
// snapshot g, writing and reading cache entries keyed by that version.
func NewVersioned(g *graph.Snapshot, version uint64, cache *Cache) *Evaluator {
	if cache == nil {
		cache = NewCache()
	}
	return &Evaluator{g: g, version: version, cache: cache, counters: &Counters{}}
}

// WithContext returns a copy of the evaluator whose evaluations honor
// ctx: cancellation is checked between matrix products, and a canceled
// evaluation aborts with a *Canceled panic that Guard converts to an
// error. The copy shares the cache and graph with the original.
func (e *Evaluator) WithContext(ctx context.Context) *Evaluator {
	e.mu.Lock()
	defer e.mu.Unlock()
	return &Evaluator{
		g:        e.g,
		version:  e.version,
		cache:    e.cache,
		ctx:      ctx,
		counters: e.counters,
		mulHook:  e.mulHook,
	}
}

// Counters returns the evaluator's private tally of cache hits/misses
// and matrix products. The struct is shared with WithContext copies and
// lives for the evaluator's lifetime.
func (e *Evaluator) Counters() *Counters { return e.counters }

// Graph returns the snapshot the evaluator reads.
func (e *Evaluator) Graph() *graph.Snapshot { return e.g }

// Version returns the graph version the evaluator is bound to.
func (e *Evaluator) Version() uint64 { return e.version }

// Cache returns the evaluator's (possibly shared) commuting-matrix
// cache.
func (e *Evaluator) Cache() *Cache { return e.cache }

// CacheSize returns the number of materialized commuting matrices.
func (e *Evaluator) CacheSize() int { return e.cache.Size() }

// Stats returns the cache counters.
func (e *Evaluator) Stats() CacheStats { return e.cache.Stats() }

// checkCanceled panics with *Canceled when the evaluator's context is
// done. It is called between matrix products so a timed-out query stops
// burning CPU mid-evaluation; Guard at the API boundary converts the
// panic into an error.
func (e *Evaluator) checkCanceled() {
	if e.ctx == nil {
		return
	}
	if err := e.ctx.Err(); err != nil {
		panic(&Canceled{Err: err})
	}
}

// SetCanonicalKeys does nothing: every evaluator keys its cache
// canonically (see canonForm).
//
// Deprecated: kept only so bench/layers.go, which calls it, compiles.
func (e *Evaluator) SetCanonicalKeys(bool) {}

// SetMulHook installs fn to observe every matrix product the evaluator
// performs (concatenation chains and Kleene-star closure squarings).
// Used by the serving layer to count materialized products and by tests
// to assert the single-materialization guarantee. fn must be safe for
// concurrent use; nil removes the hook.
func (e *Evaluator) SetMulHook(fn func(a, b *sparse.Matrix)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.mulHook = fn
}

// Materialize precomputes and caches the commuting matrices of the given
// patterns. Table 4 of the paper assumes all meta-paths up to length 3
// are materialized; the experiment harness calls this with that set.
func (e *Evaluator) Materialize(ps ...*rre.Pattern) {
	for _, p := range ps {
		e.Commuting(p)
	}
}

// Commuting returns the commuting matrix M_p, the IntRing instance of
// the walk. The pattern is canonicalized first (canonForm), so the
// result is cached under the canonical rendering, with every
// subexpression under its own canonical key, in an entry valid over
// the interval of versions its labels stay untouched (see Key).
// Semantically interchangeable patterns (alt permutations, redundant
// grouping) thus share one materialization. A top-level concatenation
// is the product of the two halves Equation-1 scoring reads (see Cut),
// so materializing a root leaves them cached.
func (e *Evaluator) Commuting(p *rre.Pattern) *sparse.Matrix {
	w := e.ints()
	p = canonForm(p)
	if p.Kind() != rre.KindConcat {
		return w.eval(p)
	}
	return e.cached(p, func(p *rre.Pattern) *sparse.Matrix {
		a, bt := e.Halves(e.Cut(p))
		return w.mul(a, bt.TransposeCached())
	})
}

// canonForm returns the form the cache keys p by: its canonical form,
// unless canonicalization is inexact (disjunction branches collapsing,
// which would change counts under bag semantics) — such a pattern keeps
// its raw form and raw key. Exact rewrites leave M_p unchanged, which
// is all Equation 1 reads. Canonical forms are closed under Subs(), so
// the walk canonicalizes once, at the entry point.
func canonForm(p *rre.Pattern) *rre.Pattern {
	if c, exact := rre.CanonicalExact(p); exact {
		return c
	}
	return p
}

// CountInstances returns |I^{u,v}(p)| by direct recursion over the graph,
// without materializing matrices. This is the reference implementation of
// the paper's instance semantics (§4.2) used to validate Commuting.
func (e *Evaluator) CountInstances(p *rre.Pattern, u, v graph.NodeID) int64 {
	return e.count(p, u, v)
}

func (e *Evaluator) count(p *rre.Pattern, u, v graph.NodeID) int64 {
	g := e.g
	switch p.Kind() {
	case rre.KindEps:
		if u == v {
			return 1
		}
		return 0
	case rre.KindLabel:
		return int64(g.EdgeCount(u, p.LabelName(), v))
	case rre.KindRev:
		return e.count(p.Subs()[0], v, u)
	case rre.KindConcat:
		subs := p.Subs()
		head, tail := subs[0], rre.Concat(subs[1:]...)
		var total int64
		for w := graph.NodeID(0); int(w) < g.NumNodes(); w++ {
			c1 := e.count(head, u, w)
			if c1 == 0 {
				continue
			}
			total += c1 * e.count(tail, w, v)
		}
		return total
	case rre.KindAlt:
		var total int64
		for _, s := range p.Subs() {
			total += e.count(s, u, v)
		}
		return total
	case rre.KindStar:
		if e.reachable(p.Subs()[0], u, v) {
			return 1
		}
		return 0
	case rre.KindSkip:
		if e.exists(p.Subs()[0], u, v) {
			return 1
		}
		return 0
	case rre.KindNest:
		if u != v {
			return 0
		}
		var total int64
		for w := graph.NodeID(0); int(w) < g.NumNodes(); w++ {
			total += e.count(p.Subs()[0], u, w)
		}
		return total
	}
	panic("eval: invalid pattern kind")
}

// exists reports whether any instance of p goes from u to v.
func (e *Evaluator) exists(p *rre.Pattern, u, v graph.NodeID) bool {
	return e.count(p, u, v) > 0
}

// reachable reports whether v is reachable from u by zero or more p-steps.
func (e *Evaluator) reachable(p *rre.Pattern, u, v graph.NodeID) bool {
	if u == v {
		return true
	}
	n := e.g.NumNodes()
	seen := make([]bool, n)
	seen[u] = true
	frontier := []graph.NodeID{u}
	for len(frontier) > 0 {
		var next []graph.NodeID
		for _, x := range frontier {
			for y := graph.NodeID(0); int(y) < n; y++ {
				if seen[y] {
					continue
				}
				if e.exists(p, x, y) {
					if y == v {
						return true
					}
					seen[y] = true
					next = append(next, y)
				}
			}
		}
		frontier = next
	}
	return false
}

// Eq1 is Equation 1 of the paper,
//
//	sim_p(u, v) = 2·M_p(u,v) / (M_p(u,u) + M_p(v,v)),
//
// given the numerator's count muv and the denominator's den. It returns
// 0 when the denominator is zero.
func Eq1(muv, den int64) float64 {
	if den == 0 {
		return 0
	}
	return 2 * float64(muv) / float64(den)
}

// PathSimScore computes Equation 1 of the paper from a commuting matrix.
func PathSimScore(m *sparse.Matrix, u, v graph.NodeID) float64 {
	return Eq1(m.At(int(u), int(v)), m.At(int(u), int(u))+m.At(int(v), int(v)))
}

// MetaPathsUpTo enumerates all simple patterns (meta-paths) over the
// given label set with length in [1, maxLen], each step either forward
// or reverse. This is the materialization set used by Table 4 ("all
// meta-paths up to size 3"). The count is (2·|labels|)^len per length,
// so callers should keep maxLen and the label set small.
func MetaPathsUpTo(labels []string, maxLen int) []*rre.Pattern {
	var out []*rre.Pattern
	steps := make([]rre.Step, 0, maxLen)
	var extend func(remaining int)
	extend = func(remaining int) {
		if len(steps) > 0 {
			out = append(out, rre.FromSteps(steps))
		}
		if remaining == 0 {
			return
		}
		for _, l := range labels {
			for _, reverse := range []bool{false, true} {
				steps = append(steps, rre.Step{Label: l, Reverse: reverse})
				extend(remaining - 1)
				steps = steps[:len(steps)-1]
			}
		}
	}
	extend(maxLen)
	return out
}
