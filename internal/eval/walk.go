package eval

import (
	"relsim/internal/rre"
	"relsim/internal/sparse"
)

// The matrix recursion of paper §4.3, written once over the semiring:
// Commuting is its IntRing instance, CommutingWitness its witness one,
// the row push (push.go) takes its composite factors from it, and the
// delta maintainer borrows its closure and product. So there is one
// product site, one chain planner and one closure, and whatever a
// product must honor (cancellation, the mul hook, the per-request
// counters) every ring honors. The ring is part of the matrix type
// (sparse.GMatrix[T, R]), so the walk calls its operators as methods.
// Only the integer walk reads and fills the shared cache; a walk over
// any other ring memoizes its matrices for its one call.

// walker evaluates patterns over the ring R for one evaluator, sharing
// its graph, version, cancellation, counters and mul hook. memo holds
// the matrices of a walk over any ring but IntRing, which the cache
// never sees; it is nil for the integer walk.
type walker[T comparable, R sparse.Ring[T]] struct {
	e    *Evaluator
	memo map[string]*sparse.GMatrix[T, R]
}

// walk binds ring to e: the integer ring to the evaluator's cache,
// every other ring to a memo of its own.
func walk[T comparable, R sparse.Ring[T]](e *Evaluator, ring R) walker[T, R] {
	w := walker[T, R]{e: e}
	if _, isInt := any(ring).(sparse.IntRing); !isInt {
		w.memo = make(map[string]*sparse.GMatrix[T, R])
	}
	return w
}

// ints is the evaluator's IntRing walker.
func (e *Evaluator) ints() walker[int64, sparse.IntRing] {
	return walk[int64](e, sparse.IntRing{})
}

// eval returns M_p over the ring with every sub-pattern's matrix: from
// the cache entry valid at the evaluator's version for the integer
// ring (Evaluator.cached), from the walk's memo for any other. p must
// already be in its key form (canonForm); eval itself never
// canonicalizes.
func (w walker[T, R]) eval(p *rre.Pattern) *sparse.GMatrix[T, R] {
	if w.memo == nil {
		m := w.e.cached(p, func(p *rre.Pattern) *sparse.Matrix { return any(w.compute(p)).(*sparse.Matrix) })
		return any(m).(*sparse.GMatrix[T, R])
	}
	k := p.String()
	m, ok := w.memo[k]
	if !ok {
		m = w.compute(p)
		w.memo[k] = m
	}
	return m
}

// cached returns the integer matrix cached under p's key, building it
// outside any lock on a miss. One build per key is in flight
// (Cache.lookup): another reader of the key waits for it, performs no
// product, and counts a hit; a context-bound reader stops waiting when
// its context ends, panicking with *Canceled like checkCanceled. If the
// build fails (a panic, or its evaluator's cancellation), one of its
// waiters builds.
func (e *Evaluator) cached(p *rre.Pattern, build func(*rre.Pattern) *sparse.Matrix) *sparse.Matrix {
	key := Key{Version: e.version, Pattern: p.String()}
	m, own, err := e.cache.lookup(e.ctx, key)
	if err != nil {
		panic(&Canceled{Err: err})
	}
	if !own {
		e.counters.Hits.Add(1)
		return m
	}
	e.counters.Misses.Add(1)
	var built *sparse.Matrix
	defer func() { e.cache.land(key, built, p) }()
	built = build(p)
	return built
}

func (w walker[T, R]) compute(p *rre.Pattern) *sparse.GMatrix[T, R] {
	w.e.checkCanceled()
	subs := p.Subs()
	switch p.Kind() {
	case rre.KindEps:
		return sparse.GIdentity[T, R](w.e.g.NumNodes())
	case rre.KindLabel:
		if p.LabelName() == onesLabel {
			return sparse.Lift[T, R](sparse.OnesColumn(w.e.g.NumNodes()))
		}
		return sparse.Lift[T, R](w.e.g.Adjacency(p.LabelName()))
	case rre.KindRev:
		return w.eval(subs[0]).Transpose()
	case rre.KindConcat:
		factors := make([]*sparse.GMatrix[T, R], len(subs))
		for i, s := range subs {
			factors[i] = w.eval(s)
		}
		return w.chain(factors)
	case rre.KindAlt:
		m := w.eval(subs[0])
		for _, s := range subs[1:] {
			m = m.Add(w.eval(s))
		}
		return m
	case rre.KindStar:
		return w.star(w.eval(subs[0]))
	case rre.KindSkip:
		return w.eval(subs[0]).Boolean()
	case rre.KindNest:
		if w.memo == nil && subs[0].Kind() == rre.KindConcat {
			return w.eval(rowSums(subs[0])).DiagMulBool()
		}
		return w.eval(subs[0]).DiagMulBool()
	}
	panic("eval: invalid pattern kind")
}

// onesLabel is the reserved label whose matrix is J (sparse.OnesColumn).
// The lexer rejects '#', so no parsed pattern names it or collides with
// it.
const onesLabel = "#"

// ones is the pattern of J.
var ones = rre.Label(onesLabel)

// rowSums returns p·#, whose one column holds the row sums of M_p. The
// integer walk and the maintainer read a nested concatenation [p] as
// DiagMulBool(M_{p·#}), never building M_p: for counts, DiagMulBool sums
// a row's positive entries, which is its row sum. So [p-in.p-in-] is a
// chain the planner orders right to left (p-in-·J, then p-in·that), and
// the cache holds that column, not the paper×paper product. The witness
// walk keeps DiagMulBool(M_p): a product through J would add a via to
// every annotation. On int64 overflow the two differ (DiagMulBool drops
// wrapped-negative entries, the row sum adds them), but both are wrong
// there already.
func rowSums(p *rre.Pattern) *rre.Pattern {
	return rre.Concat(p, ones)
}

// star is the Kleene-star closure, its squarings run through mul. It
// converges on support: annotation values keep growing with each
// squaring.
func (w walker[T, R]) star(m *sparse.GMatrix[T, R]) *sparse.GMatrix[T, R] {
	return m.BooleanClosureBy(w.mul)
}

// mul is the one product site: cancellation check, the mul hook,
// Counters.Products, then the gated kernel. The hook sees the operands
// when they are integer matrices and nils for every other ring, so it
// still fires once per product and product counters stay honest.
func (w walker[T, R]) mul(a, b *sparse.GMatrix[T, R]) *sparse.GMatrix[T, R] {
	e := w.e
	e.checkCanceled()
	e.mu.Lock()
	hook := e.mulHook
	e.mu.Unlock()
	if hook != nil {
		x, _ := any(a).(*sparse.Matrix)
		y, _ := any(b).(*sparse.Matrix)
		hook(x, y)
	}
	e.counters.Products.Add(1)
	return a.Mul(b)
}
