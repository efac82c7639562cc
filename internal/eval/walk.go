package eval

import (
	"relsim/internal/rre"
	"relsim/internal/sparse"
)

// The matrix recursion of paper §4.3, written once over the semiring:
// Commuting is its IntRing instance, CommutingWitness its witness one,
// and the delta maintainer borrows its closure and product. So there is
// one cache path, one product site, one chain planner and one closure,
// and whatever a product must honor (cancellation, the mul hook, the
// per-request counters) every ring honors. The ring is part of the
// matrix type (sparse.GMatrix[T, R]), so the walk calls its operators
// as methods and a cached matrix's type says which ring it is over.

// walker evaluates patterns over the ring R for one evaluator, sharing
// its graph, version, cache, cancellation, counters and mul hook. tag is
// the ring's cache-key tag (see Key).
type walker[T comparable, R sparse.Ring[T]] struct {
	e   *Evaluator
	tag string
}

// walk binds ring to e. The integer ring keys the cache untagged, which
// is what makes its entries eligible for patching (Cache.Commit); every
// other ring keys under its Name.
func walk[T comparable, R sparse.Ring[T]](e *Evaluator, ring R) walker[T, R] {
	w := walker[T, R]{e: e, tag: ring.Name()}
	if _, isInt := any(ring).(sparse.IntRing); isInt {
		w.tag = ""
	}
	return w
}

// ints is the evaluator's IntRing walker.
func (e *Evaluator) ints() walker[int64, sparse.IntRing] {
	return walk[int64](e, sparse.IntRing{})
}

// eval returns M_p over the ring, cached per (version, ring, pattern)
// with every sub-pattern's matrix. Under SetCanonicalKeys p must already
// be canonical.
func (w walker[T, R]) eval(p *rre.Pattern) *sparse.GMatrix[T, R] { return w.get(p, w.compute) }

// get returns the matrix cached under p's key, building it outside any
// lock on a miss. One build per key is in flight (Cache.lookup): another
// reader of the key waits for it, performs no product, and counts a
// hit; a context-bound reader stops waiting when its context ends,
// panicking with *Canceled like checkCanceled. If the build fails (a
// panic, or its evaluator's cancellation), one of its waiters builds.
func (w walker[T, R]) get(p *rre.Pattern, build func(*rre.Pattern) *sparse.GMatrix[T, R]) *sparse.GMatrix[T, R] {
	e := w.e
	key := Key{Version: e.version, Ring: w.tag, Pattern: p.String()}
	m, own, err := e.cache.lookup(e.ctx, key)
	if err != nil {
		panic(&Canceled{Err: err})
	}
	if !own {
		e.counters.Hits.Add(1)
		return m.(*sparse.GMatrix[T, R])
	}
	e.counters.Misses.Add(1)
	var built CachedMatrix
	defer func() { e.cache.land(key, built, p.Labels()) }()
	out := build(p)
	built = out
	return out
}

func (w walker[T, R]) compute(p *rre.Pattern) *sparse.GMatrix[T, R] {
	w.e.checkCanceled()
	subs := p.Subs()
	switch p.Kind() {
	case rre.KindEps:
		return sparse.GIdentity[T, R](w.e.g.NumNodes())
	case rre.KindLabel:
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
		return w.eval(subs[0]).DiagMulBool()
	}
	panic("eval: invalid pattern kind")
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
