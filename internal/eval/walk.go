package eval

import (
	"relsim/internal/rre"
	"relsim/internal/sparse"
)

// The matrix recursion of paper §4.3, written once over the semiring:
// Commuting is its IntRing instance, CommutingWitness and CommutingCount
// its annotated ones, and the delta maintainer borrows its closure and
// product. So there is one cache path, one product site, one chain
// planner and one closure, and whatever a product must honor
// (cancellation, the mul hook, the per-request counters) every ring
// honors.

// walker evaluates patterns over one ring for one evaluator, sharing
// its graph, version, cache, cancellation, counters and mul hook. tag is
// the ring's cache-key tag (see Key).
type walker[T any, R sparse.Ring[T]] struct {
	e    *Evaluator
	ring R
	tag  string
}

// walk binds ring to e. The integer ring keys the cache untagged, which
// is what makes its entries eligible for Cache.Maintain; every other
// ring keys under its Name.
func walk[T any, R sparse.Ring[T]](e *Evaluator, ring R) walker[T, R] {
	w := walker[T, R]{e: e, ring: ring, tag: ring.Name()}
	if _, isInt := any(ring).(sparse.IntRing); isInt {
		w.tag = ""
	}
	return w
}

// ints is the evaluator's IntRing walker.
func (e *Evaluator) ints() walker[int64, sparse.IntRing] {
	return walk[int64](e, sparse.IntRing{})
}

// mat and gm convert between the integer matrix and its generic form;
// the two share one layout, so the conversion is free.
func mat(m *sparse.GMatrix[int64]) *sparse.Matrix { return (*sparse.Matrix)(m) }
func gm(m *sparse.Matrix) *sparse.GMatrix[int64]  { return (*sparse.GMatrix[int64])(m) }

// eval returns M_p over the ring, cached per (version, ring, pattern)
// with every sub-pattern's matrix. Under SetCanonicalKeys p must already
// be canonical.
func (w walker[T, R]) eval(p *rre.Pattern) *sparse.GMatrix[T] { return w.get(p, w.compute) }

// get returns the matrix cached under p's key, building it outside any
// lock on a miss. A build that raced a commit inserts under this
// evaluator's version, which readers of later versions never look up.
func (w walker[T, R]) get(p *rre.Pattern, build func(*rre.Pattern) *sparse.GMatrix[T]) *sparse.GMatrix[T] {
	e := w.e
	key := Key{Version: e.version, Ring: w.tag, Pattern: p.String()}
	if m, ok := e.cache.lookup(key).(*sparse.GMatrix[T]); ok {
		e.counters.Hits.Add(1)
		return m
	}
	e.counters.Misses.Add(1)
	m := build(p)
	e.cache.insert(key, m, p.Labels())
	return m
}

func (w walker[T, R]) compute(p *rre.Pattern) *sparse.GMatrix[T] {
	w.e.checkCanceled()
	ring, subs := w.ring, p.Subs()
	switch p.Kind() {
	case rre.KindEps:
		return sparse.GIdentity[T](ring, w.e.g.NumNodes())
	case rre.KindLabel:
		return sparse.GLift[T](ring, w.e.g.Adjacency(p.LabelName()))
	case rre.KindRev:
		return w.eval(subs[0]).Transpose()
	case rre.KindConcat:
		factors := make([]*sparse.GMatrix[T], len(subs))
		for i, s := range subs {
			factors[i] = w.eval(s)
		}
		return w.chain(factors)
	case rre.KindAlt:
		m := w.eval(subs[0])
		for _, s := range subs[1:] {
			m = sparse.GAdd(ring, m, w.eval(s))
		}
		return m
	case rre.KindStar:
		return w.star(w.eval(subs[0]))
	case rre.KindSkip:
		return sparse.GBoolean(ring, w.eval(subs[0]))
	case rre.KindNest:
		return sparse.GDiagMulBool(ring, w.eval(subs[0]))
	}
	panic("eval: invalid pattern kind")
}

// star is the Kleene-star closure, its squarings run through mul. It
// converges on support: annotation values keep growing with each
// squaring.
func (w walker[T, R]) star(m *sparse.GMatrix[T]) *sparse.GMatrix[T] {
	return sparse.GBooleanClosure(w.ring, m, w.mul)
}

// mul is the one product site: cancellation check, the mul hook,
// Counters.Products, then the gated kernel. The hook sees the integer
// operands at IntRing and nils for every other ring, so it still fires
// once per product and product counters stay honest.
func (w walker[T, R]) mul(a, b *sparse.GMatrix[T]) *sparse.GMatrix[T] {
	e := w.e
	e.checkCanceled()
	e.mu.Lock()
	hook := e.mulHook
	e.mu.Unlock()
	if hook != nil {
		var x, y *sparse.Matrix
		if w.tag == "" {
			x, y = mat(any(a).(*sparse.GMatrix[int64])), mat(any(b).(*sparse.GMatrix[int64]))
		}
		hook(x, y)
	}
	e.counters.Products.Add(1)
	return sparse.GMulThresh(w.ring, a, b, sparse.DefaultThresholds())
}
