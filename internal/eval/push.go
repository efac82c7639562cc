package eval

import (
	"relsim/internal/graph"
	"relsim/internal/rre"
	"relsim/internal/sparse"
)

// Row pushes. Equation 1 and a witness answer each read one row of M_p,
// and row u of M_p is e_u pushed through the pattern one factor at a
// time, without building M_p:
//   - a label or a reversed label reads the graph's own row (Out or
//     In), each edge adding Lift(1), so parallel edges sum as Adjacency
//     and Lift do;
//   - a concatenation folds left to right, x_k meeting row k of the
//     next factor by MulVia(x_k, k, ·);
//   - an alternation sums its branches, and ε is the identity;
//   - a star, nest, skip or reversed composite multiplies by that
//     factor's matrix from the walk (PushReads). Nothing else takes a
//     matrix.
//
// The push is exact over any ring by associativity and distributivity
// (sparse.FuzzWitnessLaws), so its int64 sums are the ones the halves
// give. One step over a label touches at most that label's edges: a
// k-label chain costs at most k·|E| multiply-adds and no product. The
// accumulator holds the columns a step reaches, never O(n), and the
// evaluator's context is checked between factors.

// Row is row u of a matrix over some ring, by column, in no order: the
// rings pushed, IntRing (mod 2⁶⁴) and WitnessRing, add associatively
// and commutatively, so the order a step reaches its columns in changes
// no sum. It may hold ring zeros, which At skips.
type Row[T comparable, R sparse.Ring[T]] map[int32]T

// At returns the entry at column v and whether a non-zero one is
// stored.
func (r Row[T, R]) At(v graph.NodeID) (T, bool) {
	var ring R
	x, ok := r[int32(v)]
	return x, ok && !ring.IsZero(x)
}

func (r Row[T, R]) add(c int32, v T) {
	if old, ok := r[c]; ok {
		var ring R
		v = ring.Add(old, v)
	}
	r[c] = v
}

// push returns row u of M_p, p in its key form (canonForm): e_u pushed
// through p, whose first factor gives its row u as it is.
func (w walker[T, R]) push(p *rre.Pattern, u int32) Row[T, R] {
	var ring R
	return w.times(Row[T, R]{u: ring.One()}, p, func(_ T, _ int32, v T) T { return v })
}

// times returns x·M_f, f in its key form, x_k meeting row k of f's
// first factor by mul: the ring's MulVia, or a push's first step.
func (w walker[T, R]) times(x Row[T, R], f *rre.Pattern, mul func(T, int32, T) T) Row[T, R] {
	var ring R
	switch f.Kind() {
	case rre.KindConcat:
		for _, g := range f.Subs() {
			w.e.checkCanceled()
			x, mul = w.times(x, g, mul), ring.MulVia
		}
		return x
	case rre.KindAlt:
		s := Row[T, R]{}
		for _, b := range f.Subs() {
			for c, v := range w.times(x, b, mul) {
				s.add(c, v)
			}
		}
		return s
	}
	// A first pass counts the entries the step reaches, so the row is
	// sized once and never rehashes.
	row, n := w.rows(f), 0
	count := func(int32, T) { n++ }
	for k, xk := range x {
		if !ring.IsZero(xk) {
			row(k, count)
		}
	}
	s := make(Row[T, R], n)
	var k int32
	var xk T
	add := func(c int32, v T) { s.add(c, mul(xk, k, v)) }
	for k, xk = range x {
		if !ring.IsZero(xk) {
			row(k, add)
		}
	}
	return s
}

// rows returns the function that calls add on every entry of row k of
// a factor with no fold of its own: the walk's matrix row for a
// composite, the identity's one for ε, the graph's edges for a label or
// a reversed label.
func (w walker[T, R]) rows(f *rre.Pattern) func(k int32, add func(c int32, v T)) {
	var ring R
	switch {
	case composite(f):
		m := w.eval(f)
		return func(k int32, add func(int32, T)) {
			cols, vals := m.RowView(int(k))
			for i, c := range cols {
				add(c, vals[i])
			}
		}
	case f.Kind() == rre.KindEps:
		return func(k int32, add func(int32, T)) { add(k, ring.One()) }
	}
	edges := w.e.g.Out
	if f.Kind() == rre.KindRev {
		f, edges = f.Subs()[0], w.e.g.In
	}
	label, one := f.LabelName(), ring.Lift(1)
	return func(k int32, add func(int32, T)) {
		for _, c := range edges(graph.NodeID(k), label) {
			add(int32(c), one)
		}
	}
}

// composite reports whether a push takes f's matrix from the walk: f
// is not ε, a label or a reversed label, and has no fold of its own.
func composite(f *rre.Pattern) bool {
	switch f.Kind() {
	case rre.KindEps, rre.KindLabel, rre.KindConcat, rre.KindAlt:
		return false
	case rre.KindRev:
		return f.Subs()[0].Kind() != rre.KindLabel
	}
	return true
}

// PushReads returns the factors whose matrices a push of p takes from
// the walk: its stars, nests, skips and reversed composites, reached
// through concatenation and alternation. A label chain reads none.
// Admission prices a push by them (EstimateProducts).
func PushReads(p *rre.Pattern) []*rre.Pattern {
	if p = canonForm(p); composite(p) {
		return []*rre.Pattern{p}
	}
	var out []*rre.Pattern
	for _, s := range p.Subs() {
		out = append(out, PushReads(s)...)
	}
	return out
}

// Pair returns M_p(u,v) and its Equation-1 score, summed over the
// terms scoring reads (NewCut). The halves of a term meet in the
// middle: M(x,y) = ⟨row x of M_Left, row y of M_RevRight⟩, each row an
// integer push of one half, so no row of M_p is pushed whole. A term
// that is not a concatenation is pushed from u and from v. Pair reads
// no cut table and builds no root.
func (e *Evaluator) Pair(p *rre.Pattern, u, v graph.NodeID) (count int64, score float64) {
	w := e.ints()
	x, y := int32(u), int32(v)
	var muu, mvv int64
	for _, t := range NewCut(p) {
		lu, lv := w.push(t.Left, x), w.push(t.Left, y)
		if t.RevRight == nil {
			count, muu, mvv = count+lu[y], muu+lu[x], mvv+lv[y]
			continue
		}
		ru, rv := lu, lv
		if !t.RevRight.Equal(t.Left) {
			ru, rv = w.push(t.RevRight, x), w.push(t.RevRight, y)
		}
		count, muu, mvv = count+dot(lu, rv), muu+dot(lu, ru), mvv+dot(lv, rv)
	}
	return count, Eq1(count, muu+mvv)
}

// dot returns ⟨x, y⟩ over the integers, wrapping mod 2⁶⁴ like the
// kernel.
func dot(x, y Row[int64, sparse.IntRing]) int64 {
	if len(y) < len(x) {
		x, y = y, x
	}
	var s int64
	for k, xk := range x {
		s += xk * y[k]
	}
	return s
}
