package eval

import (
	"relsim/internal/rre"
	"relsim/internal/sparse"
)

// Cut is a pattern prepared for Equation-1 scoring, which reads row u
// and the diagonal of M_p, never M_p itself. A top-level concatenation
// f1·…·fk is cut once into f1…fc and fc+1…fk and scored from the two
// thin halves A = M_Left and Bᵀ = M_RevRight (§4.3: M_{p1·p2} =
// M_{p1}·M_{p2}, M_{p⁻} = M_pᵀ): row u of M_p is row u of A pushed
// through B = (Bᵀ)ᵀ. The right half is kept reversed so a symmetric
// pattern's halves share one key; its transpose B is kept with the
// cached matrix (Matrix.TransposeCached). diag(M_p), whose entry v is
// ⟨A[v,·], Bᵀ[v,·]⟩, depends only on the version: it is kept beside the
// halves as a sparse vector over the rows both populate, dropped with
// either half and patched by Cache.Commit on the rows a commit
// changes (Scoring), so a warm read looks M_p(v,v) up in O(1). RevRight
// is nil for a pattern that is not a concatenation: Left is the
// pattern, the right half the identity.
type Cut struct {
	Left, RevRight *rre.Pattern
}

// NewCut cuts p into the forms an evaluator keys its cache by (see
// canonForm), so a Cut can be memoized and Halves never canonicalizes.
// The cut is a function of the chain
// alone and costs no product: the factor boundary that best balances
// the label count of the two sides (a nest [q] relates a node to itself
// and weighs nothing). Between equally balanced boundaries it takes the
// one with the lighter right half, since the right half is the one kept
// in both orientations; leftmost breaks any remaining tie (a.[b].c cuts
// after a). Equal chains thus cut equally on every request, version and
// replica. For the Algorithm-1 expansion of a symmetric meta-path it is
// the seam between the rewritten prefix and suffix, so |E_p| roots share
// ≈ √|E_p| halves.
func NewCut(p *rre.Pattern) Cut {
	p = canonForm(p)
	if p.Kind() != rre.KindConcat {
		return Cut{Left: p}
	}
	subs := p.Subs()
	weight := func(f *rre.Pattern) int {
		if f.Kind() == rre.KindNest {
			return 0
		}
		return f.Length()
	}
	total := 0
	for _, f := range subs {
		total += weight(f)
	}
	c, left, best, bestLeft := 1, 0, total+1, 0
	for i, f := range subs[:len(subs)-1] {
		left += weight(f)
		d := 2*left - total
		if d < 0 {
			d = -d
		}
		if d < best || d == best && left > bestLeft {
			c, best, bestLeft = i+1, d, left
		}
	}
	return Cut{
		Left:     rre.Concat(subs[:c]...),
		RevRight: canonForm(rre.Rev(rre.Concat(subs[c:]...))),
	}
}

// Cut cuts p (NewCut).
func (e *Evaluator) Cut(p *rre.Pattern) Cut { return NewCut(p) }

// Halves returns the matrices of a Cut (NewCut), A = M_Left and Bᵀ = M_RevRight (nil when RevRight is), each
// cached like any other pattern; the greedy chain below orders the
// products inside a half.
func (e *Evaluator) Halves(c Cut) (a, bt *sparse.Matrix) {
	w := e.ints()
	a = w.eval(c.Left)
	if c.RevRight != nil {
		bt = w.eval(c.RevRight)
	}
	return a, bt
}

// Scoring calls read, for each Cut in turn, with what Equation-1
// scoring reads of it; the cuts are made by NewCut. Of a cut M_p = A·B
// it reads A = M_Left; B = (Bᵀ)ᵀ, the transpose kept with the right
// half; and diag(M_p) at the evaluator's version
// (sparse.ProductDiagonal). For a cut that is not a concatenation B and
// the diagonal are nil: M_p is A, its diagonal A's own. A warm read
// finds all three in the cut's slot valid at its version (see
// cutTable), which an unbounded cache reads without a lock. A read
// that finds no slot takes the halves from the cache,
// builds the transpose or the diagonal in full if none is kept
// (Counters.Transposes, Counters.Diagonals), and publishes the slot;
// Cache.Commit patches slots across commits. The halves the table
// served count as hits with one add per call, not one per cut, so a
// warm read writes nothing another read reads until it returns.
func (e *Evaluator) Scoring(cuts []Cut, read func(a, b *sparse.Matrix, diag *sparse.Vector)) {
	hits := 0
	for _, c := range cuts {
		a, b, diag, hit := e.scoring(c)
		if hit {
			hits++
		}
		read(a, b, diag)
	}
	if hits > 0 {
		e.counters.Hits.Add(2 * uint64(hits))
		e.cache.cutHits.Add(2 * uint64(hits))
	}
}

// scoring is Scoring's read of one cut, reporting whether the cut
// table served it.
func (e *Evaluator) scoring(c Cut) (a, b *sparse.Matrix, diag *sparse.Vector, hit bool) {
	if c.RevRight == nil {
		a, _ = e.Halves(c)
		return a, nil, nil, false
	}
	k := cutKey{c.Left.String(), c.RevRight.String()}
	s, hit := e.cache.lookupCut(e.version, k)
	if !hit {
		s.a, s.bt = e.Halves(c)
	}
	if s.b == nil {
		if s.b = s.bt.KeptTranspose(); s.b == nil {
			s.b = s.bt.TransposeCached()
			e.counters.Transposes.Add(1)
		}
	}
	if !hit {
		s.diag = sparse.ProductDiagonal(s.a, s.bt)
		e.counters.Diagonals.Add(1)
		e.cache.keepCut(e.version, k, s)
	}
	return s.a, s.b, s.diag, hit
}

// Concatenation planning. M_{p1·…·pk} is a chain of sparse matrix
// products; since multiplication is associative, the evaluator is free
// to choose the association order, and on skewed patterns (a dense
// author×author hop next to a thin area hop) the order changes the work
// by orders of magnitude. The planner greedily multiplies the adjacent
// pair with the smallest estimated FLOP count until one matrix remains —
// the classic sparse matrix-chain heuristic. The cost of a pair is
// sparse.GMatrix.MulFlops, the exact count of scalar multiplications
// Gustavson's SpGEMM performs on it, read off the operands' CSR in
// O(nnz(left)) without allocating: a chain step never pays O(n) for a
// factor with a handful of rows. Every ring is planned alike: witness
// vias, like counts, do not depend on the association, because MulVia
// is associative (sparse.TestWitnessSemiringLaws, FuzzWitnessLaws).

// chain multiplies the factor list with greedy cost-based pairing, each
// product through mul. costs[i] is the cost of ms[i]·ms[i+1]; a merge
// invalidates only the two costs next to the new product, so only those
// are read again.
func (w walker[T, R]) chain(factors []*sparse.GMatrix[T, R]) *sparse.GMatrix[T, R] {
	switch len(factors) {
	case 0:
		panic("eval: empty multiplication chain")
	case 1:
		return factors[0]
	}
	ms := append([]*sparse.GMatrix[T, R](nil), factors...)
	costs := make([]int64, len(ms)-1)
	for i := range costs {
		costs[i] = ms[i].MulFlops(ms[i+1])
	}
	for len(ms) > 1 {
		best := 0
		for i, c := range costs {
			if c < costs[best] {
				best = i
			}
		}
		prod := w.mul(ms[best], ms[best+1])
		ms[best] = prod
		ms = append(ms[:best+1], ms[best+2:]...)
		costs = append(costs[:best], costs[best+1:]...)
		if best > 0 {
			costs[best-1] = ms[best-1].MulFlops(prod)
		}
		if best < len(costs) {
			costs[best] = prod.MulFlops(ms[best+1])
		}
	}
	return ms[0]
}
