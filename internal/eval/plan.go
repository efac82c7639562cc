package eval

import (
	"relsim/internal/rre"
	"relsim/internal/sparse"
)

// Cut is a pattern prepared for Equation-1 scoring, which reads row u
// and the diagonal of M_p, never M_p itself: a list of product terms
// whose matrices sum to M_p (§4.3: M_{a·(b+c)·d} = M_{a·b·d} +
// M_{a·c·d}). Terms are a list, never a set: two equal terms count
// twice, as their instances do, so every count is the pattern's bag
// count (NewCut).
type Cut []Term

// Term is one product term of a Cut. A term that is a concatenation
// f1·…·fk is cut once into f1…fc and fc+1…fk and scored from the two
// thin halves A = M_Left and Bᵀ = M_RevRight (§4.3: M_{p1·p2} =
// M_{p1}·M_{p2}, M_{p⁻} = M_pᵀ): row u of M_term is row u of A pushed
// through B = (Bᵀ)ᵀ. The right half is kept reversed so a symmetric
// term's halves share one key; its transpose B is kept with the cached
// matrix (Matrix.TransposeCached). diag(M_term), whose entry v is
// ⟨A[v,·], Bᵀ[v,·]⟩, depends only on the version: it is kept beside the
// halves as a sparse vector over the rows both populate, dropped with
// either half and patched by Cache.Commit on the rows a commit
// changes (Scoring), so a warm read looks M_term(v,v) up in O(1).
// RevRight is nil for a term that is not a concatenation: Left is the
// term, the right half the identity.
type Term struct {
	Left, RevRight *rre.Pattern
}

// maxTerms bounds the terms NewCut distributes a pattern into. The
// benchmark pool's alternations distribute into two terms each.
const maxTerms = 8

// NewCut cuts p into terms in the forms an evaluator keys its cache by
// (see canonForm), so a Cut can be memoized and Halves never
// canonicalizes. An alternation that is p itself or a factor of p's
// top-level concatenation is distributed over the other factors,
// M_{a·(b+c)·d} = M_{a·b·d} + M_{a·c·d}, so no half is wider than its
// terms' and each term shares its keys with the chains it spells
// (w.(p-in.p-in- + w-.w).w- is w.p-in.p-in-.w- + w.w-.w.w-). Nothing
// under a star, nest or skip is distributed: M_{[b+c]} is not M_{[b]} +
// M_{[c]}. Past maxTerms terms p is cut whole, as one term. Each term
// is canonicalized and cut once, a function of its chain alone at no
// product: at the factor boundary that best balances the label count of
// the two sides (a nest [q] relates a node to itself and weighs
// nothing). Between equally balanced boundaries it takes the one with
// the lighter right half, since the right half is the one kept in both
// orientations; leftmost breaks any remaining tie (a.[b].c cuts after
// a). Equal chains thus cut equally on every request, version and
// replica. For the Algorithm-1 expansion of a symmetric meta-path it is
// the seam between the rewritten prefix and suffix, so |E_p| roots share
// ≈ √|E_p| halves.
func NewCut(p *rre.Pattern) Cut {
	p = canonForm(p)
	terms := distribute(p)
	if len(terms) < 2 {
		return Cut{cutTerm(p)}
	}
	c := make(Cut, len(terms))
	for i, t := range terms {
		c[i] = cutTerm(canonForm(t))
	}
	return c
}

// distribute returns p as a list of product terms: the branches of an
// alternation p, or, for a concatenation, one term per choice of a
// branch of each alternation factor, in order (the first factor's
// branch varies slowest). It returns nil, and NewCut cuts p whole,
// when p has no alternation to distribute or past maxTerms terms.
func distribute(p *rre.Pattern) []*rre.Pattern {
	subs := p.Subs()
	switch p.Kind() {
	case rre.KindAlt:
		if len(subs) > maxTerms {
			return nil
		}
		return subs
	case rre.KindConcat:
		n := 1
		for _, f := range subs {
			if f.Kind() == rre.KindAlt {
				if n *= len(f.Subs()); n > maxTerms {
					return nil
				}
			}
		}
		if n == 1 {
			return nil
		}
		terms, factors := make([]*rre.Pattern, n), make([]*rre.Pattern, len(subs))
		for i := range terms {
			r := i
			for j := len(subs) - 1; j >= 0; j-- {
				factors[j] = subs[j]
				if bs := subs[j].Subs(); subs[j].Kind() == rre.KindAlt {
					factors[j], r = bs[r%len(bs)], r/len(bs)
				}
			}
			terms[i] = rre.Concat(factors...)
		}
		return terms
	}
	return nil
}

// cutTerm cuts one term, p in its key form, at NewCut's balance rule.
func cutTerm(p *rre.Pattern) Term {
	if p.Kind() != rre.KindConcat {
		return Term{Left: p}
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
	return Term{
		Left:     rre.Concat(subs[:c]...),
		RevRight: canonForm(rre.Rev(rre.Concat(subs[c:]...))),
	}
}

// Halves returns the matrices of a Term, A = M_Left and Bᵀ =
// M_RevRight (nil when RevRight is), each cached like any other
// pattern; the greedy chain below orders the products inside a half.
func (e *Evaluator) Halves(t Term) (a, bt *sparse.Matrix) {
	w := e.ints()
	a = w.eval(t.Left)
	if t.RevRight != nil {
		bt = w.eval(t.RevRight)
	}
	return a, bt
}

// Scoring calls read, for each term of each Cut in turn, with what
// Equation-1 scoring reads of it; last marks a cut's last term, after
// which the reader has all of M_p's row and diagonal: the sums of its
// terms'. The cuts are made by NewCut. Of a term M = A·B it reads A =
// M_Left; B = (Bᵀ)ᵀ, the transpose kept with the right half; and
// diag(M) at the evaluator's version (sparse.ProductDiagonal). For a
// term that is not a concatenation B and the diagonal are nil: M is A,
// its diagonal A's own. A warm read finds all three in the term's slot
// valid at its version (see cutTable), which an unbounded cache reads
// without a lock. A read that finds no slot takes the halves from the
// cache, builds the transpose or the diagonal in full if none is kept
// (Counters.Transposes, Counters.Diagonals), and publishes the slot;
// Cache.Commit patches slots across commits. The halves the table
// served count as hits with one add per call, not one per term, so a
// warm read writes nothing another read reads until it returns.
func (e *Evaluator) Scoring(cuts []Cut, read func(a, b *sparse.Matrix, diag *sparse.Vector, last bool)) {
	hits := 0
	for _, c := range cuts {
		for i, t := range c {
			a, b, diag, hit := e.scoring(t)
			if hit {
				hits++
			}
			read(a, b, diag, i == len(c)-1)
		}
	}
	if hits > 0 {
		e.counters.Hits.Add(2 * uint64(hits))
		e.cache.cutHits.Add(2 * uint64(hits))
	}
}

// scoring is Scoring's read of one term, reporting whether the cut
// table served it.
func (e *Evaluator) scoring(t Term) (a, b *sparse.Matrix, diag *sparse.Vector, hit bool) {
	if t.RevRight == nil {
		a, _ = e.Halves(t)
		return a, nil, nil, false
	}
	k := cutKey{t.Left.String(), t.RevRight.String()}
	s, hit := e.cache.lookupCut(e.version, k)
	if !hit {
		s.a, s.bt = e.Halves(t)
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
