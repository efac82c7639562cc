package eval

import (
	"relsim/internal/sparse"
)

// Concatenation planning. M_{p1·…·pk} is a chain of sparse matrix
// products; since multiplication is associative, the evaluator is free
// to choose the association order, and on skewed patterns (a dense
// author×author hop next to a thin area hop) the order changes the work
// by orders of magnitude. The planner greedily multiplies the adjacent
// pair with the smallest estimated FLOP count until one matrix remains —
// the classic sparse matrix-chain heuristic. The cost of a pair is
// sparse.Matrix.MulFlops, the exact count of scalar multiplications
// Gustavson's SpGEMM performs on it, read off the operands' CSR in
// O(nnz(left)) without allocating: a chain step never pays O(n) for a
// factor with a handful of rows.

// mulChain multiplies the factor list with greedy cost-based pairing.
// Each product goes through Evaluator.mul, which applies the parallel
// kernel gate and checks cancellation between products. costs[i] is the
// cost of ms[i]·ms[i+1]; a merge invalidates only the two costs next to
// the new product, so only those are read again.
func (e *Evaluator) mulChain(factors []*sparse.Matrix) *sparse.Matrix {
	switch len(factors) {
	case 0:
		panic("eval: empty multiplication chain")
	case 1:
		return factors[0]
	}
	ms := append([]*sparse.Matrix(nil), factors...)
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
		prod := e.mul(ms[best], ms[best+1])
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
