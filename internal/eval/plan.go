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
// the classic sparse matrix-chain heuristic. Estimates come from the
// exact per-index column/row occupancy of the operands, so the first
// product's estimate is exact and later ones remain good in practice.

// occupancy returns the per-index column and row occupancy of m in one
// pass: col[k] = nnz of column k, row[k] = nnz of row k.
func occupancy(m *sparse.Matrix) (col, row []int64) {
	n := m.Dim()
	col = make([]int64, n)
	row = make([]int64, n)
	m.Each(func(r, c int, _ int64) {
		col[c]++
		row[r]++
	})
	return col, row
}

// occDot is the estimated FLOPs of a product whose left operand has
// column occupancy colA and right operand has row occupancy rowB:
// Σ_k col_a(k)·row_b(k), exactly the scalar multiplications Gustavson's
// SpGEMM performs.
func occDot(colA, rowB []int64) int64 {
	var cost int64
	for k, c := range colA {
		cost += c * rowB[k]
	}
	return cost
}

// mulChain multiplies the factor list with greedy cost-based pairing.
// Each product goes through Evaluator.mul, which applies the parallel
// kernel gate and checks cancellation between products. Occupancy
// vectors are computed once per factor up front and once per merged
// product, so a chain step costs one O(k·n) scan over the vectors
// instead of k full passes over the operands' nonzeros.
func (e *Evaluator) mulChain(factors []*sparse.Matrix) *sparse.Matrix {
	switch len(factors) {
	case 0:
		panic("eval: empty multiplication chain")
	case 1:
		return factors[0]
	}
	ms := append([]*sparse.Matrix(nil), factors...)
	cols := make([][]int64, len(ms))
	rows := make([][]int64, len(ms))
	for i, m := range ms {
		cols[i], rows[i] = occupancy(m)
	}
	for len(ms) > 1 {
		best := 0
		bestCost := int64(-1)
		for i := 0; i+1 < len(ms); i++ {
			c := occDot(cols[i], rows[i+1])
			if bestCost < 0 || c < bestCost {
				best, bestCost = i, c
			}
		}
		prod := e.mul(ms[best], ms[best+1])
		ms[best] = prod
		cols[best], rows[best] = occupancy(prod)
		ms = append(ms[:best+1], ms[best+2:]...)
		cols = append(cols[:best+1], cols[best+2:]...)
		rows = append(rows[:best+1], rows[best+2:]...)
	}
	return ms[0]
}
