package sparse

import "fmt"

// FloatMatrix is an immutable n×n sparse matrix with float64 entries,
// the one matrix type at FloatRing. It backs the random-walk
// algorithms (RWR, SimRank), which need row-normalized transition
// matrices; normalizing divides, which no ring does, and the vector
// products are vector-space operations, so those are functions here.
type FloatMatrix = GMatrix[float64, FloatRing]

// RowNormalize returns the row-stochastic version of f: every nonzero row
// is scaled to sum to 1; zero rows stay zero (dangling nodes).
func RowNormalize(f *FloatMatrix) *FloatMatrix {
	// Same support, so the spans and columns are shared; only the
	// values are new.
	out := &FloatMatrix{n: f.n, nnz: f.nnz, rows: f.rows, colIdx: f.colIdx, val: make([]float64, len(f.val))}
	for _, sp := range f.rows {
		var sum float64
		for _, v := range f.val[sp.lo:sp.hi] {
			sum += v
		}
		if sum == 0 {
			continue
		}
		for i := sp.lo; i < sp.hi; i++ {
			out.val[i] = f.val[i] / sum
		}
	}
	return out
}

// MulVec returns the dense matrix-vector product f·x. It panics if
// len(x) != f.Dim().
func MulVec(f *FloatMatrix, x []float64) []float64 {
	if len(x) != f.n {
		panic(fmt.Sprintf("sparse: MulVec length %d != dim %d", len(x), f.n))
	}
	y := make([]float64, f.n)
	for r, sp := range f.rows {
		var s float64
		for i := sp.lo; i < sp.hi; i++ {
			s += f.val[i] * x[f.colIdx[i]]
		}
		y[r] = s
	}
	return y
}

// VecMul returns the dense vector-matrix product xᵀ·f as a vector. It
// panics if len(x) != f.Dim().
func VecMul(f *FloatMatrix, x []float64) []float64 {
	if len(x) != f.n {
		panic(fmt.Sprintf("sparse: VecMul length %d != dim %d", len(x), f.n))
	}
	y := make([]float64, f.n)
	for r, sp := range f.rows {
		xv := x[r]
		if xv == 0 {
			continue
		}
		for i := sp.lo; i < sp.hi; i++ {
			y[f.colIdx[i]] += f.val[i] * xv
		}
	}
	return y
}
