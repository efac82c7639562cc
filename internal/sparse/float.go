package sparse

import "fmt"

// FloatMatrix is an immutable n×n sparse matrix with float64 entries —
// a defined type over the generic sparse-row representation. It
// backs the random-walk algorithms (RWR, SimRank) which need
// row-normalized transition matrices; those are vector-space
// operations, not semiring ones, so they are implemented directly.
type FloatMatrix GMatrix[float64]

func (f *FloatMatrix) gm() *GMatrix[float64] { return (*GMatrix[float64])(f) }

// FromInt converts an integer matrix to a float matrix.
func FromInt(m *Matrix) *FloatMatrix {
	return (*FloatMatrix)(gMapEntries(m.gm(), func(v int64) (float64, bool) { return float64(v), true }))
}

// Dim returns the dimension n of the n×n matrix.
func (f *FloatMatrix) Dim() int { return f.n }

// NNZ returns the number of stored entries.
func (f *FloatMatrix) NNZ() int { return f.nnz }

// At returns the entry at (row, col) with a linear scan of the row.
func (f *FloatMatrix) At(row, col int) float64 {
	sp := f.gm().row(row)
	for i := sp.lo; i < sp.hi; i++ {
		if f.colIdx[i] == int32(col) {
			return f.val[i]
		}
	}
	return 0
}

// Row calls fn(col, val) for each stored entry of the row.
func (f *FloatMatrix) Row(row int, fn func(col int, val float64)) {
	f.gm().Row(row, fn)
}

// RowNormalize returns the row-stochastic version of f: every nonzero row
// is scaled to sum to 1; zero rows stay zero (dangling nodes).
func (f *FloatMatrix) RowNormalize() *FloatMatrix {
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

// Transpose returns fᵀ.
func (f *FloatMatrix) Transpose() *FloatMatrix {
	return (*FloatMatrix)(f.gm().Transpose())
}

// MulVec returns the dense matrix-vector product f·x. It panics if
// len(x) != Dim().
func (f *FloatMatrix) MulVec(x []float64) []float64 {
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

// VecMul returns the dense vector-matrix product xᵀ·f as a vector.
func (f *FloatMatrix) VecMul(x []float64) []float64 {
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
