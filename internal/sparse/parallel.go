package sparse

// Parallel SpGEMM gating. Row-wise Gustavson multiplication is
// embarrassingly parallel across output rows; for the large
// commuting-matrix products on experiment-scale graphs this is the
// dominant cost, so above a size threshold Mul hands contiguous row
// ranges of the product to GOMAXPROCS goroutines. Serial and parallel
// are the same row kernel (gMulRows in kernel.go, generic over the
// semiring) writing disjoint ranges of one exactly-sized output, so the
// results are bit-identical.

const (
	// parallelMinDim and parallelMinNNZ gate the parallel kernel; small
	// products are faster serially.
	parallelMinDim = 512
	parallelMinNNZ = 20000
)

// Thresholds gates the parallel SpGEMM kernel: a product runs on the
// row-partitioned parallel kernel when the dimension is at least MinDim
// AND the combined operand nnz is at least MinNNZ. Lower values favor
// parallelism on smaller inputs; zero values force the parallel kernel
// for every nonempty product.
type Thresholds struct {
	MinDim int `json:"min_dim"`
	MinNNZ int `json:"min_nnz"`
}

// DefaultThresholds returns the built-in gate used by Mul.
func DefaultThresholds() Thresholds {
	return Thresholds{MinDim: parallelMinDim, MinNNZ: parallelMinNNZ}
}

// MulThresh is Mul with an explicit parallel gate. The result is
// bit-identical on either side of it. It panics if dimensions differ.
func (m *Matrix) MulThresh(o *Matrix, t Thresholds) *Matrix {
	return wrapInt(GMulThresh(IntRing{}, m.gm(), o.gm(), t))
}
