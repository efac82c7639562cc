// Package sparse implements the sparse matrix kernel used to compute
// commuting matrices for RRE patterns (paper §4.3).
//
// Matrices are square over the node-id space of a graph and stored in
// compressed sparse row (CSR) form. The algebra is exactly the one the
// paper defines for commuting matrices:
//
//	M_a        = A_a                    (adjacency of label a)
//	M_{p-}     = M_pᵀ                   (Transpose)
//	M_{p1·p2}  = M_{p1} M_{p2}          (Mul)
//	M_{p1+p2}  = M_{p1} + M_{p2}        (Add)
//	M_{⌈⌈p⌋⌋}  = M_p > 0                (Boolean)
//	M_{[p]}    = diag{ M_p (M_pᵀ > 0) } (DiagMulBool)
//
// The operators are implemented once, generically over a semiring
// (kernel.go, semiring.go); Matrix is the canonical int64 instance and
// every method below delegates to the generic kernel at IntRing, so
// annotated evaluations (counting, witness provenance) run the exact
// same code as the production integer path.
//
// All operations return new matrices; values are never mutated after
// construction, so matrices are safe for concurrent use.
package sparse

import (
	"fmt"
	"sort"
	"strings"
)

// Matrix is an immutable n×n sparse matrix with int64 entries in CSR
// form — the generic kernel instantiated at the integer semiring. The
// zero value is an empty 0×0 matrix.
type Matrix GMatrix[int64]

// gm views the matrix as its generic representation; the conversion is
// free (identical layout).
func (m *Matrix) gm() *GMatrix[int64] { return (*GMatrix[int64])(m) }

func wrapInt(g *GMatrix[int64]) *Matrix { return (*Matrix)(g) }

// Triple is a single (row, col, value) entry used to build a Matrix.
type Triple struct {
	Row, Col int
	Val      int64
}

// New returns an n×n matrix built from the given triples. Duplicate
// (row, col) entries are summed. Entries that sum to zero are dropped.
// New panics if any index is out of [0, n).
func New(n int, triples []Triple) *Matrix {
	for _, t := range triples {
		if t.Row < 0 || t.Row >= n || t.Col < 0 || t.Col >= n {
			panic(fmt.Sprintf("sparse: triple (%d,%d) out of range for n=%d", t.Row, t.Col, n))
		}
	}
	sorted := make([]Triple, len(triples))
	copy(sorted, triples)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &Matrix{n: n, rowPtr: make([]int32, n+1)}
	m.colIdx = make([]int32, 0, len(sorted))
	m.val = make([]int64, 0, len(sorted))
	for i := 0; i < len(sorted); {
		j := i
		var sum int64
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			sum += sorted[j].Val
			j++
		}
		if sum != 0 {
			m.colIdx = append(m.colIdx, int32(sorted[i].Col))
			m.val = append(m.val, sum)
			m.rowPtr[sorted[i].Row+1]++
		}
		i = j
	}
	for r := 0; r < n; r++ {
		m.rowPtr[r+1] += m.rowPtr[r]
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	return wrapInt(GIdentity[int64](IntRing{}, n))
}

// Zero returns the n×n all-zero matrix.
func Zero(n int) *Matrix {
	return wrapInt(GZero[int64](n))
}

// Dim returns the dimension n of the n×n matrix.
func (m *Matrix) Dim() int { return m.n }

// NNZ returns the number of stored (nonzero) entries.
func (m *Matrix) NNZ() int { return len(m.val) }

// At returns the entry at (row, col). It is O(log nnz(row)).
func (m *Matrix) At(row, col int) int64 {
	if row < 0 || row >= m.n || col < 0 || col >= m.n {
		panic(fmt.Sprintf("sparse: At(%d,%d) out of range for n=%d", row, col, m.n))
	}
	v, _ := m.gm().Lookup(row, col)
	return v
}

// Row calls fn(col, val) for each stored entry in the given row, in
// ascending column order.
func (m *Matrix) Row(row int, fn func(col int, val int64)) {
	m.gm().Row(row, fn)
}

// RowView returns the given row's column indexes, ascending, and its
// values. Both share the matrix's storage and are read-only. Equation-1
// scoring reads rows as inner products ⟨A[u,·], B[v,·]⟩; int64 products
// and sums wrap mod 2⁶⁴ in any order, so such an inner product equals
// the (u,v) entry of A·Bᵀ bit for bit even where the counts overflow.
func (m *Matrix) RowView(row int) ([]int32, []int64) {
	lo, hi := m.rowPtr[row], m.rowPtr[row+1]
	return m.colIdx[lo:hi], m.val[lo:hi]
}

// Each calls fn(row, col, val) for every stored entry in row-major order.
func (m *Matrix) Each(fn func(row, col int, val int64)) {
	m.gm().Each(fn)
}

// Diag returns the main diagonal as a dense slice of length n.
func (m *Matrix) Diag() []int64 {
	d := make([]int64, m.n)
	for r := 0; r < m.n; r++ {
		d[r] = m.At(r, r)
	}
	return d
}

// Transpose returns Mᵀ, the commuting matrix of a reverse traversal p⁻.
func (m *Matrix) Transpose() *Matrix {
	return wrapInt(m.gm().Transpose())
}

// Mul returns the matrix product m·o, the commuting matrix of a
// concatenation p1·p2, using Gustavson's row-by-row SpGEMM. Large
// products spread their row ranges over GOMAXPROCS goroutines; the
// result is bit-identical either way. It panics if dimensions differ.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	return m.MulThresh(o, DefaultThresholds())
}

// MulFlops returns the exact number of scalar multiplications m·o
// performs — for every entry (i,k) of m, the length of o's row k — read
// off the two CSRs in O(nnz(m)) without allocating. It is the chain
// planner's cost of a product. It panics if dimensions differ.
func (m *Matrix) MulFlops(o *Matrix) int64 {
	if m.n != o.n {
		panic(fmt.Sprintf("sparse: MulFlops dimension mismatch %d vs %d", m.n, o.n))
	}
	var flops int64
	for _, k := range m.colIdx {
		flops += int64(o.rowPtr[k+1] - o.rowPtr[k])
	}
	return flops
}

// Add returns m + o element-wise, the commuting matrix of a disjunction
// p1 + p2 with p1 ≠ p2. It panics if dimensions differ.
func (m *Matrix) Add(o *Matrix) *Matrix {
	return wrapInt(GAdd(IntRing{}, m.gm(), o.gm()))
}

// Boolean returns M > 0: each positive entry becomes 1, everything else 0.
// This is the commuting matrix of the skip operation ⌈⌈p⌋⌋.
func (m *Matrix) Boolean() *Matrix {
	return wrapInt(GBoolean(IntRing{}, m.gm()))
}

// DiagMulBool returns diag{ m · (mᵀ > 0) }: the diagonal matrix whose
// (u,u) entry counts instances of the nested pattern [p] at node u
// (paper §4.3, M_{[p]} = diag{M_p (M_pᵀ > 0)}).
func (m *Matrix) DiagMulBool() *Matrix {
	return wrapInt(GDiagMulBool(IntRing{}, m.gm()))
}

// Scale returns m with every entry multiplied by k. Scale(0) is Zero(n).
func (m *Matrix) Scale(k int64) *Matrix {
	if k == 0 {
		return Zero(m.n)
	}
	s := &Matrix{
		n:      m.n,
		rowPtr: append([]int32(nil), m.rowPtr...),
		colIdx: append([]int32(nil), m.colIdx...),
		val:    make([]int64, len(m.val)),
	}
	for i, v := range m.val {
		s.val[i] = v * k
	}
	return s
}

// Equal reports whether m and o have the same dimension and entries.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.n != o.n || len(m.val) != len(o.val) {
		return false
	}
	for i := range m.rowPtr {
		if m.rowPtr[i] != o.rowPtr[i] {
			return false
		}
	}
	for i := range m.val {
		if m.colIdx[i] != o.colIdx[i] || m.val[i] != o.val[i] {
			return false
		}
	}
	return true
}

// RowSums returns the vector of row sums.
func (m *Matrix) RowSums() []int64 {
	s := make([]int64, m.n)
	for r := 0; r < m.n; r++ {
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			s[r] += m.val[i]
		}
	}
	return s
}

// Sum returns the sum of all entries.
func (m *Matrix) Sum() int64 {
	var s int64
	for _, v := range m.val {
		s += v
	}
	return s
}

// BooleanClosure returns the reflexive-transitive boolean closure of m:
// entry (u,v) is 1 iff v is reachable from u via zero or more m-steps
// where m is interpreted as a boolean relation. This implements the set
// semantics of Kleene star instances I(p*) collapsed to reachability.
func (m *Matrix) BooleanClosure() *Matrix {
	return wrapInt(GBooleanClosure(IntRing{}, m.gm(), DefaultThresholds()))
}

// String renders small matrices densely for debugging; large matrices
// render as a summary.
func (m *Matrix) String() string {
	if m.n > 16 {
		return fmt.Sprintf("sparse.Matrix{n=%d nnz=%d}", m.n, len(m.val))
	}
	var b strings.Builder
	for r := 0; r < m.n; r++ {
		for c := 0; c < m.n; c++ {
			if c > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", m.At(r, c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
