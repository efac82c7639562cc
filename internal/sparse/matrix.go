// Package sparse implements the sparse matrix kernel used to compute
// commuting matrices for RRE patterns (paper §4.3).
//
// Matrices are square over the node-id space of a graph and stored as
// sorted sparse rows: one span per row into an entry arena (kernel.go).
// The algebra is exactly the one the
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
	"slices"
	"sort"
	"strings"
)

// Matrix is an immutable n×n sparse matrix with int64 entries — the
// generic kernel instantiated at the integer semiring. The zero value
// is an empty 0×0 matrix.
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
	sorted := sortTriples(n, slices.Clone(triples))
	m := &Matrix{n: n, rows: make([]span, n)}
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
		}
		if j == len(sorted) || sorted[j].Row != sorted[i].Row {
			// Rows arrive in order, so a row's span is its predecessor's
			// end up to here; rows without triples stay the empty span.
			m.rows[sorted[i].Row] = span{int32(m.nnz), int32(len(m.colIdx))}
			m.nnz = len(m.colIdx)
		}
		i = j
	}
	return m
}

// sortTriples sorts ts in place into row-major order and returns it. It
// panics if any index is out of [0, n).
func sortTriples(n int, ts []Triple) []Triple {
	for _, t := range ts {
		if t.Row < 0 || t.Row >= n || t.Col < 0 || t.Col >= n {
			panic(fmt.Sprintf("sparse: triple (%d,%d) out of range for n=%d", t.Row, t.Col, n))
		}
	}
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Row != ts[j].Row {
			return ts[i].Row < ts[j].Row
		}
		return ts[i].Col < ts[j].Col
	})
	return ts
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
func (m *Matrix) NNZ() int { return m.nnz }

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
// scoring pushes row u of A through the rows of B it selects, and
// merges two sorted rows for a diagonal entry ⟨A[v,·], Bᵀ[v,·]⟩; int64
// products and sums wrap mod 2⁶⁴ in any order, so either way the result
// equals the entry of A·B bit for bit even where the counts overflow.
func (m *Matrix) RowView(row int) ([]int32, []int64) {
	sp := m.gm().row(row)
	return m.colIdx[sp.lo:sp.hi], m.val[sp.lo:sp.hi]
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

// TransposeCached returns Mᵀ, built on the first call and kept with m,
// so every later call is one atomic load. A symmetric m is its own
// transpose and returns itself. Concurrent first callers may each build
// one, but one compare-and-swap wins and all of them return it. A
// matrix made from m (Grow, Patch, PatchBoolean, PatchDiagMulBool)
// keeps the transpose derived from m's, in O(|Δ|), if m kept one.
func (m *Matrix) TransposeCached() *Matrix {
	g := m.gm()
	if t := g.tr.Load(); t != nil {
		return wrapInt(t)
	}
	t := g.Transpose()
	if m.Equal(wrapInt(t)) {
		t = g
	}
	if !g.tr.CompareAndSwap(nil, t) {
		t = g.tr.Load()
	}
	return wrapInt(t)
}

// Mul returns the matrix product m·o, the commuting matrix of a
// concatenation p1·p2, using Gustavson's row-by-row SpGEMM. Large
// products spread their row ranges over GOMAXPROCS goroutines; the
// result is bit-identical either way. It panics if dimensions differ.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	return m.MulThresh(o, DefaultThresholds())
}

// MulFlops returns the exact number of scalar multiplications m·o
// performs (see GMatrix.MulFlops).
func (m *Matrix) MulFlops(o *Matrix) int64 { return m.gm().MulFlops(o.gm()) }

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
	return wrapInt(gMapEntries(m.gm(), func(v int64) (int64, bool) { return v * k, v*k != 0 }))
}

// Equal reports whether m and o have the same dimension and entries.
// Rows are compared as values, wherever each operand keeps them.
func (m *Matrix) Equal(o *Matrix) bool {
	return gEqualRows(m.gm(), o.gm(), slices.Equal[[]int64])
}

// RowSums returns the vector of row sums.
func (m *Matrix) RowSums() []int64 {
	s := make([]int64, m.n)
	m.Each(func(r, _ int, v int64) { s[r] += v })
	return s
}

// Sum returns the sum of all entries.
func (m *Matrix) Sum() int64 {
	var s int64
	m.Each(func(_, _ int, v int64) { s += v })
	return s
}

// BooleanClosure returns the reflexive-transitive boolean closure of m:
// entry (u,v) is 1 iff v is reachable from u via zero or more m-steps
// where m is interpreted as a boolean relation. This implements the set
// semantics of Kleene star instances I(p*) collapsed to reachability.
func (m *Matrix) BooleanClosure() *Matrix {
	return wrapInt(GBooleanClosure(IntRing{}, m.gm(), func(a, b *GMatrix[int64]) *GMatrix[int64] {
		return wrapInt(a).Mul(wrapInt(b)).gm()
	}))
}

// String renders small matrices densely for debugging; large matrices
// render as a summary.
func (m *Matrix) String() string {
	if m.n > 16 {
		return fmt.Sprintf("sparse.Matrix{n=%d nnz=%d}", m.n, m.nnz)
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
