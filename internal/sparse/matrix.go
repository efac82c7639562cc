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
// There is one matrix type, GMatrix[T, R], whose semiring R is part of
// the type (kernel.go, semiring.go): every operator is one method on
// it. Matrix is its int64 instance, so annotated evaluations (witness
// provenance) run the exact same code as the production integer path.
// The signed delta algebra of incremental maintenance (delta.go) needs
// exact subtraction, which only the integer ring has, so it is a set of
// functions over *Matrix.
//
// All operations return new matrices; values are never mutated after
// construction, so matrices are safe for concurrent use.
package sparse

import (
	"fmt"
	"slices"
	"sort"
)

// Matrix is an immutable n×n sparse matrix with int64 entries: the one
// matrix type at the integer semiring. The zero value is an empty 0×0
// matrix.
type Matrix = GMatrix[int64, IntRing]

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
	return GIdentity[int64, IntRing](n)
}

// Zero returns the n×n all-zero matrix.
func Zero(n int) *Matrix {
	return GZero[int64, IntRing](n)
}
