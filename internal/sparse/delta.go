package sparse

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// Thin signed deltas. Incremental maintenance of commuting matrices
// describes what a commit changes as a signed difference ΔA per touched
// label (added edges +1, removed edges −1) and patches cached products
// via the distributive expansion (A+ΔA)(B+ΔB) = AB + ΔA·B + A·ΔB +
// ΔA·ΔB. A commit touches a handful of rows of matrices with tens of
// thousands, so a difference is held as a Delta — its populated rows
// and a CSR over them — and every operation here costs the rows,
// entries and multiply-adds it touches, with pooled scratch and no
// allocation the size of the dimension. Rows stay canonical (columns
// ascending, no explicit zeros), so a patched matrix is Equal, row for
// row, to one recomputed from scratch; where its rows sit in the arena
// is not part of its value.
//
// Signed deltas require an exact additive inverse, which IntRing alone
// has, so these operations are functions over *Matrix, not methods of
// every GMatrix; annotated caches are maintained by eviction instead.

// Delta is an immutable signed n×n difference of integer matrices: the
// sorted ids of its populated rows and a CSR over just those rows. It
// is what a commit changes, computed per commit and never cached. The
// matrices it meets may have a smaller dimension (the id space before
// the commit): rows past an operand's dimension read as empty.
type Delta struct {
	n      int
	rows   []int32 // populated rows, ascending
	ptr    []int32 // len(rows)+1 offsets into colIdx/val; unread when rows is empty
	colIdx []int32
	val    []int64
}

// NewDelta returns the n×n delta holding the given triples. Duplicate
// (row, col) entries are summed and entries that sum to zero dropped,
// so an edge added and removed in one commit leaves nothing. It panics
// if any index is out of [0, n).
func NewDelta(n int, triples []Triple) *Delta {
	return deltaOfTriples(n, slices.Clone(triples))
}

// deltaOfTriples is NewDelta on triples it may reorder.
func deltaOfTriples(n int, triples []Triple) *Delta {
	sorted := sortTriples(n, triples)
	d := &Delta{n: n}
	for i := 0; i < len(sorted); {
		t := sorted[i]
		var sum int64
		for ; i < len(sorted) && sorted[i].Row == t.Row && sorted[i].Col == t.Col; i++ {
			sum += sorted[i].Val
		}
		if sum != 0 {
			d.colIdx = append(d.colIdx, int32(t.Col))
			d.val = append(d.val, sum)
		}
		if i == len(sorted) || sorted[i].Row != t.Row {
			d.closeRow(int32(t.Row))
		}
	}
	return d
}

// closeRow ends row r, whose entries are those appended since the last
// row closed: it is recorded if it has any, so no delta holds an empty
// row.
func (d *Delta) closeRow(r int32) {
	if len(d.ptr) == 0 {
		d.ptr = append(d.ptr, 0)
	}
	if len(d.colIdx) == int(d.ptr[len(d.ptr)-1]) {
		return
	}
	if len(d.colIdx) > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: delta has %d entries, beyond int32 offsets", len(d.colIdx)))
	}
	d.rows = append(d.rows, r)
	d.ptr = append(d.ptr, int32(len(d.colIdx)))
}

// Dim returns the dimension n of the n×n delta.
func (d *Delta) Dim() int { return d.n }

// NNZ returns the number of stored (nonzero) entries.
func (d *Delta) NNZ() int { return len(d.val) }

// Each calls fn(row, col, val) for every stored entry in row-major order.
func (d *Delta) Each(fn func(row, col int, val int64)) {
	for i, r := range d.rows {
		for j := d.ptr[i]; j < d.ptr[i+1]; j++ {
			fn(int(r), int(d.colIdx[j]), d.val[j])
		}
	}
}

// rowAt returns the i-th populated row's columns and values.
func (d *Delta) rowAt(i int) ([]int32, []int64) {
	return d.colIdx[d.ptr[i]:d.ptr[i+1]], d.val[d.ptr[i]:d.ptr[i+1]]
}

// Transpose returns dᵀ, the delta of a reverse traversal.
func (d *Delta) Transpose() *Delta {
	ts := make([]Triple, 0, len(d.val))
	d.Each(func(r, c int, v int64) { ts = append(ts, Triple{Row: c, Col: r, Val: v}) })
	return deltaOfTriples(d.n, ts)
}

// equal reports whether d and o hold the same entries.
func (d *Delta) equal(o *Delta) bool {
	return slices.Equal(d.rows, o.rows) && slices.Equal(d.colIdx, o.colIdx) && slices.Equal(d.val, o.val) &&
		(len(d.rows) == 0 || slices.Equal(d.ptr, o.ptr))
}

// Neg returns −d. The structure is shared; only the values are new.
func (d *Delta) Neg() *Delta {
	neg := *d
	neg.val = make([]int64, len(d.val))
	for i, v := range d.val {
		neg.val[i] = -v
	}
	return &neg
}

// Add returns d + o, dropping entries that cancel and rows they empty.
// It panics if dimensions differ.
func (d *Delta) Add(o *Delta) *Delta {
	if d.n != o.n {
		panic(fmt.Sprintf("sparse: Delta.Add dimension mismatch %d vs %d", d.n, o.n))
	}
	s := &Delta{n: d.n}
	i, j := 0, 0
	for i < len(d.rows) || j < len(o.rows) {
		var r int32
		var ac, bc []int32
		var av, bv []int64
		switch {
		case j == len(o.rows) || (i < len(d.rows) && d.rows[i] < o.rows[j]):
			r = d.rows[i]
			ac, av = d.rowAt(i)
			i++
		case i == len(d.rows) || o.rows[j] < d.rows[i]:
			r = o.rows[j]
			ac, av = o.rowAt(j)
			j++
		default:
			r = d.rows[i]
			ac, av = d.rowAt(i)
			bc, bv = o.rowAt(j)
			i++
			j++
		}
		s.colIdx, s.val = appendMerged(s.colIdx, s.val, ac, av, bc, bv, 1)
		s.closeRow(r)
	}
	return s
}

// appendMerged appends the sorted row a + sign·b to cols/vals, dropping
// entries that cancel, and returns the extended slices.
func appendMerged(cols []int32, vals []int64, ac []int32, av []int64, bc []int32, bv []int64, sign int64) ([]int32, []int64) {
	i, j := 0, 0
	for i < len(ac) && j < len(bc) {
		switch {
		case ac[i] < bc[j]:
			cols, vals = append(cols, ac[i]), append(vals, av[i])
			i++
		case bc[j] < ac[i]:
			cols, vals = append(cols, bc[j]), append(vals, sign*bv[j])
			j++
		default:
			if v := av[i] + sign*bv[j]; v != 0 {
				cols, vals = append(cols, ac[i]), append(vals, v)
			}
			i++
			j++
		}
	}
	cols, vals = append(cols, ac[i:]...), append(vals, av[i:]...)
	cols = append(cols, bc[j:]...)
	for _, v := range bv[j:] {
		vals = append(vals, sign*v)
	}
	return cols, vals
}

// closeProductRow ends row r of a product under construction: the
// columns appended to d.colIdx since the last row closed are the row's
// first touches, in any order, with their sums in s.acc. They are
// sorted in place, paired with the sums that did not cancel, and the
// row is closed.
func (d *Delta) closeProductRow(r int32, s *mulScratch[int64]) {
	start := len(d.val)
	cols := d.colIdx[start:]
	slices.Sort(cols)
	w := start
	for _, c := range cols {
		if v := s.acc[c]; v != 0 {
			d.colIdx[w] = c
			d.val = append(d.val, v)
			w++
		}
	}
	d.colIdx = d.colIdx[:w]
	d.closeRow(r)
}

// accumulate adds mv·(bc, bv) into the product row under construction.
func (d *Delta) accumulate(s *mulScratch[int64], mv int64, bc []int32, bv []int64) {
	for j, c := range bc {
		v := mv * bv[j]
		if s.mark[c] != s.stamp {
			s.mark[c] = s.stamp
			d.colIdx = append(d.colIdx, c)
			s.acc[c] = v
		} else {
			s.acc[c] += v
		}
	}
}

// Mul returns d·m by Gustavson's algorithm over d's populated rows
// only: the cost is d's entries plus the multiply-adds, whatever the
// dimension. m may be smaller than d (its rows past Dim are empty); it
// panics if m is larger.
func (d *Delta) Mul(m *Matrix) *Delta {
	if m.n > d.n {
		panic(fmt.Sprintf("sparse: Delta.Mul dimension mismatch %d vs %d", d.n, m.n))
	}
	p := &Delta{n: d.n}
	if len(d.rows) == 0 || m.nnz == 0 {
		return p
	}
	s := getScratch[int64](d.n)
	for i, r := range d.rows {
		s.stamp++
		dc, dv := d.rowAt(i)
		for j, k := range dc {
			mc, mv := m.RowView(int(k))
			p.accumulate(s, dv[j], mc, mv)
		}
		p.closeProductRow(r, s)
	}
	scratchPool.Put(s)
	return p
}

// MulDelta returns m·d as (dᵀ·mᵀ)ᵀ: each populated row k of d meets
// row k of m's kept transpose, which is column k of m, so the cost is
// Σ_k |mᵀ[k,·]|·|d[k,·]| multiply-adds whatever nnz(m) is. m may be
// smaller than d; it panics if m is larger.
func MulDelta(m *Matrix, d *Delta) *Delta {
	if m.n > d.n {
		panic(fmt.Sprintf("sparse: MulDelta dimension mismatch %d vs %d", m.n, d.n))
	}
	if len(d.rows) == 0 || m.nnz == 0 {
		return &Delta{n: d.n}
	}
	return d.Transpose().Mul(m.TransposeCached()).Transpose()
}

// rowBuf is pooled scratch for the replacement rows of one patch: a CSR
// over the rows being replaced, copied into the arena by withRows.
type rowBuf struct {
	ptr    []int32
	colIdx []int32
	val    []int64
}

var rowBufPool = sync.Pool{New: func() any { return new(rowBuf) }}

func getRowBuf() *rowBuf {
	b := rowBufPool.Get().(*rowBuf)
	b.ptr, b.colIdx, b.val = append(b.ptr[:0], 0), b.colIdx[:0], b.val[:0]
	return b
}

// closeRow ends the replacement row under construction, empty or not.
func (b *rowBuf) closeRow() {
	if len(b.colIdx) > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: patch has %d entries, beyond int32 offsets", len(b.colIdx)))
	}
	b.ptr = append(b.ptr, int32(len(b.colIdx)))
}

// Patch returns m + d at d's dimension: m grown, with only d's
// populated rows rewritten (entries that cancel are dropped, never
// stored as zeros) and every other row shared with m. If m keeps a
// transpose, the result keeps it patched by dᵀ. It panics if m is
// larger than d.
func Patch(m *Matrix, d *Delta) *Matrix {
	return carry(m, patch(m, d), d)
}

// carry hands out, made from m by adding d, the transpose derived from
// m's kept one: out is its own transpose if m was and d equals dᵀ, and
// otherwise keeps m's transpose patched by dᵀ. It returns out.
func carry(m, out *Matrix, d *Delta) *Matrix {
	if m.tr.Load() == nil {
		return out
	}
	dT := d.Transpose()
	out.carryTranspose(m, d.equal(dT), func(t *Matrix) *Matrix { return patch(t, dT) })
	return out
}

// patch is Patch without the transpose.
func patch(m *Matrix, d *Delta) *Matrix {
	if m.n > d.n {
		panic(fmt.Sprintf("sparse: Patch dimension mismatch %d vs %d", m.n, d.n))
	}
	b := getRowBuf()
	defer rowBufPool.Put(b)
	for i, r := range d.rows {
		mc, mv := m.RowView(int(r))
		dc, dv := d.rowAt(i)
		b.colIdx, b.val = appendMerged(b.colIdx, b.val, mc, mv, dc, dv, 1)
		b.closeRow()
	}
	return m.withRows(d.n, d.rows, b.ptr, b.colIdx, b.val)
}

// PatchBoolean re-evaluates a cached boolean collapse row-locally. m is
// Boolean of the child's old value, child its new value and d the
// child's delta: only d's rows of the child changed, so only those rows
// of the collapse are recomputed. It returns Boolean(child), sharing
// every other row with m, and its difference from m.
func PatchBoolean(m, child *Matrix, d *Delta) (*Matrix, *Delta) {
	return patchRows(m, child, d, func(b *rowBuf, _ int32, cols []int32, vals []int64) {
		for j, v := range vals {
			if v > 0 {
				b.colIdx, b.val = append(b.colIdx, cols[j]), append(b.val, 1)
			}
		}
	})
}

// PatchDiagMulBool is PatchBoolean for the nested-pattern diagonal: m
// is DiagMulBool of the child's old value, and the result is
// DiagMulBool(child) and its difference from m.
func PatchDiagMulBool(m, child *Matrix, d *Delta) (*Matrix, *Delta) {
	return patchRows(m, child, d, func(b *rowBuf, r int32, _ []int32, vals []int64) {
		var sum int64
		for _, v := range vals {
			if v > 0 {
				sum += v
			}
		}
		if sum != 0 {
			b.colIdx, b.val = append(b.colIdx, r), append(b.val, sum)
		}
	})
}

// patchRows rewrites d's populated rows of m by a row-local operator of
// child's rows: rowOp appends row r of the result, given row r of
// child, to the buffer. It returns the rewritten matrix at child's
// dimension and new − old on those rows.
func patchRows(m, child *Matrix, d *Delta, rowOp func(b *rowBuf, r int32, cols []int32, vals []int64)) (*Matrix, *Delta) {
	if m.n > child.n || d.n != child.n {
		panic(fmt.Sprintf("sparse: row patch dimension mismatch: %d, child %d, delta %d", m.n, child.n, d.n))
	}
	b := getRowBuf()
	defer rowBufPool.Put(b)
	diff := &Delta{n: child.n}
	for _, r := range d.rows {
		start := len(b.colIdx)
		cc, cv := child.RowView(int(r))
		rowOp(b, r, cc, cv)
		b.closeRow()
		oc, ov := m.RowView(int(r))
		diff.colIdx, diff.val = appendMerged(diff.colIdx, diff.val, b.colIdx[start:], b.val[start:], oc, ov, -1)
		diff.closeRow(r)
	}
	return carry(m, m.withRows(child.n, d.rows, b.ptr, b.colIdx, b.val), diff), diff
}

// DeltaOf returns new − old by a full scan of both. Maintenance uses it
// only where no delta algebra exists (a recomputed Kleene closure);
// everything else derives its delta from the children's. old may be
// smaller than new; it panics if it is larger.
func DeltaOf(new, old *Matrix) *Delta {
	if old.n > new.n {
		panic(fmt.Sprintf("sparse: DeltaOf dimension mismatch %d vs %d", new.n, old.n))
	}
	d := &Delta{n: new.n}
	for r := range max(len(new.rows), len(old.rows)) {
		nc, nv := new.RowView(r)
		oc, ov := old.RowView(r)
		d.colIdx, d.val = appendMerged(d.colIdx, d.val, nc, nv, oc, ov, -1)
		d.closeRow(int32(r))
	}
	return d
}
