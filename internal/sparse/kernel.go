package sparse

import (
	"fmt"
	"iter"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// The one matrix type. Every operator is written once here as a method
// of GMatrix[T, R], which takes its semiring from R's zero value (rings
// are zero-size structs): Matrix is the instance at IntRing, FloatMatrix
// at FloatRing, WitnessMatrix at WitnessRing, and a ring only tests know
// runs the same code. The kernels keep every row canonical — columns
// ascending, no explicit ring zeros — so equal values have equal rows.
// Equality is per row, never of the backing arrays: a row lives wherever
// its span points in an entry arena that successive versions of a
// matrix share, and an arena may hold rows no version reads any more.
// Per-row equality (Equal) is what the delta-maintenance differential
// harness asserts between a maintained matrix and a cold recompute.
//
// A matrix may keep its transpose (TransposeCached): Equation-1 scoring
// reads the right half of a cut in both orientations, and M·Δ reads M's
// columns. The transpose is built once and then carried: Grow, Patch
// and the row-local patches hand the matrix they make a transpose
// derived from the old one in O(|Δ|), so it lives as long as the cached
// entry it belongs to. A transpose's spans stop at the last populated
// column, so a thin half costs a thin transpose, and a symmetric matrix
// is its own.

// span is one row's half-open range of entries in the arena.
type span struct{ lo, hi int32 }

// blockRows is the number of rows one span block holds.
const blockRows = 256

// spanBlock holds the spans of blockRows consecutive rows.
type spanBlock [blockRows]span

// GMatrix is an immutable n×n sparse matrix over the semiring R: one
// span per row into an entry arena (colIdx/val), the spans kept in a
// directory of fixed blocks of 256. Rows at and past nrows, in a nil
// block or past the directory are empty, which is what makes Grow
// free. A kernel result owns a compact arena holding exactly its rows
// and one flat span array, padded to a whole block, that its directory
// aliases. A matrix made by withRows shares every untouched row with
// the version it was made from, and every block none of its replaced
// rows fall in: a patch copies the directory and the blocks it
// touches, never n spans, and the version it was made from keeps
// reading its own blocks unchanged. Its replacement rows go past the
// arena's end, into the headroom the last compaction reserved, half
// the live entries: compactions copy about two live entries for each
// one appended, where an eighth of headroom copied about eight.
// Blocks, like spans, are never written once a matrix is published.
// The zero value is an empty 0×0 matrix. A GMatrix must not be
// copied: it holds its transpose once TransposeCached has built it or
// the version it was made from handed one over.
type GMatrix[T comparable, R Ring[T]] struct {
	n      int
	nnz    int          // stored entries: the sum of the span lengths
	nrows  int          // rows at and past nrows are empty; nrows ≤ n
	blocks []*spanBlock // block b holds rows [256b, 256b+256); nil reads as empty
	colIdx []int32      // the arena up to this version's end
	val    []T
	tip    *arenaTip // nil: the arena is never appended to in place
	tr     atomic.Pointer[GMatrix[T, R]]
}

// arenaTip is shared by the versions of a matrix that live in one
// arena. end is the arena length the newest of them sees: only a
// version whose own end still equals it may append in place, and it
// claims the slots past it by compare-and-swap, so two patches of one
// version never write the same slots.
type arenaTip struct{ end atomic.Int64 }

// row returns the span of row r, empty in a nil block and past the
// directory.
func (m *GMatrix[T, R]) row(r int) span { return rowOf(m.blocks, r) }

// rowOf is row over a directory a hot loop holds in a local, so the
// directory is not loaded again through the matrix on every lookup.
func rowOf(blocks []*spanBlock, r int) span {
	if b := uint(r) / blockRows; b < uint(len(blocks)) {
		if blk := blocks[b]; blk != nil {
			return blk[uint(r)%blockRows]
		}
	}
	return span{}
}

// flatSpans gives m nrows rows over one fresh span array, padded to a
// whole block, that a directory of as many blocks aliases, and returns
// the first nrows spans for a kernel to fill before m is published.
func (m *GMatrix[T, R]) flatSpans(nrows int) []span {
	flat := make([]span, (nrows+blockRows-1)/blockRows*blockRows)
	m.nrows, m.blocks = nrows, make([]*spanBlock, len(flat)/blockRows)
	for b := range m.blocks {
		m.blocks[b] = (*spanBlock)(flat[b*blockRows:])
	}
	return flat[:nrows]
}

// spans yields, block by block, the spans of m's rows in [lo, hi): the
// first row's id and the spans from it to the end of its block or hi,
// whichever comes first. Nil blocks are skipped; rows past nrows are
// never yielded.
func (m *GMatrix[T, R]) spans(lo, hi int) iter.Seq2[int, []span] {
	return func(yield func(int, []span) bool) {
		for r, end := lo, min(hi, m.nrows); r < end; r = (r/blockRows + 1) * blockRows {
			blk := m.blocks[r/blockRows]
			if blk != nil && !yield(r, blk[r%blockRows:min(blockRows, end-r/blockRows*blockRows)]) {
				return
			}
		}
	}
}

// Dim returns the dimension n of the n×n matrix.
func (m *GMatrix[T, R]) Dim() int { return m.n }

// NNZ returns the number of stored entries.
func (m *GMatrix[T, R]) NNZ() int { return m.nnz }

// Lookup returns the stored entry at (row, col) and whether one exists.
// It is O(log nnz(row)) and panics if an index is out of [0, n).
func (m *GMatrix[T, R]) Lookup(row, col int) (T, bool) {
	var zero T
	if row < 0 || row >= m.n || col < 0 || col >= m.n {
		panic(fmt.Sprintf("sparse: Lookup(%d,%d) out of range for n=%d", row, col, m.n))
	}
	sp := m.row(row)
	cols := m.colIdx[sp.lo:sp.hi]
	i := sort.Search(len(cols), func(k int) bool { return cols[k] >= int32(col) })
	if i < len(cols) && cols[i] == int32(col) {
		return m.val[int(sp.lo)+i], true
	}
	return zero, false
}

// At returns the entry at (row, col), the ring's zero where none is
// stored. It is O(log nnz(row)) and panics if an index is out of
// [0, n).
func (m *GMatrix[T, R]) At(row, col int) T {
	if v, ok := m.Lookup(row, col); ok {
		return v
	}
	var ring R
	return ring.Zero()
}

// Row calls fn(col, val) for each stored entry in the given row, in
// ascending column order.
func (m *GMatrix[T, R]) Row(row int, fn func(col int, val T)) {
	sp := m.row(row)
	for i := sp.lo; i < sp.hi; i++ {
		fn(int(m.colIdx[i]), m.val[i])
	}
}

// RowView returns the given row's column indexes, ascending, and its
// values. Both share the matrix's storage and are read-only. Equation-1
// scoring pushes row u of A through the rows of B it selects, and
// merges two sorted rows for a diagonal entry ⟨A[v,·], Bᵀ[v,·]⟩; int64
// products and sums wrap mod 2⁶⁴ in any order, so either way the result
// equals the entry of A·B bit for bit even where the counts overflow.
func (m *GMatrix[T, R]) RowView(row int) ([]int32, []T) {
	sp := m.row(row)
	return m.colIdx[sp.lo:sp.hi], m.val[sp.lo:sp.hi]
}

// Each calls fn(row, col, val) for every stored entry in row-major order.
func (m *GMatrix[T, R]) Each(fn func(row, col int, val T)) {
	for base, sps := range m.spans(0, m.nrows) {
		for r, sp := range sps {
			for i := sp.lo; i < sp.hi; i++ {
				fn(base+r, int(m.colIdx[i]), m.val[i])
			}
		}
	}
}

// Transpose returns mᵀ, the commuting matrix of a reverse traversal p⁻,
// by counting sort; it is annotation-preserving (vias are contraction
// indices, not positions). Its spans stop at m's last populated column:
// the transpose of a proc×area half holds a span per area, not one per
// node.
func (m *GMatrix[T, R]) Transpose() *GMatrix[T, R] {
	width := 0
	for _, sps := range m.spans(0, m.nrows) {
		for _, sp := range sps {
			if sp.lo < sp.hi {
				width = max(width, int(m.colIdx[sp.hi-1])+1)
			}
		}
	}
	t := &GMatrix[T, R]{
		n:      m.n,
		nnz:    m.nnz,
		colIdx: make([]int32, m.nnz),
		val:    make([]T, m.nnz),
	}
	rows := t.flatSpans(width)
	for _, sps := range m.spans(0, m.nrows) {
		for _, sp := range sps {
			for _, c := range m.colIdx[sp.lo:sp.hi] {
				rows[c].hi++
			}
		}
	}
	// Each row starts empty at its offset; the fill below advances hi,
	// so the span doubles as the row's write cursor.
	var off int32
	for c, sp := range rows {
		rows[c] = span{off, off}
		off += sp.hi
	}
	for base, sps := range m.spans(0, m.nrows) {
		for r, sp := range sps {
			for i := sp.lo; i < sp.hi; i++ {
				w := &rows[m.colIdx[i]].hi
				t.colIdx[*w] = int32(base + r)
				t.val[*w] = m.val[i]
				*w++
			}
		}
	}
	return t
}

// TransposeCached returns mᵀ, built on the first call and kept with m,
// so every later call is one atomic load. A symmetric m is its own
// transpose and returns itself. Concurrent first callers may each build
// one, but one compare-and-swap wins and all of them return it. A
// matrix made from m (Grow, Patch, PatchBoolean, PatchDiagMulBool)
// keeps the transpose derived from m's, in O(|Δ|), if m kept one.
func (m *GMatrix[T, R]) TransposeCached() *GMatrix[T, R] {
	if t := m.tr.Load(); t != nil {
		return t
	}
	t := m.Transpose()
	if m.Equal(t) {
		t = m
	}
	if !m.tr.CompareAndSwap(nil, t) {
		t = m.tr.Load()
	}
	return t
}

// KeptTranspose returns the transpose m keeps, or nil if it keeps none
// yet. It never builds one; TransposeCached does.
func (m *GMatrix[T, R]) KeptTranspose() *GMatrix[T, R] { return m.tr.Load() }

// Grow returns m embedded in the top-left corner of an n×n matrix.
// Commits that add nodes enlarge the id space; a cached matrix from the
// previous version reads the same at the new dimension, so the block
// directory, its blocks and the arena are shared and growing costs
// nothing: the new rows are past nrows, and read as empty. A kept
// transpose is grown the same way: the grown matrix is its own
// transpose if m was, and otherwise keeps m's transpose grown. It
// panics if n is smaller than m's dimension.
func (m *GMatrix[T, R]) Grow(n int) *GMatrix[T, R] {
	g := m.grown(n)
	g.carryTranspose(m, true, func(t *GMatrix[T, R]) *GMatrix[T, R] { return t.grown(n) })
	return g
}

// grown is Grow without the transpose.
func (m *GMatrix[T, R]) grown(n int) *GMatrix[T, R] {
	if n == m.n {
		return m
	}
	if n < m.n {
		panic(fmt.Sprintf("sparse: Grow from %d to smaller %d", m.n, n))
	}
	return &GMatrix[T, R]{n: n, nnz: m.nnz, nrows: m.nrows, blocks: m.blocks, colIdx: m.colIdx, val: m.val, tip: m.tip}
}

// carryTranspose hands g, just made from m, the transpose derived from
// m's kept one: g is its own if m was its own and sym (the change from
// m to g equals its transpose) holds, and otherwise keeps derive(m's
// transpose). A matrix keeping none hands none over; nothing is built
// here that derive does not build, and m is never written.
func (g *GMatrix[T, R]) carryTranspose(m *GMatrix[T, R], sym bool, derive func(t *GMatrix[T, R]) *GMatrix[T, R]) {
	switch t := m.tr.Load(); {
	case t == nil || g == m:
	case t == m && sym:
		g.tr.Store(g)
	default:
		g.tr.Store(derive(t))
	}
}

// MulFlops returns the exact number of scalar multiplications m·o
// performs — for every entry (i,k) of m, the length of o's row k — read
// off the two operands' spans in O(nnz(m)) without allocating. It is
// the chain planner's cost of a product. It panics if dimensions differ.
func (m *GMatrix[T, R]) MulFlops(o *GMatrix[T, R]) int64 {
	if m.n != o.n {
		panic(fmt.Sprintf("sparse: MulFlops dimension mismatch %d vs %d", m.n, o.n))
	}
	var flops int64
	oblocks := o.blocks
	for _, sps := range m.spans(0, m.nrows) {
		for _, sp := range sps {
			for _, k := range m.colIdx[sp.lo:sp.hi] {
				osp := rowOf(oblocks, int(k))
				flops += int64(osp.hi - osp.lo)
			}
		}
	}
	return flops
}

// withRows returns the n×n matrix (n ≥ m.n) that reads as m except at
// the given rows — ascending, below n — where row rows[i] becomes
// cols/vals[ptr[i]:ptr[i+1]] (canonical; empty empties the row). The
// replacement rows are appended to m's arena, the directory is copied,
// and so is each block a replaced row falls in: every other block, and
// every other row, is shared with m, so a patch costs the directory
// (n/256 pointers) and 2 KB per touched block, never n spans. Only the
// arena's newest version may append in place; anything else, an arena
// out of capacity, or one whose dead entries would pass half its live
// ones (a third of the arena) is first rewritten compactly, with half
// its live entries as headroom (arenaRoom), over fresh flat spans, so
// an arena holds at most 1.5 times its live entries plus its dead ones.
// cols, vals and ptr are copied out of and may be scratch.
func (m *GMatrix[T, R]) withRows(n int, rows, ptr, cols []int32, vals []T) *GMatrix[T, R] {
	if len(rows) == 0 {
		return m.grown(n)
	}
	out := &GMatrix[T, R]{n: n, nnz: m.nnz + len(cols)}
	for _, r := range rows {
		sp := m.row(int(r))
		out.nnz -= int(sp.hi - sp.lo)
	}
	nrows := max(m.nrows, int(rows[len(rows)-1])+1)
	end := len(m.colIdx)
	grown := end + len(cols)
	if m.tip != nil && grown <= cap(m.colIdx) && (grown-out.nnz)*2 <= out.nnz &&
		m.tip.end.CompareAndSwap(int64(end), int64(grown)) {
		out.colIdx, out.val, out.tip = m.colIdx[:grown], m.val[:grown], m.tip
		copy(out.colIdx[end:], cols)
		copy(out.val[end:], vals)
		out.nrows, out.blocks = nrows, make([]*spanBlock, (nrows+blockRows-1)/blockRows)
		copy(out.blocks, m.blocks)
		copied := -1 // rows ascend, so a block's rows come together
		for i, r := range rows {
			b := int(r) / blockRows
			if b != copied {
				blk := new(spanBlock)
				if old := out.blocks[b]; old != nil {
					*blk = *old
				}
				out.blocks[b], copied = blk, b
			}
			out.blocks[b][int(r)%blockRows] = span{int32(end) + ptr[i], int32(end) + ptr[i+1]}
		}
		return out
	}
	room, ok := arenaRoom(out.nnz)
	if !ok {
		panic(fmt.Sprintf("sparse: patched matrix has %d entries, beyond int32 spans", out.nnz))
	}
	out.colIdx, out.val = make([]int32, out.nnz, room), make([]T, out.nnz, room)
	out.tip = &arenaTip{}
	out.tip.end.Store(int64(out.nnz))
	w, i := 0, 0
	spans := out.flatSpans(nrows)
	for r := range spans {
		sp := m.row(r)
		sc, sv := m.colIdx[sp.lo:sp.hi], m.val[sp.lo:sp.hi]
		if i < len(rows) && int(rows[i]) == r {
			sc, sv = cols[ptr[i]:ptr[i+1]], vals[ptr[i]:ptr[i+1]]
			i++
		}
		copy(out.colIdx[w:], sc)
		copy(out.val[w:], sv)
		spans[r] = span{int32(w), int32(w + len(sc))}
		w += len(sc)
	}
	return out
}

// arenaRoom returns the capacity a compacted arena of nnz live entries
// gets: nnz and half as many again, clamped to what int32 spans
// address. ok is false when nnz itself does not fit in int32 spans.
func arenaRoom(nnz int) (room int, ok bool) {
	if nnz > math.MaxInt32 {
		return 0, false
	}
	return min(nnz+nnz/2, math.MaxInt32), true
}

// GZero returns the n×n all-zero matrix over R.
func GZero[T comparable, R Ring[T]](n int) *GMatrix[T, R] {
	return &GMatrix[T, R]{n: n}
}

// GIdentity returns the n×n identity of R.
func GIdentity[T comparable, R Ring[T]](n int) *GMatrix[T, R] {
	m := &GMatrix[T, R]{
		n:      n,
		nnz:    n,
		colIdx: make([]int32, n),
		val:    make([]T, n),
	}
	rows := m.flatSpans(n)
	var ring R
	one := ring.One()
	for i := 0; i < n; i++ {
		rows[i] = span{int32(i), int32(i + 1)}
		m.colIdx[i] = int32(i)
		m.val[i] = one
	}
	return m
}

// Lift maps an integer matrix into R entry-wise through R's Lift,
// dropping entries that lift to zero. This is how base adjacency
// matrices enter an evaluation. When *GMatrix[T, R] is *Matrix, where
// Lift is the identity, it returns m itself.
func Lift[T comparable, R Ring[T]](m *Matrix) *GMatrix[T, R] {
	if g, same := any(m).(*GMatrix[T, R]); same {
		return g
	}
	var ring R
	return mapEntries[int64, IntRing, T, R](m, func(v int64) (T, bool) {
		l := ring.Lift(v)
		return l, !ring.IsZero(l)
	})
}

// mapEntries returns the matrix of f's images of m's entries, keeping
// those f reports true for. The output is sized once by m's entries:
// exact unless f drops some (non-positive counts under Boolean or a
// counting Lift).
func mapEntries[S comparable, RS Ring[S], T comparable, R Ring[T]](m *GMatrix[S, RS], f func(S) (T, bool)) *GMatrix[T, R] {
	g := &GMatrix[T, R]{
		n:      m.n,
		colIdx: make([]int32, 0, m.nnz),
		val:    make([]T, 0, m.nnz),
	}
	rows := g.flatSpans(m.nrows)
	for base, sps := range m.spans(0, m.nrows) {
		for r, sp := range sps {
			start := int32(len(g.colIdx))
			for i := sp.lo; i < sp.hi; i++ {
				if v, keep := f(m.val[i]); keep {
					g.colIdx = append(g.colIdx, m.colIdx[i])
					g.val = append(g.val, v)
				}
			}
			rows[base+r] = span{start, int32(len(g.colIdx))}
		}
	}
	g.nnz = len(g.colIdx)
	return g
}

// Add returns m ⊕ o element-wise, the commuting matrix of a disjunction
// p1 + p2 with p1 ≠ p2, dropping entries that sum to the ring zero. It
// panics if dimensions differ. The sorted row merge runs twice —
// counting, then filling — so the output is allocated once at its exact
// size, and a row only one operand populates is a copy.
func (m *GMatrix[T, R]) Add(o *GMatrix[T, R]) *GMatrix[T, R] {
	if m.n != o.n {
		panic(fmt.Sprintf("sparse: Add dimension mismatch %d vs %d", m.n, o.n))
	}
	var ring R
	s := &GMatrix[T, R]{n: m.n}
	rows := s.flatSpans(max(m.nrows, o.nrows))
	for fill := false; ; fill = true {
		for r := range rows {
			w := rows[r].lo
			if fill && w == rows[r].hi {
				continue // nothing of this row survived the count
			}
			mr, or := m.row(r), o.row(r)
			i, iEnd, j, jEnd := mr.lo, mr.hi, or.lo, or.hi
			var cnt int32
			for i < iEnd && j < jEnd {
				c, v := m.colIdx[i], m.val[i]
				switch oc := o.colIdx[j]; {
				case c < oc:
					i++
				case oc < c:
					c, v = oc, o.val[j]
					j++
				default:
					v = ring.Add(v, o.val[j])
					i++
					j++
					if ring.IsZero(v) {
						continue
					}
				}
				if fill {
					s.colIdx[w+cnt], s.val[w+cnt] = c, v
				}
				cnt++
			}
			if fill {
				// At most one tail is non-empty.
				copy(s.colIdx[w+cnt:], m.colIdx[i:iEnd])
				copy(s.val[w+cnt:], m.val[i:iEnd])
				copy(s.colIdx[w+cnt:], o.colIdx[j:jEnd])
				copy(s.val[w+cnt:], o.val[j:jEnd])
			} else {
				rows[r].hi = cnt + (iEnd - i) + (jEnd - j)
			}
		}
		if fill {
			return s
		}
		s.nnz = spanOffsets(rows, "sum")
		s.colIdx, s.val = make([]int32, s.nnz), make([]T, s.nnz)
	}
}

// spanOffsets turns per-row entry counts (left in rows[r].hi) into the
// rows' spans over one compact arena, in place, and returns the total.
// The sum runs in int: past 2³¹−1 entries an int32 offset would wrap
// into a plausible, wrong matrix, so the result is refused by panic
// before it is allocated, and the server's recover chain answers 500.
func spanOffsets(rows []span, what string) int {
	total := 0
	for r, sp := range rows {
		rows[r] = span{int32(total), int32(total + int(sp.hi))}
		total += int(sp.hi)
	}
	if total > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: %s has %d entries, beyond int32 spans", what, total))
	}
	return total
}

// Boolean returns the boolean collapse of m, the commuting matrix of
// the skip operation ⌈⌈p⌋⌋: each truthy entry maps through Collapse
// (an integer count becomes 1), everything else is dropped.
func (m *GMatrix[T, R]) Boolean() *GMatrix[T, R] {
	var ring R
	return mapEntries[T, R, T, R](m, func(v T) (T, bool) { return ring.Collapse(v), ring.Truthy(v) })
}

// DiagMulBool returns diag{ m · (mᵀ > 0) } computed directly as the
// per-row sum of truthy entries: the diagonal matrix whose (u,u) entry
// counts instances of the nested pattern [p] at node u (paper §4.3,
// M_{[p]}).
func (m *GMatrix[T, R]) DiagMulBool() *GMatrix[T, R] {
	var ring R
	populated := 0 // populated rows of m bound the diagonal's entries
	for _, sps := range m.spans(0, m.nrows) {
		for _, sp := range sps {
			if sp.lo < sp.hi {
				populated++
			}
		}
	}
	d := &GMatrix[T, R]{
		n:      m.n,
		colIdx: make([]int32, 0, populated),
		val:    make([]T, 0, populated),
	}
	rows := d.flatSpans(m.nrows)
	for base, sps := range m.spans(0, m.nrows) {
		for i, sp := range sps {
			r := base + i
			sum := ring.Zero()
			any := false
			for k := sp.lo; k < sp.hi; k++ {
				if ring.Truthy(m.val[k]) {
					sum = ring.Add(sum, m.val[k])
					any = true
				}
			}
			start := int32(len(d.colIdx))
			if any && !ring.IsZero(sum) {
				d.colIdx = append(d.colIdx, int32(r))
				d.val = append(d.val, sum)
			}
			rows[r] = span{start, int32(len(d.colIdx))}
		}
	}
	d.nnz = len(d.colIdx)
	return d
}

// Mul returns the matrix product m·o, the commuting matrix of a
// concatenation p1·p2, using Gustavson's row-by-row SpGEMM at the
// default parallel gate (MulThresh). It panics if dimensions differ.
func (m *GMatrix[T, R]) Mul(o *GMatrix[T, R]) *GMatrix[T, R] {
	return m.MulThresh(o, DefaultThresholds())
}

// MulThresh is Mul with an explicit parallel gate. One row kernel
// computes every product; the gate only decides whether its row ranges
// run on one goroutine or on GOMAXPROCS of them, and the result is
// bit-identical either way. It panics if dimensions differ.
func (m *GMatrix[T, R]) MulThresh(o *GMatrix[T, R], t Thresholds) *GMatrix[T, R] {
	if m.n != o.n {
		panic(fmt.Sprintf("sparse: Mul dimension mismatch %d vs %d", m.n, o.n))
	}
	if m.nnz == 0 {
		return GZero[T, R](m.n)
	}
	workers := 1
	if m.n >= t.MinDim && m.nnz+o.nnz >= t.MinNNZ {
		// GOMAXPROCS, not NumCPU: a server held to one core (or under a
		// CPU quota) must not pay a goroutine and a scratch per host CPU.
		workers = min(runtime.GOMAXPROCS(0), m.n)
	}
	// Two passes over disjoint row ranges with the offsets in between:
	// the symbolic pass leaves each row's distinct-column count in its
	// span, the prefix sum makes the counts spans and sizes the arena
	// exactly, and the numeric pass fills each row's span in place, so
	// no worker buffers a chunk and nothing is copied or regrown.
	p := &GMatrix[T, R]{n: m.n}
	rows := p.flatSpans(m.nrows)
	scratch := make([]*mulScratch[T], workers)
	eachRange(m.nrows, workers, func(w, lo, hi int) {
		scratch[w] = getScratch[T](m.n)
		m.countRows(o, rows, lo, hi, scratch[w])
	})
	p.nnz = spanOffsets(rows, "product")
	p.colIdx, p.val = make([]int32, p.nnz), make([]T, p.nnz)
	eachRange(m.nrows, workers, func(w, lo, hi int) {
		scratch[w].cancelled = m.mulRows(o, p, rows, lo, hi, scratch[w])
	})
	for _, s := range scratch {
		p.nnz -= s.cancelled
		putScratch(s)
	}
	return p
}

// eachRange splits rows [0, n) into one contiguous range per worker and
// runs fn on each, inline for a single worker. It returns when every
// range is done.
func eachRange(n, workers int, fn func(w, lo, hi int)) {
	if workers == 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	per := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w, min(w*per, n), min((w+1)*per, n))
		}()
	}
	wg.Wait()
}

// mulScratch is one worker's O(n) state, never per row and reused from
// product to product. mark[c] is the stamp of the row pass that last
// reached column c: every row of either pass takes a fresh stamp, so
// "first touch" is one comparison that mid-row cancellation cannot fool
// (the accumulator's value is not consulted), nothing is cleared
// between rows or products, and acc[c] means something only while
// mark[c] is the current stamp. All a reused scratch must guarantee is
// mark[c] ≤ stamp, which holds wherever a product stops.
type mulScratch[T any] struct {
	mark      []uint32
	acc       []T
	stamp     uint32
	cancelled int // entries the worker's last numeric pass dropped
}

// scratchPools holds one sync.Pool of *mulScratch[T] per entry type,
// keyed by a nil *T, so a product over one ring never drops the pooled
// scratch of another. getScratch leaves one of a smaller dimension to
// the collector and makes a fresh one, which is what every product paid
// before the pool. A fresh one has an eighth of headroom, so the
// commits that add a node each keep the pool.
var scratchPools sync.Map

// scratchPool returns the pool of T's scratches.
func scratchPool[T any]() *sync.Pool {
	p, ok := scratchPools.Load((*T)(nil))
	if !ok {
		p, _ = scratchPools.LoadOrStore((*T)(nil), new(sync.Pool))
	}
	return p.(*sync.Pool)
}

func getScratch[T any](n int) *mulScratch[T] {
	s, _ := scratchPool[T]().Get().(*mulScratch[T])
	if s == nil || len(s.mark) < n {
		n += n / 8
		return &mulScratch[T]{mark: make([]uint32, n), acc: make([]T, n)}
	}
	// A product takes at most two stamps per row; start over before the
	// counter could wrap onto a stamp some mark still holds.
	if uint64(s.stamp)+2*uint64(n) > math.MaxUint32 {
		clear(s.mark)
		s.stamp = 0
	}
	return s
}

// putScratch returns s to its type's pool. Callers put on the normal
// path only: a panic mid-product abandons the scratch.
func putScratch[T any](s *mulScratch[T]) { scratchPool[T]().Put(s) }

// countRows is the symbolic pass over rows [lo, hi) of m·o: it leaves
// the number of distinct columns row r reaches in counts[r].hi. A row
// of m with no entries costs the comparison that finds it empty, and a
// nil block of m not even that.
func (m *GMatrix[T, R]) countRows(o *GMatrix[T, R], counts []span, lo, hi int, s *mulScratch[T]) {
	oblocks := o.blocks
	for base, sps := range m.spans(lo, hi) {
		for i, sp := range sps {
			if sp.lo == sp.hi {
				continue
			}
			s.stamp++
			var cnt int32
			for _, k := range m.colIdx[sp.lo:sp.hi] {
				osp := rowOf(oblocks, int(k))
				for _, c := range o.colIdx[osp.lo:osp.hi] {
					if s.mark[c] != s.stamp {
						s.mark[c] = s.stamp
						cnt++
					}
				}
			}
			counts[base+i].hi = cnt
		}
	}
}

// mulRows is the numeric pass and the one function that multiplies:
// rows [lo, hi) of m·o by Gustavson's algorithm, written into p's
// arena at the spans rows reserves for them. The row's slice of
// p.colIdx doubles as its touched list — filled in first-touch order,
// sorted in place, then paired with the accumulated values — so a row
// allocates nothing. An entry the ring cancelled to zero (signed
// operands only) is skipped and the row's span ends short of its
// reservation; the slots left over are dead arena, and their number is
// returned.
func (m *GMatrix[T, R]) mulRows(o, p *GMatrix[T, R], rows []span, lo, hi int, s *mulScratch[T]) (cancelled int) {
	var ring R
	oblocks := o.blocks
	for base, sps := range m.spans(lo, hi) {
		for ri, sp := range sps {
			if sp.lo == sp.hi {
				continue
			}
			s.stamp++
			out := &rows[base+ri]
			w := out.lo
			cols := p.colIdx[w:out.hi]
			n := 0
			for i := sp.lo; i < sp.hi; i++ {
				k, mv := m.colIdx[i], m.val[i]
				osp := rowOf(oblocks, int(k))
				for j := osp.lo; j < osp.hi; j++ {
					c, v := o.colIdx[j], ring.MulVia(mv, k, o.val[j])
					if s.mark[c] != s.stamp {
						s.mark[c] = s.stamp
						cols[n] = c
						n++
						s.acc[c] = v
					} else {
						s.acc[c] = ring.Add(s.acc[c], v)
					}
				}
			}
			slices.Sort(cols)
			for _, c := range cols {
				if v := s.acc[c]; !ring.IsZero(v) {
					p.colIdx[w], p.val[w] = c, v
					w++
				}
			}
			cancelled += int(out.hi - w)
			out.hi = w
		}
	}
	return cancelled
}

// equalRows reports whether m and o have the same dimension and, row by
// row, the same columns and (where eq is non-nil) the same values.
func equalRows[T comparable, R Ring[T], U comparable, Q Ring[U]](m *GMatrix[T, R], o *GMatrix[U, Q], eq func(a []T, b []U) bool) bool {
	if m.n != o.n || m.nnz != o.nnz {
		return false
	}
	for r := range max(m.nrows, o.nrows) {
		ms, os := m.row(r), o.row(r)
		if !slices.Equal(m.colIdx[ms.lo:ms.hi], o.colIdx[os.lo:os.hi]) {
			return false
		}
		if eq != nil && !eq(m.val[ms.lo:ms.hi], o.val[os.lo:os.hi]) {
			return false
		}
	}
	return true
}

// Equal reports whether m and o have the same dimension and entries.
// Rows are compared as values, wherever each operand keeps them.
func (m *GMatrix[T, R]) Equal(o *GMatrix[T, R]) bool {
	return equalRows(m, o, slices.Equal[[]T])
}

// SameSupport reports whether m and o have stored entries at exactly
// the same positions, ignoring values.
func SameSupport[T comparable, R Ring[T], U comparable, Q Ring[U]](m *GMatrix[T, R], o *GMatrix[U, Q]) bool {
	return equalRows(m, o, nil)
}

// BooleanClosure returns the reflexive-transitive boolean closure of m:
// entry (u,v) is truthy iff v is reachable from u via zero or more
// m-steps where m is interpreted as a boolean relation. This implements
// the set semantics of Kleene star instances I(p*) collapsed to
// reachability. Its squarings run through Mul.
func (m *GMatrix[T, R]) BooleanClosure() *GMatrix[T, R] {
	return m.BooleanClosureBy((*GMatrix[T, R]).Mul)
}

// BooleanClosureBy is BooleanClosure by repeated squaring, each square
// computed by mul — the caller's product, so its squarings are counted,
// hooked and cancellable like any other. Convergence is detected on the
// support (the set of truthy positions), not on values: boolean-
// collapsed integer matrices carry only ones, so for IntRing this is
// value equality, while annotation rings — whose derivation depths keep
// growing with every squaring — still terminate the moment
// reachability stabilizes.
func (m *GMatrix[T, R]) BooleanClosureBy(mul func(a, b *GMatrix[T, R]) *GMatrix[T, R]) *GMatrix[T, R] {
	cur := GIdentity[T, R](m.n).Add(m.Boolean()).Boolean()
	for {
		next := mul(cur, cur).Boolean()
		if SameSupport(next, cur) {
			return cur
		}
		cur = next
	}
}

// RowSums returns the vector of row sums under the ring.
func (m *GMatrix[T, R]) RowSums() []T {
	var ring R
	s := make([]T, m.n)
	for r := range s {
		s[r] = ring.Zero()
	}
	m.Each(func(r, _ int, v T) { s[r] = ring.Add(s[r], v) })
	return s
}

// String renders small matrices densely for debugging; large matrices
// render as a summary.
func (m *GMatrix[T, R]) String() string {
	if m.n > 16 {
		return fmt.Sprintf("sparse.Matrix{n=%d nnz=%d}", m.n, m.nnz)
	}
	var b strings.Builder
	for r := 0; r < m.n; r++ {
		for c := 0; c < m.n; c++ {
			if c > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%v", m.At(r, c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
