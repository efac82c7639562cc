package sparse

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Generic sparse-row kernel. Every matrix operator is written once here
// against Ring[T]; Matrix (int64) and FloatMatrix (float64) are thin
// defined types over GMatrix instantiations, and the annotated rings
// (CountRing, WitnessRing) reuse the identical code paths. The kernels
// keep every row canonical — columns ascending, no explicit ring zeros
// — so equal values have equal rows. Equality is per row, never of the
// backing arrays: a row lives wherever its span points in an entry
// arena that successive versions of a matrix share, and an arena may
// hold rows no version reads any more. Per-row equality (Equal) is what
// the delta-maintenance differential harness asserts between a
// maintained matrix and a cold recompute.
//
// A matrix may keep its transpose (Matrix.TransposeCached): Equation-1
// scoring reads the right half of a cut in both orientations, so the
// transpose is built once per matrix version and dropped with it. A
// transpose's spans stop at the last populated column, so a thin half
// costs a thin transpose, and a symmetric matrix is its own.
//
// Semiring-dependent operators are free functions taking the ring
// explicitly (Go methods cannot add type parameters); structurally
// generic ones (Transpose, Grow, accessors) are methods.

// span is one row's half-open range of entries in the arena.
type span struct{ lo, hi int32 }

// GMatrix is an immutable n×n sparse matrix over an arbitrary entry
// type: one span per row into an entry arena (colIdx/val). Rows at and
// past len(rows) are empty, which is what makes Grow free. A kernel
// result owns a compact arena holding exactly its rows; a matrix made
// by withRows shares every untouched row with the version it was made
// from, whose readers keep reading their own spans unchanged. The zero
// value is an empty 0×0 matrix. A GMatrix must not be copied: it holds
// its transpose once Matrix.TransposeCached has built it.
type GMatrix[T any] struct {
	n      int
	nnz    int     // stored entries: the sum of the span lengths
	rows   []span  // len ≤ n
	colIdx []int32 // the arena up to this version's end
	val    []T
	tip    *arenaTip // nil: the arena is never appended to in place
	tr     atomic.Pointer[GMatrix[T]]
}

// arenaTip is shared by the versions of a matrix that live in one
// arena. end is the arena length the newest of them sees: only a
// version whose own end still equals it may append in place, and it
// claims the slots past it by compare-and-swap, so two patches of one
// version never write the same slots.
type arenaTip struct{ end atomic.Int64 }

// row returns the span of row r, empty at and past len(m.rows).
func (m *GMatrix[T]) row(r int) span {
	if r < len(m.rows) {
		return m.rows[r]
	}
	return span{}
}

// Dim returns the dimension n of the n×n matrix.
func (m *GMatrix[T]) Dim() int { return m.n }

// NNZ returns the number of stored entries.
func (m *GMatrix[T]) NNZ() int { return m.nnz }

// Lookup returns the stored entry at (row, col) and whether one exists.
// It is O(log nnz(row)).
func (m *GMatrix[T]) Lookup(row, col int) (T, bool) {
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

// Row calls fn(col, val) for each stored entry in the given row, in
// ascending column order.
func (m *GMatrix[T]) Row(row int, fn func(col int, val T)) {
	sp := m.row(row)
	for i := sp.lo; i < sp.hi; i++ {
		fn(int(m.colIdx[i]), m.val[i])
	}
}

// Each calls fn(row, col, val) for every stored entry in row-major order.
func (m *GMatrix[T]) Each(fn func(row, col int, val T)) {
	for r, sp := range m.rows {
		for i := sp.lo; i < sp.hi; i++ {
			fn(r, int(m.colIdx[i]), m.val[i])
		}
	}
}

// Transpose returns mᵀ by counting sort; it is semiring-free and
// annotation-preserving (vias are contraction indices, not positions).
// Its spans stop at m's last populated column: the transpose of a
// proc×area half holds a span per area, not one per node.
func (m *GMatrix[T]) Transpose() *GMatrix[T] {
	width := 0
	for _, sp := range m.rows {
		if sp.lo < sp.hi {
			width = max(width, int(m.colIdx[sp.hi-1])+1)
		}
	}
	t := &GMatrix[T]{
		n:      m.n,
		nnz:    m.nnz,
		rows:   make([]span, width),
		colIdx: make([]int32, m.nnz),
		val:    make([]T, m.nnz),
	}
	for _, sp := range m.rows {
		for _, c := range m.colIdx[sp.lo:sp.hi] {
			t.rows[c].hi++
		}
	}
	// Each row starts empty at its offset; the fill below advances hi,
	// so the span doubles as the row's write cursor.
	var off int32
	for c, sp := range t.rows {
		t.rows[c] = span{off, off}
		off += sp.hi
	}
	for r, sp := range m.rows {
		for i := sp.lo; i < sp.hi; i++ {
			w := &t.rows[m.colIdx[i]].hi
			t.colIdx[*w] = int32(r)
			t.val[*w] = m.val[i]
			*w++
		}
	}
	return t
}

// Grow returns m embedded in the top-left corner of an n×n matrix. It
// shares the spans and the arena — rows past the old dimension are
// empty by construction — so it costs nothing. The grown matrix starts
// without a transpose. It panics if n is smaller than m's dimension.
func (m *GMatrix[T]) Grow(n int) *GMatrix[T] {
	if n == m.n {
		return m
	}
	if n < m.n {
		panic(fmt.Sprintf("sparse: Grow from %d to smaller %d", m.n, n))
	}
	return &GMatrix[T]{n: n, nnz: m.nnz, rows: m.rows, colIdx: m.colIdx, val: m.val, tip: m.tip}
}

// MulFlops returns the exact number of scalar multiplications m·o
// performs — for every entry (i,k) of m, the length of o's row k — read
// off the two operands' spans in O(nnz(m)) without allocating. It is
// the chain planner's cost of a product. It panics if dimensions differ.
func (m *GMatrix[T]) MulFlops(o *GMatrix[T]) int64 {
	if m.n != o.n {
		panic(fmt.Sprintf("sparse: MulFlops dimension mismatch %d vs %d", m.n, o.n))
	}
	var flops int64
	for _, sp := range m.rows {
		for _, k := range m.colIdx[sp.lo:sp.hi] {
			osp := o.row(int(k))
			flops += int64(osp.hi - osp.lo)
		}
	}
	return flops
}

// withRows returns the n×n matrix (n ≥ m.n) that reads as m except at
// the given rows — ascending, below n — where row rows[i] becomes
// cols/vals[ptr[i]:ptr[i+1]] (canonical; empty empties the row). The
// spans are copied and the replacement rows appended to m's arena, so
// every other row is shared with m. Only the arena's newest version
// may append in place; anything else, an arena out of capacity, or one
// that would be more than a quarter dead is first rewritten compactly
// with an eighth of headroom. cols, vals and ptr are copied out of and
// may be scratch.
func (m *GMatrix[T]) withRows(n int, rows, ptr, cols []int32, vals []T) *GMatrix[T] {
	if len(rows) == 0 {
		return m.Grow(n)
	}
	out := &GMatrix[T]{n: n, nnz: m.nnz + len(cols)}
	out.rows = make([]span, max(len(m.rows), int(rows[len(rows)-1])+1))
	copy(out.rows, m.rows)
	for _, r := range rows {
		sp := out.rows[r]
		out.nnz -= int(sp.hi - sp.lo)
	}
	end := len(m.colIdx)
	grown := end + len(cols)
	if m.tip != nil && grown <= cap(m.colIdx) && (grown-out.nnz)*4 <= grown &&
		m.tip.end.CompareAndSwap(int64(end), int64(grown)) {
		out.colIdx, out.val, out.tip = m.colIdx[:grown], m.val[:grown], m.tip
		copy(out.colIdx[end:], cols)
		copy(out.val[end:], vals)
		for i, r := range rows {
			out.rows[r] = span{int32(end) + ptr[i], int32(end) + ptr[i+1]}
		}
		return out
	}
	room := out.nnz + out.nnz/8
	if room > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: patched matrix has %d entries, beyond int32 spans", out.nnz))
	}
	out.colIdx, out.val = make([]int32, out.nnz, room), make([]T, out.nnz, room)
	out.tip = &arenaTip{}
	out.tip.end.Store(int64(out.nnz))
	w, i := 0, 0
	for r, sp := range out.rows {
		sc, sv := m.colIdx[sp.lo:sp.hi], m.val[sp.lo:sp.hi]
		if i < len(rows) && int(rows[i]) == r {
			sc, sv = cols[ptr[i]:ptr[i+1]], vals[ptr[i]:ptr[i+1]]
			i++
		}
		copy(out.colIdx[w:], sc)
		copy(out.val[w:], sv)
		out.rows[r] = span{int32(w), int32(w + len(sc))}
		w += len(sc)
	}
	return out
}

// GZero returns the n×n all-zero matrix.
func GZero[T any](n int) *GMatrix[T] {
	return &GMatrix[T]{n: n}
}

// GIdentity returns the n×n identity of the ring.
func GIdentity[T any, R Ring[T]](ring R, n int) *GMatrix[T] {
	m := &GMatrix[T]{
		n:      n,
		nnz:    n,
		rows:   make([]span, n),
		colIdx: make([]int32, n),
		val:    make([]T, n),
	}
	one := ring.One()
	for i := 0; i < n; i++ {
		m.rows[i] = span{int32(i), int32(i + 1)}
		m.colIdx[i] = int32(i)
		m.val[i] = one
	}
	return m
}

// GLift maps an integer matrix into the ring entry-wise via Lift,
// dropping entries that lift to zero. This is how base adjacency
// matrices enter an evaluation. At IntRing, where Lift is the identity,
// it returns m itself.
func GLift[T any, R Ring[T]](ring R, m *Matrix) *GMatrix[T] {
	if _, isInt := any(ring).(IntRing); isInt {
		return any(m.gm()).(*GMatrix[T])
	}
	return gMapEntries(m.gm(), func(v int64) (T, bool) {
		l := ring.Lift(v)
		return l, !ring.IsZero(l)
	})
}

// gMapEntries returns the matrix of f's images of m's entries, keeping
// those f reports true for. The output is sized once by m's entries:
// exact unless f drops some (non-positive counts under Boolean or a
// counting Lift).
func gMapEntries[S, T any](m *GMatrix[S], f func(S) (T, bool)) *GMatrix[T] {
	g := &GMatrix[T]{
		n:      m.n,
		rows:   make([]span, len(m.rows)),
		colIdx: make([]int32, 0, m.nnz),
		val:    make([]T, 0, m.nnz),
	}
	for r, sp := range m.rows {
		start := int32(len(g.colIdx))
		for i := sp.lo; i < sp.hi; i++ {
			if v, keep := f(m.val[i]); keep {
				g.colIdx = append(g.colIdx, m.colIdx[i])
				g.val = append(g.val, v)
			}
		}
		g.rows[r] = span{start, int32(len(g.colIdx))}
	}
	g.nnz = len(g.colIdx)
	return g
}

// GAdd returns m ⊕ o element-wise, dropping entries that sum to the
// ring zero. It panics if dimensions differ. The sorted row merge runs
// twice — counting, then filling — so the output is allocated once at
// its exact size, and a row only one operand populates is a copy.
func GAdd[T any, R Ring[T]](ring R, m, o *GMatrix[T]) *GMatrix[T] {
	if m.n != o.n {
		panic(fmt.Sprintf("sparse: Add dimension mismatch %d vs %d", m.n, o.n))
	}
	s := &GMatrix[T]{n: m.n, rows: make([]span, max(len(m.rows), len(o.rows)))}
	for fill := false; ; fill = true {
		for r := range s.rows {
			w := s.rows[r].lo
			if fill && w == s.rows[r].hi {
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
				s.rows[r].hi = cnt + (iEnd - i) + (jEnd - j)
			}
		}
		if fill {
			return s
		}
		s.nnz = spanOffsets(s.rows, "sum")
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

// GBoolean returns the boolean collapse of m: each truthy entry maps
// through Collapse, everything else is dropped.
func GBoolean[T any, R Ring[T]](ring R, m *GMatrix[T]) *GMatrix[T] {
	return gMapEntries(m, func(v T) (T, bool) { return ring.Collapse(v), ring.Truthy(v) })
}

// GDiagMulBool returns diag{ m · (mᵀ > 0) } computed directly as the
// per-row sum of truthy entries (paper §4.3, M_{[p]}).
func GDiagMulBool[T any, R Ring[T]](ring R, m *GMatrix[T]) *GMatrix[T] {
	populated := 0 // populated rows of m bound the diagonal's entries
	for _, sp := range m.rows {
		if sp.lo < sp.hi {
			populated++
		}
	}
	d := &GMatrix[T]{
		n:      m.n,
		rows:   make([]span, len(m.rows)),
		colIdx: make([]int32, 0, populated),
		val:    make([]T, 0, populated),
	}
	for r, sp := range m.rows {
		sum := ring.Zero()
		any := false
		for i := sp.lo; i < sp.hi; i++ {
			if ring.Truthy(m.val[i]) {
				sum = ring.Add(sum, m.val[i])
				any = true
			}
		}
		start := int32(len(d.colIdx))
		if any && !ring.IsZero(sum) {
			d.colIdx = append(d.colIdx, int32(r))
			d.val = append(d.val, sum)
		}
		d.rows[r] = span{start, int32(len(d.colIdx))}
	}
	d.nnz = len(d.colIdx)
	return d
}

// GMulThresh returns the matrix product m·o under the ring. One row
// kernel computes every product; the gate only decides whether its row
// ranges run on one goroutine or on GOMAXPROCS of them, and the result
// is identical either way. It panics if dimensions differ.
func GMulThresh[T any, R Ring[T]](ring R, m, o *GMatrix[T], t Thresholds) *GMatrix[T] {
	if m.n != o.n {
		panic(fmt.Sprintf("sparse: Mul dimension mismatch %d vs %d", m.n, o.n))
	}
	if m.nnz == 0 {
		return GZero[T](m.n)
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
	p := &GMatrix[T]{n: m.n, rows: make([]span, len(m.rows))}
	scratch := make([]*mulScratch[T], workers)
	eachRange(len(m.rows), workers, func(w, lo, hi int) {
		scratch[w] = getScratch[T](m.n)
		gCountRows(m, o, p.rows, lo, hi, scratch[w])
	})
	p.nnz = spanOffsets(p.rows, "product")
	p.colIdx, p.val = make([]int32, p.nnz), make([]T, p.nnz)
	eachRange(len(m.rows), workers, func(w, lo, hi int) {
		scratch[w].cancelled = gMulRows(ring, m, o, p, lo, hi, scratch[w])
	})
	for _, s := range scratch {
		p.nnz -= s.cancelled
		scratchPool.Put(s) // normal path only: a panic above abandons it
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

// scratchPool holds *mulScratch[T] of whichever entry types are being
// multiplied; getScratch leaves one of another type or a smaller
// dimension to the collector and makes a fresh one, which is what every
// product paid before the pool.
var scratchPool sync.Pool

func getScratch[T any](n int) *mulScratch[T] {
	s, _ := scratchPool.Get().(*mulScratch[T])
	if s == nil || len(s.mark) < n {
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

// gCountRows is the symbolic pass over rows [lo, hi) of m·o: it leaves
// the number of distinct columns row r reaches in counts[r].hi. A row
// of m with no entries costs the comparison that finds it empty.
func gCountRows[T any](m, o *GMatrix[T], counts []span, lo, hi int, s *mulScratch[T]) {
	orows := o.rows
	for r := lo; r < hi; r++ {
		sp := m.rows[r]
		if sp.lo == sp.hi {
			continue
		}
		s.stamp++
		var cnt int32
		for _, k := range m.colIdx[sp.lo:sp.hi] {
			if int(k) >= len(orows) {
				continue
			}
			for _, c := range o.colIdx[orows[k].lo:orows[k].hi] {
				if s.mark[c] != s.stamp {
					s.mark[c] = s.stamp
					cnt++
				}
			}
		}
		counts[r].hi = cnt
	}
}

// gMulRows is the numeric pass and the one function that multiplies:
// rows [lo, hi) of m·o by Gustavson's algorithm, written into the spans
// p.rows reserves for them. The row's slice of p.colIdx doubles as its
// touched list — filled in first-touch order, sorted in place, then
// paired with the accumulated values — so a row allocates nothing. An
// entry the ring cancelled to zero (signed operands only) is skipped
// and the row's span ends short of its reservation; the slots left
// over are dead arena, and their number is returned.
func gMulRows[T any, R Ring[T]](ring R, m, o, p *GMatrix[T], lo, hi int, s *mulScratch[T]) (cancelled int) {
	orows := o.rows
	for r := lo; r < hi; r++ {
		sp := m.rows[r]
		if sp.lo == sp.hi {
			continue
		}
		s.stamp++
		w := p.rows[r].lo
		cols := p.colIdx[w:p.rows[r].hi]
		n := 0
		for i := sp.lo; i < sp.hi; i++ {
			k, mv := m.colIdx[i], m.val[i]
			if int(k) >= len(orows) {
				continue
			}
			for j, end := orows[k].lo, orows[k].hi; j < end; j++ {
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
		cancelled += int(p.rows[r].hi - w)
		p.rows[r].hi = w
	}
	return cancelled
}

// gEqualRows reports whether m and o have the same dimension and, row
// by row, the same columns and (where eq is non-nil) the same values.
func gEqualRows[T, U any](m *GMatrix[T], o *GMatrix[U], eq func(a []T, b []U) bool) bool {
	if m.n != o.n || m.nnz != o.nnz {
		return false
	}
	for r := range max(len(m.rows), len(o.rows)) {
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

// SameSupport reports whether m and o have stored entries at exactly
// the same positions, ignoring values.
func SameSupport[T, U any](m *GMatrix[T], o *GMatrix[U]) bool {
	return gEqualRows(m, o, nil)
}

// GBooleanClosure returns the reflexive-transitive boolean closure of m
// by repeated squaring, each square computed by mul — the caller's
// product, so its squarings are counted, hooked and cancellable like
// any other. Convergence is detected on the support (the set of truthy
// positions), not on values: boolean-collapsed integer matrices carry
// only ones, so for IntRing this is value equality, while annotation
// rings — whose derivation depths keep growing with every squaring —
// still terminate the moment reachability stabilizes.
func GBooleanClosure[T any, R Ring[T]](ring R, m *GMatrix[T], mul func(a, b *GMatrix[T]) *GMatrix[T]) *GMatrix[T] {
	cur := GBoolean(ring, GAdd(ring, GIdentity[T](ring, m.n), GBoolean(ring, m)))
	for {
		next := GBoolean(ring, mul(cur, cur))
		if SameSupport(next, cur) {
			return cur
		}
		cur = next
	}
}
