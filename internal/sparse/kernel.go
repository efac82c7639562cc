package sparse

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
)

// Generic CSR kernel. Every matrix operator is written once here
// against Ring[T]; Matrix (int64) and FloatMatrix (float64) are thin
// defined types over GMatrix instantiations, and the annotated rings
// (CountRing, WitnessRing) reuse the identical code paths. The kernels
// preserve the canonical-CSR invariant — rows in order, columns
// ascending, no explicit ring zeros — so equal values always have equal
// bytes, which is what the delta-maintenance and replication
// differential harnesses assert.
//
// Semiring-dependent operators are free functions taking the ring
// explicitly (Go methods cannot add type parameters); structurally
// generic ones (Transpose, Grow, accessors) are methods.

// GMatrix is an immutable n×n sparse matrix over an arbitrary entry
// type in CSR form. The zero value is an empty 0×0 matrix.
type GMatrix[T any] struct {
	n      int
	rowPtr []int32 // length n+1
	colIdx []int32 // length nnz
	val    []T     // length nnz
}

// Dim returns the dimension n of the n×n matrix.
func (m *GMatrix[T]) Dim() int { return m.n }

// NNZ returns the number of stored entries.
func (m *GMatrix[T]) NNZ() int { return len(m.val) }

// Lookup returns the stored entry at (row, col) and whether one exists.
// It is O(log nnz(row)).
func (m *GMatrix[T]) Lookup(row, col int) (T, bool) {
	var zero T
	if row < 0 || row >= m.n || col < 0 || col >= m.n {
		panic(fmt.Sprintf("sparse: Lookup(%d,%d) out of range for n=%d", row, col, m.n))
	}
	lo, hi := int(m.rowPtr[row]), int(m.rowPtr[row+1])
	i := sort.Search(hi-lo, func(k int) bool { return m.colIdx[lo+k] >= int32(col) }) + lo
	if i < hi && m.colIdx[i] == int32(col) {
		return m.val[i], true
	}
	return zero, false
}

// Row calls fn(col, val) for each stored entry in the given row, in
// ascending column order.
func (m *GMatrix[T]) Row(row int, fn func(col int, val T)) {
	for i := m.rowPtr[row]; i < m.rowPtr[row+1]; i++ {
		fn(int(m.colIdx[i]), m.val[i])
	}
}

// Each calls fn(row, col, val) for every stored entry in row-major order.
func (m *GMatrix[T]) Each(fn func(row, col int, val T)) {
	for r := 0; r < m.n; r++ {
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			fn(r, int(m.colIdx[i]), m.val[i])
		}
	}
}

// Transpose returns mᵀ by counting sort; it is semiring-free and
// annotation-preserving (vias are contraction indices, not positions).
func (m *GMatrix[T]) Transpose() *GMatrix[T] {
	t := &GMatrix[T]{
		n:      m.n,
		rowPtr: make([]int32, m.n+1),
		colIdx: make([]int32, len(m.colIdx)),
		val:    make([]T, len(m.val)),
	}
	for _, c := range m.colIdx {
		t.rowPtr[c+1]++
	}
	for r := 0; r < m.n; r++ {
		t.rowPtr[r+1] += t.rowPtr[r]
	}
	next := make([]int32, m.n)
	copy(next, t.rowPtr[:m.n])
	for r := 0; r < m.n; r++ {
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			c := m.colIdx[i]
			t.colIdx[next[c]] = int32(r)
			t.val[next[c]] = m.val[i]
			next[c]++
		}
	}
	return t
}

// Grow returns m embedded in the top-left corner of an n×n matrix,
// sharing the entry arrays. It panics if n is smaller than m's
// dimension.
func (m *GMatrix[T]) Grow(n int) *GMatrix[T] {
	if n == m.n {
		return m
	}
	if n < m.n {
		panic(fmt.Sprintf("sparse: Grow from %d to smaller %d", m.n, n))
	}
	rp := make([]int32, n+1)
	copy(rp, m.rowPtr)
	for r := m.n; r < n; r++ {
		rp[r+1] = rp[m.n]
	}
	return &GMatrix[T]{n: n, rowPtr: rp, colIdx: m.colIdx, val: m.val}
}

// GZero returns the n×n all-zero matrix.
func GZero[T any](n int) *GMatrix[T] {
	return &GMatrix[T]{n: n, rowPtr: make([]int32, n+1)}
}

// GIdentity returns the n×n identity of the ring.
func GIdentity[T any, R Ring[T]](ring R, n int) *GMatrix[T] {
	m := &GMatrix[T]{
		n:      n,
		rowPtr: make([]int32, n+1),
		colIdx: make([]int32, n),
		val:    make([]T, n),
	}
	one := ring.One()
	for i := 0; i < n; i++ {
		m.rowPtr[i+1] = int32(i + 1)
		m.colIdx[i] = int32(i)
		m.val[i] = one
	}
	return m
}

// GLift maps an integer matrix into the ring entry-wise via Lift,
// dropping entries that lift to zero. This is how base adjacency
// matrices enter an annotated evaluation.
func GLift[T any, R Ring[T]](ring R, m *Matrix) *GMatrix[T] {
	return gMapEntries(m.gm(), func(v int64) (T, bool) {
		l := ring.Lift(v)
		return l, !ring.IsZero(l)
	})
}

// gMapEntries returns the matrix of f's images of m's entries, keeping
// those f reports true for. The output is sized once by m's entries:
// exact unless f drops some (the negatives of a signed delta under
// Boolean or a counting Lift).
func gMapEntries[S, T any](m *GMatrix[S], f func(S) (T, bool)) *GMatrix[T] {
	g := &GMatrix[T]{
		n:      m.n,
		rowPtr: make([]int32, m.n+1),
		colIdx: make([]int32, 0, len(m.val)),
		val:    make([]T, 0, len(m.val)),
	}
	for r := 0; r < m.n; r++ {
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			if v, keep := f(m.val[i]); keep {
				g.colIdx = append(g.colIdx, m.colIdx[i])
				g.val = append(g.val, v)
			}
		}
		g.rowPtr[r+1] = int32(len(g.colIdx))
	}
	return g
}

// GAdd returns m ⊕ o element-wise, dropping entries that sum to the
// ring zero. It panics if dimensions differ.
func GAdd[T any, R Ring[T]](ring R, m, o *GMatrix[T]) *GMatrix[T] {
	return gMerge(ring, "Add", m, o, ring.Add, func(b T) T { return b })
}

// GSub returns m − o element-wise for subtractive rings. Entries that
// cancel exactly are dropped, never stored as explicit zeros. It panics
// if dimensions differ.
func GSub[T any, R Subtractive[T]](ring R, m, o *GMatrix[T]) *GMatrix[T] {
	zero := ring.Zero()
	return gMerge(ring, "Sub", m, o, ring.Sub, func(b T) T { return ring.Sub(zero, b) })
}

// gMerge is the sorted row merge behind GAdd and GSub: an entry only m
// holds passes through, one only o holds maps through right, a position
// both hold combines through both and is dropped if that is the ring
// zero. The loop runs twice — counting, then filling — so the output is
// allocated once at its exact size however much of new − old cancels,
// and a row only one operand populates (all but a handful of old ⊕
// delta) is a copy.
func gMerge[T any, R Ring[T]](ring R, op string, m, o *GMatrix[T], both func(a, b T) T, right func(b T) T) *GMatrix[T] {
	if m.n != o.n {
		panic(fmt.Sprintf("sparse: %s dimension mismatch %d vs %d", op, m.n, o.n))
	}
	s := &GMatrix[T]{n: m.n, rowPtr: make([]int32, m.n+1)}
	for fill := false; ; fill = true {
		w := 0
		for r := 0; r < m.n; r++ {
			if fill && s.rowPtr[r] == s.rowPtr[r+1] {
				continue // nothing of this row survived the count
			}
			i, iEnd := m.rowPtr[r], m.rowPtr[r+1]
			j, jEnd := o.rowPtr[r], o.rowPtr[r+1]
			start := w
			for i < iEnd && j < jEnd {
				c, v := m.colIdx[i], m.val[i]
				switch oc := o.colIdx[j]; {
				case c < oc:
					i++
				case oc < c:
					c, v = oc, right(o.val[j])
					j++
				default:
					v = both(v, o.val[j])
					i++
					j++
					if ring.IsZero(v) {
						continue
					}
				}
				if fill {
					s.colIdx[w], s.val[w] = c, v
				}
				w++
			}
			if fill {
				copy(s.colIdx[w:], m.colIdx[i:iEnd])
				copy(s.val[w:], m.val[i:iEnd])
				copy(s.colIdx[w:], o.colIdx[j:jEnd])
				for t, v := range o.val[j:jEnd] {
					s.val[w+t] = right(v)
				}
			}
			w += int(iEnd-i) + int(jEnd-j) // at most one tail is non-empty
			if !fill {
				s.rowPtr[r+1] = int32(w - start)
			}
		}
		if fill {
			return s
		}
		total := csrOffsets(s.rowPtr, op)
		s.colIdx, s.val = make([]int32, total), make([]T, total)
	}
}

// csrOffsets turns per-row entry counts (counts[r+1] = entries of row r)
// into CSR offsets in place and returns the total. The sum runs in int:
// past 2³¹−1 entries an int32 offset would wrap into a plausible, wrong
// matrix, so the result is refused by panic before it is allocated, and
// the server's recover chain answers 500.
func csrOffsets(counts []int32, what string) int {
	total := 0
	for r := 1; r < len(counts); r++ {
		total += int(counts[r])
		counts[r] = int32(total)
	}
	if total > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: %s has %d entries, beyond int32 CSR offsets", what, total))
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
	rows := 0 // populated rows of m bound the diagonal's entries
	for r := 0; r < m.n; r++ {
		if m.rowPtr[r] < m.rowPtr[r+1] {
			rows++
		}
	}
	d := &GMatrix[T]{
		n:      m.n,
		rowPtr: make([]int32, m.n+1),
		colIdx: make([]int32, 0, rows),
		val:    make([]T, 0, rows),
	}
	for r := 0; r < m.n; r++ {
		sum := ring.Zero()
		any := false
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			if ring.Truthy(m.val[i]) {
				sum = ring.Add(sum, m.val[i])
				any = true
			}
		}
		if any && !ring.IsZero(sum) {
			d.colIdx = append(d.colIdx, int32(r))
			d.val = append(d.val, sum)
		}
		d.rowPtr[r+1] = int32(len(d.colIdx))
	}
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
	if len(m.val) == 0 {
		return GZero[T](m.n)
	}
	workers := 1
	if m.n >= t.MinDim && len(m.val)+len(o.val) >= t.MinNNZ {
		// GOMAXPROCS, not NumCPU: a server held to one core (or under a
		// CPU quota) must not pay a goroutine and a scratch per host CPU.
		workers = min(runtime.GOMAXPROCS(0), m.n)
	}
	// Two passes over disjoint row ranges with the offsets in between:
	// the symbolic pass leaves each row's distinct-column count in
	// p.rowPtr, the prefix sum makes them offsets and sizes the entry
	// arrays exactly, and the numeric pass fills them in place, so no
	// worker buffers a chunk and nothing is copied or regrown.
	p := &GMatrix[T]{n: m.n, rowPtr: make([]int32, m.n+1)}
	scratch := make([]*mulScratch[T], workers)
	eachRange(m.n, workers, func(w, lo, hi int) {
		scratch[w] = getScratch[T](m.n)
		gCountRows(m, o, p.rowPtr, lo, hi, scratch[w])
	})
	total := csrOffsets(p.rowPtr, "product")
	p.colIdx, p.val = make([]int32, total), make([]T, total)
	eachRange(m.n, workers, func(w, lo, hi int) {
		gMulRows(ring, m, o, p, lo, hi, scratch[w])
	})
	for _, s := range scratch {
		scratchPool.Put(s) // normal path only: a panic above abandons it
	}
	if slices.Contains(p.colIdx, -1) {
		p.compact()
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
	mark  []uint32
	acc   []T
	stamp uint32
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

// gCountRows is the symbolic pass over rows [lo, hi) of m·o: it stores
// the number of distinct columns row r reaches in counts[r+1]. A row of
// m with no entries costs the comparison that finds it empty.
func gCountRows[T any](m, o *GMatrix[T], counts []int32, lo, hi int, s *mulScratch[T]) {
	for r := lo; r < hi; r++ {
		i, end := m.rowPtr[r], m.rowPtr[r+1]
		if i == end {
			continue
		}
		s.stamp++
		var cnt int32
		for ; i < end; i++ {
			k := m.colIdx[i]
			for _, c := range o.colIdx[o.rowPtr[k]:o.rowPtr[k+1]] {
				if s.mark[c] != s.stamp {
					s.mark[c] = s.stamp
					cnt++
				}
			}
		}
		counts[r+1] = cnt
	}
}

// gMulRows is the numeric pass and the one function that multiplies:
// rows [lo, hi) of m·o by Gustavson's algorithm, written into the slots
// p.rowPtr reserves for them. The row's slice of p.colIdx doubles as
// its touched list — filled in first-touch order, sorted in place, then
// paired with the accumulated values — so a row allocates nothing. An
// entry the ring cancelled to zero (signed deltas only) is skipped and
// the row's unused tail flagged with column −1 for compact to close.
func gMulRows[T any, R Ring[T]](ring R, m, o, p *GMatrix[T], lo, hi int, s *mulScratch[T]) {
	for r := lo; r < hi; r++ {
		i, end := m.rowPtr[r], m.rowPtr[r+1]
		if i == end {
			continue
		}
		s.stamp++
		w := p.rowPtr[r]
		cols := p.colIdx[w:p.rowPtr[r+1]]
		n := 0
		for ; i < end; i++ {
			k, mv := m.colIdx[i], m.val[i]
			for j := o.rowPtr[k]; j < o.rowPtr[k+1]; j++ {
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
		if w < p.rowPtr[r+1] {
			p.colIdx[w] = -1
		}
	}
}

// compact closes the gaps gMulRows left in rows that lost entries to
// cancellation: each row's entries up to its −1 marker slide down over
// the slack and the offsets follow. The arrays keep their allocation.
func (p *GMatrix[T]) compact() {
	var w int32
	for r := 0; r < p.n; r++ {
		i, end := p.rowPtr[r], p.rowPtr[r+1]
		p.rowPtr[r] = w
		for ; i < end && p.colIdx[i] >= 0; i++ {
			p.colIdx[w], p.val[w] = p.colIdx[i], p.val[i]
			w++
		}
	}
	p.rowPtr[p.n] = w
	p.colIdx, p.val = p.colIdx[:w], p.val[:w]
}

// GIdentityRange returns the n×n matrix with ring ones on the diagonal
// at rows [lo, hi) and zeros elsewhere. It panics on an invalid range.
func GIdentityRange[T any, R Ring[T]](ring R, n, lo, hi int) *GMatrix[T] {
	if lo < 0 || hi < lo || hi > n {
		panic(fmt.Sprintf("sparse: IdentityRange [%d,%d) out of range for n=%d", lo, hi, n))
	}
	m := &GMatrix[T]{
		n:      n,
		rowPtr: make([]int32, n+1),
		colIdx: make([]int32, hi-lo),
		val:    make([]T, hi-lo),
	}
	one := ring.One()
	for r := lo; r < hi; r++ {
		m.colIdx[r-lo] = int32(r)
		m.val[r-lo] = one
		m.rowPtr[r+1] = int32(r - lo + 1)
	}
	for r := hi; r < n; r++ {
		m.rowPtr[r+1] = m.rowPtr[hi]
	}
	return m
}

// SameSupport reports whether m and o have stored entries at exactly
// the same positions, ignoring values.
func SameSupport[T, U any](m *GMatrix[T], o *GMatrix[U]) bool {
	if m.n != o.n || len(m.colIdx) != len(o.colIdx) {
		return false
	}
	for i := range m.rowPtr {
		if m.rowPtr[i] != o.rowPtr[i] {
			return false
		}
	}
	for i := range m.colIdx {
		if m.colIdx[i] != o.colIdx[i] {
			return false
		}
	}
	return true
}

// GBooleanClosure returns the reflexive-transitive boolean closure of m
// by repeated squaring. Convergence is detected on the support (the set
// of truthy positions), not on values: boolean-collapsed integer
// matrices carry only ones, so for IntRing this is exactly the old
// value-equality test, while annotation rings — whose derivation depths
// keep growing with every squaring — still terminate the moment
// reachability stabilizes.
func GBooleanClosure[T any, R Ring[T]](ring R, m *GMatrix[T], t Thresholds) *GMatrix[T] {
	cur := GBoolean(ring, GAdd(ring, GIdentity[T](ring, m.n), GBoolean(ring, m)))
	for {
		next := GBoolean(ring, GMulThresh(ring, cur, cur, t))
		if SameSupport(next, cur) {
			return cur
		}
		cur = next
	}
}
