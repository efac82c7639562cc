package sparse

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"testing"
)

// Differential harness for the semiring refactor: frozenMatrix is a
// verbatim copy of the pre-refactor int64-only kernel (serial
// Gustavson, merge add/sub, boolean collapse, diag, transpose,
// closure). The tests below drive the generic kernel instantiated at
// IntRing against it on randomized inputs — including negative entries,
// cancellation, delta-shaped operands and the parallel gate — and
// require the CSR arrays to be byte-identical, not merely Equal. The
// kernel's rows live behind spans in an arena; csrOf expands them into
// the dense-offset CSR the frozen kernel speaks, so what is compared is
// every offset, column and value a reader can see.

type frozenMatrix struct {
	n      int
	rowPtr []int32
	colIdx []int32
	val    []int64
}

// frozenFrom is the CSR expansion of m: its rows, in order, laid out
// back to back under n+1 offsets.
func frozenFrom(m *Matrix) *frozenMatrix {
	f := &frozenMatrix{n: m.n, rowPtr: make([]int32, m.n+1), colIdx: []int32{}, val: []int64{}}
	for r := 0; r < m.n; r++ {
		cols, vals := m.RowView(r)
		f.colIdx = append(f.colIdx, cols...)
		f.val = append(f.val, vals...)
		f.rowPtr[r+1] = int32(len(f.colIdx))
	}
	return f
}

func frozenIdentity(n int) *frozenMatrix {
	m := &frozenMatrix{
		n:      n,
		rowPtr: make([]int32, n+1),
		colIdx: make([]int32, n),
		val:    make([]int64, n),
	}
	for i := 0; i < n; i++ {
		m.rowPtr[i+1] = int32(i + 1)
		m.colIdx[i] = int32(i)
		m.val[i] = 1
	}
	return m
}

func (m *frozenMatrix) mul(o *frozenMatrix) *frozenMatrix {
	p := &frozenMatrix{n: m.n, rowPtr: make([]int32, m.n+1)}
	acc := make([]int64, m.n)
	touched := make([]int32, 0, 64)
	for r := 0; r < m.n; r++ {
		touched = touched[:0]
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			k := m.colIdx[i]
			mv := m.val[i]
			for j := o.rowPtr[k]; j < o.rowPtr[k+1]; j++ {
				c := o.colIdx[j]
				if acc[c] == 0 {
					touched = append(touched, c)
				}
				acc[c] += mv * o.val[j]
			}
		}
		sort.Slice(touched, func(a, b int) bool { return touched[a] < touched[b] })
		for _, c := range touched {
			if acc[c] != 0 {
				p.colIdx = append(p.colIdx, c)
				p.val = append(p.val, acc[c])
			}
			acc[c] = 0
		}
		p.rowPtr[r+1] = int32(len(p.colIdx))
	}
	return p
}

func (m *frozenMatrix) merge(o *frozenMatrix, sign int64) *frozenMatrix {
	s := &frozenMatrix{n: m.n, rowPtr: make([]int32, m.n+1)}
	for r := 0; r < m.n; r++ {
		i, iEnd := m.rowPtr[r], m.rowPtr[r+1]
		j, jEnd := o.rowPtr[r], o.rowPtr[r+1]
		for i < iEnd || j < jEnd {
			switch {
			case j >= jEnd || (i < iEnd && m.colIdx[i] < o.colIdx[j]):
				s.colIdx = append(s.colIdx, m.colIdx[i])
				s.val = append(s.val, m.val[i])
				i++
			case i >= iEnd || o.colIdx[j] < m.colIdx[i]:
				s.colIdx = append(s.colIdx, o.colIdx[j])
				s.val = append(s.val, sign*o.val[j])
				j++
			default:
				if v := m.val[i] + sign*o.val[j]; v != 0 {
					s.colIdx = append(s.colIdx, m.colIdx[i])
					s.val = append(s.val, v)
				}
				i++
				j++
			}
		}
		s.rowPtr[r+1] = int32(len(s.colIdx))
	}
	return s
}

func (m *frozenMatrix) boolean() *frozenMatrix {
	b := &frozenMatrix{n: m.n, rowPtr: make([]int32, m.n+1)}
	for r := 0; r < m.n; r++ {
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			if m.val[i] > 0 {
				b.colIdx = append(b.colIdx, m.colIdx[i])
				b.val = append(b.val, 1)
			}
		}
		b.rowPtr[r+1] = int32(len(b.colIdx))
	}
	return b
}

func (m *frozenMatrix) diagMulBool() *frozenMatrix {
	d := &frozenMatrix{n: m.n, rowPtr: make([]int32, m.n+1)}
	for r := 0; r < m.n; r++ {
		var sum int64
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			if m.val[i] > 0 {
				sum += m.val[i]
			}
		}
		if sum != 0 {
			d.colIdx = append(d.colIdx, int32(r))
			d.val = append(d.val, sum)
		}
		d.rowPtr[r+1] = int32(len(d.colIdx))
	}
	return d
}

func (m *frozenMatrix) transpose() *frozenMatrix {
	t := &frozenMatrix{
		n:      m.n,
		rowPtr: make([]int32, m.n+1),
		colIdx: make([]int32, len(m.colIdx)),
		val:    make([]int64, len(m.val)),
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

func (m *frozenMatrix) equalFrozen(o *frozenMatrix) bool {
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

func (m *frozenMatrix) closure() *frozenMatrix {
	cur := frozenIdentity(m.n).merge(m.boolean(), 1).boolean()
	for {
		next := cur.mul(cur).boolean()
		if next.equalFrozen(cur) {
			return cur
		}
		cur = next
	}
}

// byteIdentical asserts the generic-kernel result has exactly the same
// CSR arrays as the frozen-kernel result.
func byteIdentical(t *testing.T, op string, m *Matrix, want *frozenMatrix) {
	t.Helper()
	got := frozenFrom(m)
	if m.NNZ() != len(got.val) {
		t.Fatalf("%s: NNZ() = %d, rows hold %d entries", op, m.NNZ(), len(got.val))
	}
	if got.n != want.n || len(got.rowPtr) != len(want.rowPtr) ||
		len(got.colIdx) != len(want.colIdx) || len(got.val) != len(want.val) {
		t.Fatalf("%s: shape mismatch: got n=%d nnz=%d, want n=%d nnz=%d",
			op, got.n, len(got.val), want.n, len(want.val))
	}
	for i := range want.rowPtr {
		if got.rowPtr[i] != want.rowPtr[i] {
			t.Fatalf("%s: rowPtr[%d] = %d, want %d", op, i, got.rowPtr[i], want.rowPtr[i])
		}
	}
	for i := range want.val {
		if got.colIdx[i] != want.colIdx[i] || got.val[i] != want.val[i] {
			t.Fatalf("%s: entry %d = (%d,%d), want (%d,%d)",
				op, i, got.colIdx[i], got.val[i], want.colIdx[i], want.val[i])
		}
	}
}

func randSigned(rng *rand.Rand, n, nnz int) *Matrix {
	tr := make([]Triple, 0, nnz)
	for i := 0; i < nnz; i++ {
		v := rng.Int63n(7) - 3 // negatives included: deltas cancel
		if v == 0 {
			v = 1
		}
		tr = append(tr, Triple{Row: rng.Intn(n), Col: rng.Intn(n), Val: v})
	}
	return New(n, tr)
}

// TestGenericIntKernelByteIdenticalToFrozen drives every operator the
// evaluator uses through both kernels across many shapes, including
// delta-shaped left operands and ones that trip the parallel gate.
func TestGenericIntKernelByteIdenticalToFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 500; iter++ {
		n := 2 + rng.Intn(40)
		a := randSigned(rng, n, rng.Intn(4*n)+1)
		b := randSigned(rng, n, rng.Intn(4*n)+1)
		fa, fb := frozenFrom(a), frozenFrom(b)

		byteIdentical(t, "mul", a.Mul(b), fa.mul(fb))
		byteIdentical(t, "add", a.Add(b), fa.merge(fb, 1))
		byteIdentical(t, "sub", Patch(a, DeltaOf(Zero(n), b)), fa.merge(fb, -1))
		byteIdentical(t, "boolean", a.Boolean(), fa.boolean())
		byteIdentical(t, "diag", a.DiagMulBool(), fa.diagMulBool())
		byteIdentical(t, "transpose", a.Transpose(), fa.transpose())
		byteIdentical(t, "closure", a.BooleanClosure(), fa.closure())
	}

	// Ultra-sparse left operand on a large dimension: nearly every row
	// is skipped; a forced zero gate runs the row ranges in parallel.
	for iter := 0; iter < 50; iter++ {
		n := 800 + rng.Intn(400)
		d := randSigned(rng, n, rng.Intn(8)+1)
		b := randSigned(rng, n, 6*n)
		fd, fb := frozenFrom(d), frozenFrom(b)
		byteIdentical(t, "fewrows-mul", d.Mul(b), fd.mul(fb))
		byteIdentical(t, "parallel-mul",
			b.MulThresh(b, Thresholds{MinDim: 0, MinNNZ: 0}), fb.mul(fb))
	}
}

// TestGenericIdentityConstructorsMatchFrozen pins the constructors the
// cache and delta paths rely on.
func TestGenericIdentityConstructorsMatchFrozen(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64} {
		byteIdentical(t, "identity", Identity(n), frozenIdentity(n))
	}
	z := Zero(9)
	if z.NNZ() != 0 || z.Dim() != 9 {
		t.Fatalf("Zero(9) = nnz %d dim %d", z.NNZ(), z.Dim())
	}
}

// keepRows returns m with every row for which keep is false emptied.
func keepRows(m *Matrix, keep func(r int) bool) *Matrix {
	var ts []Triple
	m.Each(func(r, c int, v int64) {
		if keep(r) {
			ts = append(ts, Triple{Row: r, Col: c, Val: v})
		}
	})
	return New(m.n, ts)
}

// TestRowKernelShapesMatchFrozen drives the row kernel through the
// shapes its bookkeeping branches on — rows that reach more than half
// the columns, left operands whose first, last or alternate rows are
// empty or that keep a single row, single-entry rows, and a product
// whose every entry cancels — gated, forced serial and forced
// parallel, byte for byte against the frozen kernel; then the same
// shapes through CountRing and WitnessRing, serial against parallel.
func TestRowKernelShapesMatchFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	type shape struct {
		name string
		a, b *Matrix
	}
	for iter := 0; iter < 40; iter++ {
		n := 16 + rng.Intn(48)
		wide, b := randSigned(rng, n, 6*n), randSigned(rng, n, 12*n)
		last := n - 1
		// Rows 0 and 1 of the right operand equal, every left row +1 and
		// −1 on them: each entry of the product is reached and cancels.
		var ca, cb []Triple
		for r := 0; r < n; r++ {
			ca = append(ca, Triple{Row: r, Col: 0, Val: 1}, Triple{Row: r, Col: 1, Val: -1})
			c, v := rng.Intn(n), rng.Int63n(5)+1
			cb = append(cb, Triple{Row: 0, Col: c, Val: v}, Triple{Row: 1, Col: c, Val: v})
		}
		shapes := []shape{
			{"wide rows", wide, b},
			{"first row empty", keepRows(wide, func(r int) bool { return r != 0 }), b},
			{"last row empty", keepRows(wide, func(r int) bool { return r != last }), b},
			{"alternate rows empty", keepRows(wide, func(r int) bool { return r%2 == 1 }), b},
			{"one row", keepRows(wide, func(r int) bool { return r == n/2 }), b},
			{"single-entry rows", randSigned(rng, n, n/2), b},
			{"empty right rows", wide, keepRows(b, func(r int) bool { return r%3 == 0 })},
			{"all cancel", New(n, ca), New(n, cb)},
		}
		for _, s := range shapes {
			want := frozenFrom(s.a).mul(frozenFrom(s.b))
			byteIdentical(t, s.name+"/gated", s.a.Mul(s.b), want)
			byteIdentical(t, s.name+"/serial", s.a.MulThresh(s.b, forceSerial), want)
			byteIdentical(t, s.name+"/parallel", s.a.MulThresh(s.b, forceParallel), want)

			ca, cb := Lift[int64, CountRing](s.a), Lift[int64, CountRing](s.b)
			if !ca.MulThresh(cb, forceSerial).Equal(ca.MulThresh(cb, forceParallel)) {
				t.Fatalf("%s: CountRing serial and parallel products differ", s.name)
			}
			wa, wb := Lift[Witness, WitnessRing](s.a), Lift[Witness, WitnessRing](s.b)
			if !wa.MulThresh(wb, forceSerial).Equal(wa.MulThresh(wb, forceParallel)) {
				t.Fatalf("%s: WitnessRing serial and parallel products differ", s.name)
			}
		}
		if p := New(n, ca).Mul(New(n, cb)); p.NNZ() != 0 {
			t.Fatalf("all-cancel product kept %d entries", p.NNZ())
		}
	}
}

// TestMulHonorsGOMAXPROCS: the parallel entry sizes its worker set from
// GOMAXPROCS (1 = the caller's goroutine alone, 3 = uneven ranges on a
// box with fewer CPUs), and the CSR arrays stay those of the frozen
// kernel whatever the setting.
func TestMulHonorsGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a, b := randSigned(rng, 700, 5000), randSigned(rng, 700, 5000)
	thin := keepRows(a, func(r int) bool { return r > 650 })
	for _, procs := range []int{1, 3} {
		prev := runtime.GOMAXPROCS(procs)
		byteIdentical(t, "mul", a.MulThresh(b, forceParallel), frozenFrom(a).mul(frozenFrom(b)))
		byteIdentical(t, "thin mul", thin.MulThresh(b, forceParallel), frozenFrom(thin).mul(frozenFrom(b)))
		runtime.GOMAXPROCS(prev)
	}
}

// TestCSROffsetsRefuseInt32Overflow checks the guard every exact-size
// pass runs before it allocates, on synthetic row widths: three rows of
// 2³⁰ entries do not fit int32 offsets and must panic naming the size,
// not wrap.
func TestCSROffsetsRefuseInt32Overflow(t *testing.T) {
	fits := []span{{hi: 1 << 30}, {hi: 1<<30 - 1}, {}}
	if total := spanOffsets(fits, "product"); total != math.MaxInt32 || fits[2] != (span{math.MaxInt32, math.MaxInt32}) || fits[1].lo != 1<<30 {
		t.Fatalf("spanOffsets = %d, spans %v", total, fits)
	}
	defer func() {
		want := "sparse: product has 3221225472 entries, beyond int32 spans"
		if got := recover(); got != want {
			t.Fatalf("panic = %v, want %q", got, want)
		}
	}()
	spanOffsets([]span{{hi: 1 << 30}, {hi: 1 << 30}, {hi: 1 << 30}}, "product")
}

// TestScratchStampWrapStartsOver: a reused scratch whose stamp counter
// could wrap within the next product is cleared before use, so a stamp
// issued again can never match a mark an earlier product left.
func TestScratchStampWrapStartsOver(t *testing.T) {
	const n = 64
	stale := &mulScratch[int64]{mark: make([]uint32, n), acc: make([]int64, n), stamp: math.MaxUint32 - n}
	for c := range stale.mark {
		stale.mark[c] = uint32(c + 1)
	}
	for scratchPool[int64]().Get() != nil { // drain, so the next Get sees the plant
	}
	putScratch(stale)
	s := getScratch[int64](n)
	if s != stale {
		t.Skip("the pool did not hand back the planted scratch")
	}
	if s.stamp != 0 || slices.Max(s.mark) != 0 {
		t.Fatalf("scratch near wrap reused as is: stamp %d, max mark %d", s.stamp, slices.Max(s.mark))
	}
}

// TestScratchPoolSurvivesGrowth: a fresh scratch has an eighth of
// headroom, so the product after a commit that added a node reuses the
// pooled one instead of dropping it for one a node larger. GOMAXPROCS
// 1 and the collector off make the pool hand back what was put.
func TestScratchPoolSurvivesGrowth(t *testing.T) {
	skipUnderRace(t) // the race detector also drops pooled items at random
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for scratchPool[int64]().Get() != nil {
	}
	const n = 1000
	s := getScratch[int64](n)
	putScratch(s)
	if got := getScratch[int64](n + 1); got != s {
		t.Fatalf("getScratch(%d) after a scratch for %d went back: a fresh one of %d", n+1, n, len(got.mark))
	}
}

// skipUnderRace skips allocation-count tests when the race detector is
// compiled in: its instrumentation allocates.
func skipUnderRace(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are inflated by the race detector")
			}
		}
	}
}

// TestMulAllocationsConstant is the gate on "a product costs what it
// multiplies": allocations per Mul are a small constant plus a
// per-worker term, whatever the dimension and however many rows the
// left operand populates. The kernels this replaced allocated once per
// row (20,000 here) on every shape but the delta's.
func TestMulAllocationsConstant(t *testing.T) {
	skipUnderRace(t)
	rng := rand.New(rand.NewSource(23))
	big := randomMatrix(rng, shapedDim, 8*shapedDim)
	limit := float64(16 + 8*runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		name string
		left *Matrix
	}{{"8n entries a side", big}, {"delta-shaped", deltaShaped()}, {"headline-shaped", headlineShaped(rng)}} {
		got := testing.AllocsPerRun(3, func() { c.left.Mul(big) })
		t.Logf("%s: %.0f allocations per Mul", c.name, got)
		if got > limit {
			t.Errorf("%s: %.0f allocations per Mul, want at most %.0f", c.name, got, limit)
		}
	}
	// GOMAXPROCS=1 must mean no goroutines and one scratch: the parallel
	// entry then allocates exactly what the serial one does.
	// A collection empties scratchPool, and the run after it pays for a
	// fresh scratch; when one lands depends on the machine's load, so each
	// entry is measured from a collected heap with the collector held off.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocs := func(th Thresholds) float64 {
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(3, func() { big.MulThresh(big, th) })
	}
	serial := allocs(forceSerial)
	if got := allocs(forceParallel); got != serial {
		t.Errorf("GOMAXPROCS=1: parallel entry allocates %.0f times, serial %.0f", got, serial)
	}
}
