package sparse

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// Delta operations against the dense reference. Every check goes
// through checkDelta (canonical form + values) or checkMatrix (row walk
// + stored count + values), so an op that leaves an empty row, an
// explicit zero or a stale NNZ fails even when its values are right.

func randDelta(rng *rand.Rand, n, k int) *Delta {
	ts := make([]Triple, k)
	for i := range ts {
		ts[i] = Triple{Row: rng.Intn(n), Col: rng.Intn(n), Val: rng.Int63n(7) - 3}
	}
	return NewDelta(n, ts)
}

// denseAt expands m (any dimension ≤ n) or d to an n×n dense matrix.
func denseAt(n int, each func(func(r, c int, v int64))) [][]int64 {
	out := make([][]int64, n)
	for i := range out {
		out[i] = make([]int64, n)
	}
	each(func(r, c int, v int64) { out[r][c] += v })
	return out
}

func denseMul(a, b [][]int64) [][]int64 {
	n := len(a)
	out := make([][]int64, n)
	for i := range out {
		out[i] = make([]int64, n)
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				out[i][j] += a[i][k] * b[k][j]
			}
		}
	}
	return out
}

func denseCombine(a, b [][]int64, f func(x, y int64) int64) [][]int64 {
	out := make([][]int64, len(a))
	for i := range a {
		out[i] = make([]int64, len(a))
		for j := range a[i] {
			out[i][j] = f(a[i][j], b[i][j])
		}
	}
	return out
}

// checkDelta asserts d is canonical — populated rows ascending and
// non-empty, columns ascending, no zeros — and holds exactly want.
func checkDelta(t *testing.T, what string, d *Delta, want [][]int64) {
	t.Helper()
	if d.Dim() != len(want) {
		t.Fatalf("%s: dim %d, want %d", what, d.Dim(), len(want))
	}
	if !slices.IsSorted(d.rows) || len(slices.Compact(slices.Clone(d.rows))) != len(d.rows) {
		t.Fatalf("%s: rows %v not strictly ascending", what, d.rows)
	}
	for i := range d.rows {
		cols, vals := d.rowAt(i)
		if len(cols) == 0 {
			t.Fatalf("%s: row %d kept though empty", what, d.rows[i])
		}
		if !slices.IsSorted(cols) || len(slices.Compact(slices.Clone(cols))) != len(cols) {
			t.Fatalf("%s: row %d columns %v not strictly ascending", what, d.rows[i], cols)
		}
		if slices.Contains(vals, 0) {
			t.Fatalf("%s: row %d holds an explicit zero", what, d.rows[i])
		}
	}
	got := denseAt(len(want), d.Each)
	nnz := 0
	for r := range want {
		for c, v := range want[r] {
			if got[r][c] != v {
				t.Fatalf("%s: (%d,%d) = %d, want %d", what, r, c, got[r][c], v)
			}
			if v != 0 {
				nnz++
			}
		}
	}
	if d.NNZ() != nnz {
		t.Fatalf("%s: NNZ() = %d, want %d", what, d.NNZ(), nnz)
	}
}

// checkMatrix asserts m Equals the matrix built from want and that its
// stored count matches a walk of its rows.
func checkMatrix(t *testing.T, what string, m *Matrix, want [][]int64) {
	t.Helper()
	walked := 0
	m.Each(func(_, _ int, v int64) {
		walked++
		if v == 0 {
			t.Fatalf("%s: explicit zero stored", what)
		}
	})
	if m.NNZ() != walked {
		t.Fatalf("%s: NNZ() = %d, rows hold %d", what, m.NNZ(), walked)
	}
	if ref := fromDense(want); !m.Equal(ref) || !ref.Equal(m) {
		t.Fatalf("%s: got\n%vwant\n%v", what, m, ref)
	}
}

func add(x, y int64) int64 { return x + y }
func sub(x, y int64) int64 { return x - y }

// checkKept asserts m keeps a transpose exactly when want says so, and
// that a kept one is Equal to a fresh Transpose.
func checkKept(t *testing.T, what string, m *Matrix, want bool) {
	t.Helper()
	tr := m.tr.Load()
	if (tr != nil) != want {
		t.Fatalf("%s: keeps a transpose: %v, want %v", what, tr != nil, want)
	}
	if tr != nil && !tr.Equal(m.Transpose()) {
		t.Fatalf("%s: kept transpose =\n%vwant\n%v", what, tr, m.Transpose())
	}
}

// checkDeltaOps runs every Delta operation on (m, d, e) against the
// dense reference. m may have a smaller dimension than the deltas.
// With keep, m and the row-local operands keep their transposes before
// they are patched, and every patch must hand the result one that
// equals its Transpose; without, no patch may build one. M·Δ runs last,
// so without keep it meets an m whose transpose it builds itself.
func checkDeltaOps(t *testing.T, m *Matrix, d, e *Delta, keep bool) {
	t.Helper()
	n := d.Dim()
	dm, dd, de := denseAt(n, m.Each), denseAt(n, d.Each), denseAt(n, e.Each)
	if keep {
		m.TransposeCached()
	}

	checkDelta(t, "delta", d, dd)
	checkDelta(t, "Δ·M", d.Mul(m), denseMul(dd, dm))
	checkDelta(t, "Neg", d.Neg(), denseCombine(make2(n), dd, sub))
	checkDelta(t, "Add", d.Add(e), denseCombine(dd, de, add))
	checkDelta(t, "d + (−d)", d.Add(d.Neg()), make2(n))
	if z := d.Add(d.Neg()); len(z.rows) != 0 {
		t.Fatalf("d + (−d) keeps rows %v", z.rows)
	}
	tr := make2(n)
	for r := range dd {
		for c, v := range dd[r] {
			tr[c][r] = v
		}
	}
	checkDelta(t, "Transpose", d.Transpose(), tr)

	patched := Patch(m, d)
	checkMatrix(t, "Patch", patched, denseCombine(dm, dd, add))
	checkKept(t, "Patch", patched, keep)
	unpatched := Patch(patched, d.Neg())
	checkMatrix(t, "Patch then un-patch", unpatched, dm)
	checkKept(t, "Patch then un-patch", unpatched, keep)
	checkMatrix(t, "receiver after Patch", m, denseAt(m.Dim(), m.Each))
	checkKept(t, "receiver after Patch", m, keep)
	checkKept(t, "Grow", m.Grow(n+1), keep)
	checkDelta(t, "DeltaOf", DeltaOf(patched, m), dd)

	// Row-local re-evaluation: the cached op(m) patched on d's rows must
	// be op(m+d), and the returned delta their difference.
	for _, op := range []struct {
		name  string
		full  func(*Matrix) *Matrix
		patch func(old, child *Matrix, d *Delta) (*Matrix, *Delta)
	}{
		{"Boolean", (*Matrix).Boolean, PatchBoolean},
		{"DiagMulBool", (*Matrix).DiagMulBool, PatchDiagMulBool},
	} {
		old, want := op.full(m), op.full(patched)
		if keep {
			old.TransposeCached()
		}
		got, diff := op.patch(old, patched, d)
		if !got.Equal(want) {
			t.Fatalf("Patch%s: got\n%vwant\n%v", op.name, got, want)
		}
		checkMatrix(t, "Patch"+op.name, got, denseAt(n, want.Each))
		checkKept(t, "Patch"+op.name, got, keep)
		checkDelta(t, "Patch"+op.name+" delta", diff, denseCombine(denseAt(n, want.Each), denseAt(n, old.Each), sub))
	}

	// Equation 1's diagonal: built from the rows both halves populate,
	// and patched on the rows of the halves' deltas alone.
	b := Patch(m, e)
	db := denseAt(n, b.Each)
	checkVector(t, "ProductDiagonal", ProductDiagonal(patched, b), denseDiag(denseMul(denseAt(n, patched.Each), transposed(db))))
	checkVector(t, "ProductDiagonal of one matrix", ProductDiagonal(b, b), denseDiag(denseMul(db, transposed(db))))
	mg := m.Grow(n)
	checkVector(t, "Patched", ProductDiagonal(m, m).Patched(patched, b, d, e), denseDiag(denseMul(denseAt(n, patched.Each), transposed(db))))
	checkVector(t, "Patched, right half unchanged", ProductDiagonal(m, m).Patched(patched, mg, d, nil), denseDiag(denseMul(denseAt(n, patched.Each), transposed(dm))))

	checkDelta(t, "M·Δ", MulDelta(m, d), denseMul(dm, dd))
	checkDelta(t, "Δ·M·Δ", MulDelta(m, d).Mul(m), denseMul(denseMul(dm, dd), dm))
	checkKept(t, "M·Δ's operand", m, len(d.rows) > 0 && m.NNZ() > 0 || keep)
}

func make2(n int) [][]int64 { return denseAt(n, func(func(r, c int, v int64)) {}) }

func transposed(a [][]int64) [][]int64 {
	out := make2(len(a))
	for r := range a {
		for c, v := range a[r] {
			out[c][r] = v
		}
	}
	return out
}

func denseDiag(a [][]int64) []int64 {
	out := make([]int64, len(a))
	for i := range a {
		out[i] = a[i][i]
	}
	return out
}

// checkVector asserts v is canonical — no zeros or empty words stored,
// its directory spanning the words from the one of its first entry to
// the one of its last — and holds exactly want.
func checkVector(t *testing.T, what string, v *Vector, want []int64) {
	t.Helper()
	if v.n != len(want) {
		t.Fatalf("%s: dim %d, want %d", what, v.n, len(want))
	}
	stored, size := 0, 8*cap(v.words)
	for _, w := range v.words {
		if w != nil {
			if slices.Contains(w.val, 0) || len(w.val) != bits.OnesCount64(w.bits) || w.bits == 0 {
				t.Fatalf("%s: word %+v not canonical", what, w)
			}
			stored += len(w.val)
			size += 32 + 8*cap(w.val)
		}
	}
	if v.lo%64 != 0 || len(v.words) > 0 && (v.words[0] == nil || v.words[len(v.words)-1] == nil) || stored != v.NNZ() || size != v.Bytes() {
		t.Fatalf("%s: %+v not canonical", what, v)
	}
	nnz := 0
	for i, x := range want {
		if got := v.At(i); got != x {
			t.Fatalf("%s: entry %d = %d, want %d (%v)", what, i, got, x, v)
		}
		if x != 0 {
			nnz++
		}
	}
	if v.NNZ() != nnz {
		t.Fatalf("%s: NNZ() = %d, want %d", what, v.NNZ(), nnz)
	}
}

func TestDeltaOpsAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for iter := 0; iter < 300; iter++ {
		n := 1 + rng.Intn(14)
		mn := n - rng.Intn(min(n, 3)) // the id space before the commit
		m := randSigned(rng, mn, rng.Intn(4*mn)+1)
		if mn == 1 || iter%7 == 0 {
			m = Zero(mn)
		}
		d, e := randDelta(rng, n, rng.Intn(2*n)), randDelta(rng, n, rng.Intn(2*n))
		// m.Add(Zero) is a fresh copy: each run starts with no transpose.
		checkDeltaOps(t, m.Add(Zero(mn)), d, e, false)
		checkDeltaOps(t, m.Add(Zero(mn)), d, e, true)
	}
}

func TestNewDeltaSumsAndDrops(t *testing.T) {
	d := NewDelta(4, []Triple{{2, 1, 1}, {0, 3, 2}, {2, 1, -1}, {0, 3, 3}, {3, 0, -1}})
	checkDelta(t, "NewDelta", d, [][]int64{{0, 0, 0, 5}, {0, 0, 0, 0}, {0, 0, 0, 0}, {-1, 0, 0, 0}})
	if !slices.Equal(d.rows, []int32{0, 3}) {
		t.Fatalf("rows = %v: the row whose entries cancelled must be dropped", d.rows)
	}
	if e := NewDelta(3, nil); e.NNZ() != 0 || e.Dim() != 3 {
		t.Fatalf("empty delta: nnz %d dim %d", e.NNZ(), e.Dim())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range triple")
		}
	}()
	NewDelta(2, []Triple{{Row: 0, Col: 2, Val: 1}})
}

// TestDeltaOperandDimensionChecked: a delta meets matrices of its own
// dimension or the smaller one before the commit, never a larger one.
func TestDeltaOperandDimensionChecked(t *testing.T) {
	d, big := NewDelta(2, []Triple{{0, 1, 1}}), Identity(3)
	for name, f := range map[string]func(){
		"Mul":      func() { d.Mul(big) },
		"MulDelta": func() { MulDelta(big, d) },
		"Patch":    func() { Patch(big, d) },
		"DeltaOf":  func() { DeltaOf(Identity(2), big) },
		"Add":      func() { d.Add(NewDelta(3, nil)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted a larger operand", name)
				}
			}()
			f()
		}()
	}
}

// TestPatchSharesArena pins the sharing rules of withRows: the first
// patch of a kernel result rewrites it compactly with headroom, the
// next appends in place (same backing array, old version untouched), a
// second patch of an old version copies instead of overwriting, and a
// chain of patches never lets the dead entries pass half the live ones
// (a third of the arena).
func TestPatchSharesArena(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 64
	base := randomMatrix(rng, n, 40*n)
	want := dense(base)
	step := func(m *Matrix, d *Delta) *Matrix {
		t.Helper()
		out := Patch(m, d)
		want = denseCombine(want, denseAt(n, d.Each), add)
		checkMatrix(t, "chain", out, want)
		return out
	}
	one := func(r, c int, v int64) *Delta { return NewDelta(n, []Triple{{r, c, v}}) }

	v1 := step(base, one(3, 3, 100))
	if v1.tip == nil || cap(v1.colIdx) <= len(v1.colIdx) {
		t.Fatalf("first patch left no headroom: len %d cap %d", len(v1.colIdx), cap(v1.colIdx))
	}
	v1Dense := dense(v1)
	v2 := step(v1, one(5, 5, 100))
	if &v2.colIdx[0] != &v1.colIdx[0] || len(v2.colIdx) <= len(v1.colIdx) {
		t.Fatal("second patch did not append to the first one's arena")
	}
	checkMatrix(t, "v1 after v2 appended", v1, v1Dense)

	// v1 is no longer the arena's newest version: patching it again must
	// not write over v2's rows.
	fork := Patch(v1, one(7, 7, 100))
	if &fork.colIdx[0] == &v1.colIdx[0] {
		t.Fatal("patch of a superseded version appended in place")
	}
	checkMatrix(t, "v2 after fork", v2, want)
	checkMatrix(t, "fork", fork, denseCombine(v1Dense, denseAt(n, one(7, 7, 100).Each), add))

	// A long chain: appends in place, rewrites when capacity runs out
	// (half the live entries of headroom is gone no later than half the
	// live entries are dead while rows are rewritten at their size or
	// larger), and — in the stretch that only empties rows, which
	// appends nothing — rewrites by the dead-entry rule; then the
	// emptied rows fill again. All three must occur.
	v2Dense := dense(v2)
	cur := v2
	var appended, outOfRoom, tooDead int
	for i := 0; i < 400; i++ {
		var d *Delta
		if i%3 == 2 || (i >= 200 && i < 260) {
			r := rng.Intn(n)
			if i >= 200 && i < 260 {
				r = i - 200
			}
			var ts []Triple
			cur.Row(r, func(c int, v int64) { ts = append(ts, Triple{r, c, -v}) })
			d = NewDelta(n, ts) // empties row r
		} else {
			d = randDelta(rng, n, 1+rng.Intn(6))
		}
		prev := cur
		cur = step(cur, d)
		if dead := len(cur.colIdx) - cur.NNZ(); dead*2 > cur.NNZ() {
			t.Fatalf("step %d: %d of %d arena entries dead, over half the %d live", i, dead, len(cur.colIdx), cur.NNZ())
		}
		grown := len(prev.colIdx) // had the replacement rows been appended
		for _, r := range d.rows {
			cols, _ := cur.RowView(int(r))
			grown += len(cols)
		}
		switch {
		case cur.NNZ() == 0 || prev.NNZ() == 0:
		case &cur.colIdx[0] == &prev.colIdx[0]:
			appended++
		case grown > cap(prev.colIdx):
			outOfRoom++
		default:
			tooDead++
		}
	}
	t.Logf("400 patches: %d appended in place, %d rewritten out of room, %d rewritten over half dead", appended, outOfRoom, tooDead)
	if appended < 200 || outOfRoom == 0 || tooDead == 0 {
		t.Fatal("the chain must mostly append in place and hit both rewrite rules")
	}
	if appended+outOfRoom+tooDead != 400 {
		t.Fatal("the matrix emptied: the chain lost its subject")
	}
	checkMatrix(t, "v2 after the chain", v2, v2Dense)
}

// TestArenaRoomClampsToInt32: a compaction's headroom is clamped to
// what int32 spans address, so only live entries beyond int32 refuse
// a compaction, never their headroom.
func TestArenaRoomClampsToInt32(t *testing.T) {
	for _, c := range []struct{ nnz, room int }{
		{0, 0},
		{1, 1},
		{64, 96},
		{math.MaxInt32 / 3 * 2, math.MaxInt32 / 3 * 3},
		{math.MaxInt32/3*2 + 2, math.MaxInt32},
		{1 << 30, 3 << 29},
		{1_500_000_000, math.MaxInt32},
		{math.MaxInt32, math.MaxInt32},
	} {
		if room, ok := arenaRoom(c.nnz); !ok || room != c.room {
			t.Errorf("arenaRoom(%d) = %d, %v; want %d, true", c.nnz, room, ok, c.room)
		}
	}
	if _, ok := arenaRoom(math.MaxInt32 + 1); ok {
		t.Error("arenaRoom accepted more live entries than int32 spans address")
	}
}

// FuzzDeltaOps drives every Delta operation with arbitrary shapes: the
// bytes decode to a matrix, its (possibly smaller) dimension, and two
// signed deltas.
func FuzzDeltaOps(f *testing.F) {
	f.Add(uint8(4), uint8(0), []byte{0, 1, 2, 1, 2, 3}, []byte{0, 1, 4, 3, 0, 2}, []byte{0, 1, 2})
	f.Add(uint8(5), uint8(2), []byte{0, 0, 1, 1, 1, 1, 2, 2, 1}, []byte{4, 4, 4, 0, 4, 2}, []byte{4, 4, 2})
	f.Add(uint8(3), uint8(0), []byte{}, []byte{1, 1, 6, 1, 1, 0}, []byte{})
	f.Add(uint8(1), uint8(0), []byte{0, 0, 6}, []byte{0, 0, 0}, []byte{0, 0, 6})
	f.Fuzz(func(t *testing.T, dim, shrink uint8, mb, db, eb []byte) {
		if len(mb) > 60 || len(db) > 60 || len(eb) > 60 {
			t.Skip("oversized input")
		}
		n := 1 + int(dim%12)
		mn := n - int(shrink)%min(n, 3)
		triples := func(b []byte, n int) []Triple {
			var ts []Triple
			for i := 0; i+2 < len(b); i += 3 {
				ts = append(ts, Triple{Row: int(b[i]) % n, Col: int(b[i+1]) % n, Val: int64(b[i+2]%7) - 3})
			}
			return ts
		}
		d, e := NewDelta(n, triples(db, n)), NewDelta(n, triples(eb, n))
		checkDeltaOps(t, New(mn, triples(mb, mn)), d, e, false)
		checkDeltaOps(t, New(mn, triples(mb, mn)), d, e, true)
	})
}

// TestDiagonalAcrossWords carries a diagonal through 300 random changes
// of both halves at dimensions spanning many words: entries appear and
// vanish anywhere, the id space grows, and every row of A in the word
// of the first or the last entry is emptied, so the directory widens
// and shrinks at both ends. Every step must equal the
// diagonal built from scratch and, entry by entry, the sum of A[r,c] ·
// Bᵀ[r,c] over A's row.
func TestDiagonalAcrossWords(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 1500
	random := func(n, k int) []Triple {
		ts := make([]Triple, k)
		for i := range ts {
			r := rng.Intn(n)
			ts[i] = Triple{Row: r, Col: (r + rng.Intn(5)) % n, Val: 1 + rng.Int63n(3)}
		}
		return ts
	}
	// Every 97th row of A is far longer than Bᵀ's, so the merge runs
	// out the short row first.
	long, short := random(n, 300), random(n, 300)
	for r := 0; r < n; r += 97 {
		for c := 0; c < n; c += 29 {
			long = append(long, Triple{Row: r, Col: c, Val: int64(1 + c%4)})
		}
		short = append(short, Triple{Row: r, Col: 29 * (1 + r%7), Val: 2}, Triple{Row: r, Col: 29*(1+r%7) + 1, Val: 1})
	}
	a, bt := New(n, long), New(n, short)
	v := ProductDiagonal(a, bt)
	shrunk := [2]int{} // steps whose directory lost words at its start, at its end
	for step := 0; step < 300; step++ {
		if rng.Intn(10) == 0 {
			n += rng.Intn(500)
		}
		ts := random(n, rng.Intn(6))
		if v.NNZ() > 0 && rng.Intn(4) == 0 {
			base := int(v.lo)
			if rng.Intn(2) == 0 {
				base += 64 * (len(v.words) - 1)
			}
			for r := base; r < min(base+64, a.Dim()); r++ {
				cols, vals := a.RowView(r)
				for i, c := range cols {
					ts = append(ts, Triple{Row: r, Col: int(c), Val: -vals[i]})
				}
			}
		}
		d, e := NewDelta(n, ts), NewDelta(n, random(n, rng.Intn(6)))
		a, bt = Patch(a, d), Patch(bt, e)
		next := v.Patched(a, bt, d, e)
		if next.lo > v.lo {
			shrunk[0]++
		}
		if next.NNZ() > 0 && int(next.lo)+64*len(next.words) < int(v.lo)+64*len(v.words) {
			shrunk[1]++
		}
		v = next
		want := make([]int64, n)
		for r := range want {
			a.Row(r, func(c int, x int64) { want[r] += x * bt.At(r, c) })
		}
		checkVector(t, fmt.Sprintf("step %d", step), v, want)
		if built := ProductDiagonal(a, bt); !v.Equal(built) {
			t.Fatalf("step %d: patched %+v, built %+v", step, v, built)
		}
	}
	if shrunk[0] == 0 || shrunk[1] == 0 {
		t.Fatalf("the directory shrank at its start %d times and at its end %d times; the walk must do both", shrunk[0], shrunk[1])
	}
}
