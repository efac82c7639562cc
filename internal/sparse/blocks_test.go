package sparse

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"
)

// Patches across span blocks. The delta tests run at dimensions below
// one block of 256 rows, where a patch's directory and block copies
// never leave block 0. These run at thousands of rows: chains of
// patches touching several blocks, growth past a short final block
// and past blocks no row populates, forks from superseded versions,
// kept transposes and the row-local patches.

// refMatrix is the reference for a matrix too large to hold densely at
// every step of a chain: its dimension and its nonzero entries by
// position.
type refMatrix struct {
	n  int
	at map[[2]int]int64
}

func refOf(m *Matrix) refMatrix {
	r := refMatrix{n: m.Dim(), at: map[[2]int]int64{}}
	m.Each(func(i, j int, v int64) { r.at[[2]int{i, j}] = v })
	return r
}

// plus returns r + d at d's dimension.
func (r refMatrix) plus(d *Delta) refMatrix {
	out := refMatrix{n: d.Dim(), at: maps.Clone(r.at)}
	d.Each(func(i, j int, v int64) {
		k := [2]int{i, j}
		if out.at[k] += v; out.at[k] == 0 {
			delete(out.at, k)
		}
	})
	return out
}

// rowOp returns the reference of a row-local operator: each row of r
// becomes f's entries for it.
func (r refMatrix) rowOp(f func(row int, vals map[int]int64) map[int]int64) refMatrix {
	rows := map[int]map[int]int64{}
	for k, v := range r.at {
		if rows[k[0]] == nil {
			rows[k[0]] = map[int]int64{}
		}
		rows[k[0]][k[1]] = v
	}
	out := refMatrix{n: r.n, at: map[[2]int]int64{}}
	for i, vals := range rows {
		for j, v := range f(i, vals) {
			out.at[[2]int{i, j}] = v
		}
	}
	return out
}

func (r refMatrix) boolean() refMatrix {
	return r.rowOp(func(_ int, vals map[int]int64) map[int]int64 {
		out := map[int]int64{}
		for j, v := range vals {
			if v > 0 {
				out[j] = 1
			}
		}
		return out
	})
}

func (r refMatrix) diagMulBool() refMatrix {
	return r.rowOp(func(i int, vals map[int]int64) map[int]int64 {
		var sum int64
		for _, v := range vals {
			sum += max(v, 0)
		}
		if sum == 0 {
			return nil
		}
		return map[int]int64{i: sum}
	})
}

// checkRef asserts m holds exactly ref: its entries in row-major order
// with no zeros, its stored count, every row read through RowView —
// inside the directory, in nil blocks and past it — and Equal, both
// ways, to a kernel-built matrix of the same entries.
func checkRef(t *testing.T, what string, m *Matrix, ref refMatrix) {
	t.Helper()
	if m.Dim() != ref.n {
		t.Fatalf("%s: dim %d, want %d", what, m.Dim(), ref.n)
	}
	walked, last := 0, [2]int{-1, -1}
	m.Each(func(i, j int, v int64) {
		k := [2]int{i, j}
		if i < last[0] || i == last[0] && j <= last[1] || ref.at[k] != v || v == 0 {
			t.Fatalf("%s: entry (%d,%d) = %d out of order or wrong, want %d", what, i, j, v, ref.at[k])
		}
		last = k
		walked++
	})
	if walked != len(ref.at) || m.NNZ() != walked {
		t.Fatalf("%s: %d entries walked, NNZ() %d, want %d", what, walked, m.NNZ(), len(ref.at))
	}
	viewed := 0
	for r := range m.Dim() {
		cols, vals := m.RowView(r)
		for k, c := range cols {
			if ref.at[[2]int{r, int(c)}] != vals[k] {
				t.Fatalf("%s: RowView(%d) holds (%d, %d)", what, r, c, vals[k])
			}
		}
		viewed += len(cols)
	}
	if viewed != walked {
		t.Fatalf("%s: rows view %d entries, want %d", what, viewed, walked)
	}
	ts := make([]Triple, 0, len(ref.at))
	for k, v := range ref.at {
		ts = append(ts, Triple{Row: k[0], Col: k[1], Val: v})
	}
	if built := New(ref.n, ts); !m.Equal(built) || !built.Equal(m) {
		t.Fatalf("%s: not Equal to the matrix New builds of its entries", what)
	}
}

// blockDelta returns a delta at dimension n over rows of between two
// and four blocks below hi, a few rows each, with columns anywhere;
// with empty, it also empties one row of m that holds entries.
func blockDelta(rng *rand.Rand, m *Matrix, n, hi int, empty bool) *Delta {
	var ts []Triple
	for range 2 + rng.Intn(3) {
		b := rng.Intn((hi + blockRows - 1) / blockRows)
		for range 1 + rng.Intn(3) {
			if r := b*blockRows + rng.Intn(blockRows); r < hi {
				ts = append(ts, Triple{Row: r, Col: rng.Intn(n), Val: rng.Int63n(7) - 3})
			}
		}
	}
	if empty {
		for range 8 {
			r := rng.Intn(m.Dim())
			if cols, vals := m.RowView(r); len(cols) > 0 {
				for k, c := range cols {
					ts = append(ts, Triple{Row: r, Col: int(c), Val: -vals[k]})
				}
				break
			}
		}
	}
	return NewDelta(n, ts)
}

// TestPatchAcrossBlocks holds a chain of 240 patches, from n = 2,000
// (eight blocks, the last one short), to every step's reference: a
// matrix, its boolean collapse and its nested-pattern diagonal, each
// carried by its own patch. The second half of the chain keeps the
// matrix's transpose, carried by a patch of its own from step to step.
// Every twelfth step forks from a superseded version, whose readers
// must keep their own rows; one step in twenty grows the id space past
// the short final block, sometimes past whole blocks no row populates.
// A patch that appends in place must copy exactly the blocks its rows
// fall in and share every other with the version it was made from.
func TestPatchAcrossBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	n := 2000
	// Blocks 2, 4 and 6 start empty.
	var ts []Triple
	for _, b := range []int{0, 1, 3, 5, 7} {
		for range 600 {
			r := min(b*blockRows+rng.Intn(blockRows), n-1)
			ts = append(ts, Triple{Row: r, Col: rng.Intn(n), Val: 1 + rng.Int63n(3)})
		}
	}
	cur := New(n, ts)
	ref := refOf(cur)
	boolM, diagM := cur.Boolean(), cur.DiagMulBool()
	type version struct {
		m   *Matrix
		ref refMatrix
	}
	var old []version // superseded versions, still read
	var inPlace, shared, forks, nilBlocks int
	for step := range 240 {
		grow := 0
		if step%20 == 19 {
			grow = 1 + rng.Intn(600)
		}
		hi := n + grow
		if grow > 0 && rng.Intn(2) == 0 {
			hi = max(n, hi-rng.Intn(100)) // new rows only near the new end
		}
		d := blockDelta(rng, cur, n+grow, hi, step%3 == 0)
		what := fmt.Sprintf("step %d", step)

		if step%12 == 11 && len(old) > 0 {
			v := old[rng.Intn(len(old))]
			fd := blockDelta(rng, v.m, d.Dim(), v.m.Dim(), false)
			fork := Patch(v.m, fd)
			checkRef(t, what+": fork", fork, v.ref.plus(fd))
			checkRef(t, what+": forked version after the fork", v.m, v.ref)
			forks++
		}
		if step == 120 {
			cur.TransposeCached()
		}
		next := Patch(cur, d)
		nextRef := ref.plus(d)
		checkRef(t, what, next, nextRef)
		checkKept(t, what, next, cur.KeptTranspose() != nil)
		checkRef(t, what+": receiver", cur, ref)

		if &next.colIdx[0] == &cur.colIdx[0] {
			inPlace++
			touched := map[int]bool{}
			for _, r := range d.rows {
				touched[int(r)/blockRows] = true
			}
			for b, blk := range next.blocks {
				var prev *spanBlock // nil past the receiver's directory
				if b < len(cur.blocks) {
					prev = cur.blocks[b]
				}
				switch {
				case touched[b] && (blk == nil || blk == prev):
					t.Fatalf("%s: touched block %d not copied", what, b)
				case !touched[b] && blk != prev:
					t.Fatalf("%s: untouched block %d not shared", what, b)
				case blk == nil:
					nilBlocks++
				case !touched[b]:
					shared++
				}
			}
		}

		nb, bd := PatchBoolean(boolM, next, d)
		checkRef(t, what+": PatchBoolean", nb, nextRef.boolean())
		checkDeltaRef(t, what+": PatchBoolean delta", bd, refOf(boolM), nb)
		nd, dd := PatchDiagMulBool(diagM, next, d)
		checkRef(t, what+": PatchDiagMulBool", nd, nextRef.diagMulBool())
		checkDeltaRef(t, what+": PatchDiagMulBool delta", dd, refOf(diagM), nd)

		if step%16 == 0 {
			old = append(old, version{cur, ref})
		}
		cur, ref, boolM, diagM, n = next, nextRef, nb, nd, n+grow
	}
	for i, v := range old {
		checkRef(t, fmt.Sprintf("superseded version %d after the chain", i), v.m, v.ref)
	}
	t.Logf("240 patches to n = %d: %d appended in place, sharing %d blocks; %d forks; %d nil blocks read", n, inPlace, shared, forks, nilBlocks)
	if inPlace < 120 || shared == 0 || forks == 0 || nilBlocks == 0 {
		t.Fatal("the chain must mostly append in place, share blocks, fork, and grow past empty blocks")
	}
}

// checkDeltaRef asserts d is new − the reference old.
func checkDeltaRef(t *testing.T, what string, d *Delta, old refMatrix, new *Matrix) {
	t.Helper()
	want := refOf(new)
	got := old.plus(d)
	if !maps.Equal(got.at, want.at) {
		t.Fatalf("%s: old + delta differs from the patched matrix", what)
	}
}

// spreadRow is FuzzPatchAcrossBlocks's embedding of a small id space
// into one of thousands: consecutive ids land 257 rows apart, each in
// its own block, at a different offset in it, behind eleven blocks no
// row populates.
func spreadRow(i int) int { return 257*i + 2999 }

// spreadMatrix embeds m into the spread id space of dimension n.
func spreadMatrix(m *Matrix, n int) *Matrix {
	var ts []Triple
	m.Each(func(i, j int, v int64) { ts = append(ts, Triple{Row: spreadRow(i), Col: spreadRow(j), Val: v}) })
	return New(n, ts)
}

// spreadDelta embeds d into the spread id space of dimension n.
func spreadDelta(d *Delta, n int) *Delta {
	var ts []Triple
	d.Each(func(i, j int, v int64) { ts = append(ts, Triple{Row: spreadRow(i), Col: spreadRow(j), Val: v}) })
	return NewDelta(n, ts)
}

// FuzzPatchAcrossBlocks is FuzzDeltaOps's inputs with rows spread by a
// stride of 257 over n ≥ 3,000: every operation runs on the small
// matrix and deltas, which checkDeltaOps holds to the dense reference,
// and on their spread images, which must equal the spread results.
// The embedding keeps row and column order, so it commutes with every
// operation. Each patch chain runs three deep, so the second patch of
// a kernel result appends in place and copies blocks, and the third
// forks from the superseded first.
func FuzzPatchAcrossBlocks(f *testing.F) {
	f.Add(uint8(4), uint8(0), []byte{0, 1, 2, 1, 2, 3}, []byte{0, 1, 4, 3, 0, 2}, []byte{0, 1, 2})
	f.Add(uint8(5), uint8(2), []byte{0, 0, 1, 1, 1, 1, 2, 2, 1}, []byte{4, 4, 4, 0, 4, 2}, []byte{4, 4, 2})
	f.Add(uint8(3), uint8(0), []byte{}, []byte{1, 1, 6, 1, 1, 0}, []byte{})
	f.Add(uint8(1), uint8(0), []byte{0, 0, 6}, []byte{0, 0, 0}, []byte{0, 0, 6})
	f.Add(uint8(11), uint8(1), []byte{0, 11, 2, 11, 0, 3, 5, 5, 1}, []byte{11, 11, 4, 10, 0, 2}, []byte{11, 1, 5})
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
		bn, bmn := spreadRow(n-1)+1, spreadRow(mn-1)+1
		d, e := NewDelta(n, triples(db, n)), NewDelta(n, triples(eb, n))
		for _, keep := range []bool{false, true} {
			m := New(mn, triples(mb, mn))
			checkDeltaOps(t, m, d, e, keep)
			checkSpread(t, New(mn, triples(mb, mn)), d, e, bn, bmn, keep)
		}
	})
}

// checkSpread runs the delta operations on (m, d, e) and on their
// images spread to dimension bn (m's to bmn), and asserts each big
// result is the spread small one.
func checkSpread(t *testing.T, m *Matrix, d, e *Delta, bn, bmn int, keep bool) {
	t.Helper()
	n := d.Dim()
	bm, bd, be := spreadMatrix(m, bmn), spreadDelta(d, bn), spreadDelta(e, bn)
	if keep {
		m.TransposeCached()
		bm.TransposeCached()
	}
	same := func(what string, big, small *Matrix) {
		t.Helper()
		if want := spreadMatrix(small, big.Dim()); !big.Equal(want) {
			t.Fatalf("%s: the spread operands' result is not the spread result\n%v", what, small)
		}
		checkKept(t, what, big, keep)
	}
	sameDelta := func(what string, big, small *Delta) {
		t.Helper()
		if !big.equal(spreadDelta(small, bn)) {
			t.Fatalf("%s: the spread operands' delta is not the spread delta", what)
		}
	}

	p, bp := Patch(m, d), Patch(bm, bd)
	same("Patch", bp, p)
	q, bq := Patch(p, e), Patch(bp, be)
	same("Patch of a patch", bq, q)
	r, br := Patch(p, d), Patch(bp, bd)
	same("fork of a superseded patch", br, r)
	same("superseded patch after the fork", bp, p)
	same("receiver", bm, m)
	same("un-patch", Patch(bq, be.Neg()), Patch(q, e.Neg()))
	sameDelta("DeltaOf", DeltaOf(bq, bm), DeltaOf(q, m))
	sameDelta("M·Δ", MulDelta(bq, bd), MulDelta(q, d))
	sameDelta("Δ·M", bd.Mul(bq), d.Mul(q))
	if want := spreadMatrix(q.Mul(r), bn); !bq.Mul(br).Equal(want) {
		t.Fatal("Mul: the spread product is not the product spread")
	}
	if want := spreadMatrix(q.Transpose(), bn); !bq.Transpose().Equal(want) {
		t.Fatal("Transpose: the spread transpose is not the transpose spread")
	}

	for _, op := range []struct {
		name  string
		full  func(*Matrix) *Matrix
		patch func(old, child *Matrix, d *Delta) (*Matrix, *Delta)
	}{
		{"Boolean", (*Matrix).Boolean, PatchBoolean},
		{"DiagMulBool", (*Matrix).DiagMulBool, PatchDiagMulBool},
	} {
		o, bo := op.full(m), op.full(bm)
		if keep {
			o.TransposeCached()
			bo.TransposeCached()
		}
		o1, d1 := op.patch(o, p, d)
		bo1, bd1 := op.patch(bo, bp, bd)
		same("Patch"+op.name, bo1, o1)
		sameDelta("Patch"+op.name+" delta", bd1, d1)
		o2, d2 := op.patch(o1, q, e)
		bo2, bd2 := op.patch(bo1, bq, be)
		same("Patch"+op.name+" of a patch", bo2, o2)
		sameDelta("Patch"+op.name+" of a patch, delta", bd2, d2)
	}

	v, bv := ProductDiagonal(p, q), ProductDiagonal(bp, bq)
	if bv.NNZ() != v.NNZ() {
		t.Fatalf("ProductDiagonal: %d entries spread, %d small", bv.NNZ(), v.NNZ())
	}
	for i := range n {
		if bv.At(spreadRow(i)) != v.At(i) {
			t.Fatalf("ProductDiagonal: entry %d is %d spread, %d small", i, bv.At(spreadRow(i)), v.At(i))
		}
	}
}
