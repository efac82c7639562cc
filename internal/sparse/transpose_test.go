package sparse

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestTransposeCached: the kept transpose is built once per matrix
// version, equals Transpose, stops its spans at the last populated
// column, is the matrix itself when symmetric, and is one matrix
// however many first callers race for it. The versions made from it
// keep transposes of their own (TestTransposeTravels).
func TestTransposeCached(t *testing.T) {
	// Columns populated up to 3 in a 6×6: the transpose holds 4 spans.
	m := New(6, []Triple{{0, 1, 2}, {0, 3, 1}, {2, 1, 5}, {4, 2, -1}})
	tr := m.TransposeCached()
	if !tr.Equal(m.Transpose()) {
		t.Fatalf("TransposeCached =\n%v, Transpose =\n%v", tr, m.Transpose())
	}
	if again := m.TransposeCached(); again != tr {
		t.Error("a second call built another transpose")
	}
	if len(tr.rows) != 4 {
		t.Errorf("transpose holds %d spans, want 4: the last populated column + 1", len(tr.rows))
	}
	if z := Zero(6).Transpose(); len(z.rows) != 0 {
		t.Errorf("transpose of the zero matrix holds %d spans, want 0", len(z.rows))
	}

	sym := New(4, []Triple{{0, 1, 3}, {1, 0, 3}, {2, 2, 1}, {1, 3, -2}, {3, 1, -2}})
	if sym.TransposeCached() != sym {
		t.Error("a symmetric matrix is its own transpose, but another was built")
	}

	racy := New(5, []Triple{{0, 4, 1}, {3, 2, 7}, {4, 0, 2}})
	got := make([]*Matrix, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = racy.TransposeCached()
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != got[0] {
			t.Fatalf("first caller %d got a transpose of its own", i)
		}
	}
	if !got[0].Equal(racy.Transpose()) {
		t.Fatalf("raced transpose =\n%v, want\n%v", got[0], racy.Transpose())
	}

	// The versions made from m keep transposes of their own, derived
	// from m's, and m keeps the one it had.
	patched := Patch(m, NewDelta(6, []Triple{{5, 5, 7}, {0, 1, -2}}))
	pt := patched.TransposeCached()
	if pt == tr || !pt.Equal(patched.Transpose()) {
		t.Fatalf("patched version's transpose =\n%v, want one of its own, derived from m's\n%v", pt, patched.Transpose())
	}
	if m.TransposeCached() != tr || !tr.Equal(m.Transpose()) {
		t.Error("patching changed the old version's transpose")
	}
	grown := m.Grow(8)
	if gt := grown.TransposeCached(); gt == tr || !gt.Equal(grown.Transpose()) {
		t.Errorf("grown matrix's transpose =\n%v, want one of its own, derived from m's\n%v", gt, grown.Transpose())
	}
}

// TestTransposeTravels: Grow, Patch and the row-local patches of a
// matrix keeping its transpose hand the result one derived from it —
// checked on the unexported field, before anything could build one —
// a symmetric matrix stays its own transpose through a symmetric
// change, a matrix keeping none yields none, and the old version's
// transpose keeps its pointer and its value, also for readers running
// beside the patches.
func TestTransposeTravels(t *testing.T) {
	kept := func(m *Matrix) *Matrix { return m.tr.Load() }
	m := New(6, []Triple{{0, 1, 2}, {0, 3, 1}, {2, 1, 5}, {4, 2, -1}})
	plain := New(6, []Triple{{0, 1, 2}, {0, 3, 1}, {2, 1, 5}, {4, 2, -1}})
	tr := m.TransposeCached()
	trDense := dense(tr)
	d := NewDelta(8, []Triple{{5, 5, 7}, {0, 1, -2}, {7, 0, 3}, {2, 4, 1}})
	derived := func(m *Matrix) map[string]*Matrix {
		child := Patch(m, d)
		b, dm := m.Boolean(), m.DiagMulBool()
		if kept(m) != nil {
			b.TransposeCached()
			dm.TransposeCached()
		}
		pb, _ := PatchBoolean(b, child, d)
		pd, _ := PatchDiagMulBool(dm, child, d)
		return map[string]*Matrix{"Patch": child, "Grow": m.Grow(9), "PatchBoolean": pb, "PatchDiagMulBool": pd}
	}
	for name, got := range derived(m) {
		if k := kept(got); k == nil || !k.Equal(got.Transpose()) {
			t.Errorf("%s keeps %v, want its transpose\n%v", name, k, got.Transpose())
		}
	}
	for name, got := range derived(plain) {
		if kept(got) != nil {
			t.Errorf("%s of a matrix keeping no transpose keeps one", name)
		}
	}
	if kept(m) != tr || !slices.EqualFunc(dense(tr), trDense, slices.Equal) {
		t.Error("the old version's transpose changed")
	}

	sym := New(4, []Triple{{0, 1, 3}, {1, 0, 3}, {2, 2, 1}, {1, 3, -2}, {3, 1, -2}})
	sym.TransposeCached()
	if s := Patch(sym, NewDelta(5, []Triple{{0, 2, 1}, {2, 0, 1}, {4, 4, 2}})); kept(s) != s {
		t.Error("a symmetric change of a symmetric matrix built it a transpose")
	}
	if g := sym.Grow(6); kept(g) != g {
		t.Error("a grown symmetric matrix is not its own transpose")
	}
	asym := Patch(sym, NewDelta(4, []Triple{{0, 2, 1}}))
	if k := kept(asym); k == nil || k == asym || !k.Equal(asym.Transpose()) {
		t.Errorf("an asymmetric change of a symmetric matrix keeps %v, want\n%v", k, asym.Transpose())
	}
	if kept(sym) != sym {
		t.Error("the old symmetric version stopped being its own transpose")
	}

	// A chain of patches: every eighth version's transpose is read by a
	// reader against its frozen value while the writer patches the
	// versions after it, appending to the same transpose arena. Under
	// -race this checks that a carry writes no slot an older version's
	// transpose reads.
	rng := rand.New(rand.NewSource(17))
	const n = 48
	cur := randomMatrix(rng, n, 6*n)
	cur.TransposeCached()
	var readers sync.WaitGroup
	defer readers.Wait()
	stop := make(chan struct{})
	defer close(stop)
	for i := 0; i < 64; i++ {
		if i%8 == 0 {
			pinned, want := kept(cur), cur.Transpose()
			readers.Add(1)
			go func() {
				defer readers.Done()
				for stopped := false; !stopped; {
					select {
					case <-stop:
						stopped = true
					default:
					}
					if !pinned.Equal(want) {
						t.Errorf("version %d's transpose changed under its reader", i)
						return
					}
				}
			}()
		}
		cur = Patch(cur, randDelta(rng, n, 1+rng.Intn(4)))
		if k := kept(cur); k == nil || !k.Equal(cur.Transpose()) {
			t.Fatalf("patch %d: kept transpose diverges from Transpose", i)
		}
	}
}
