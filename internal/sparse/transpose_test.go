package sparse

import (
	"sync"
	"testing"
)

// TestTransposeCached: the kept transpose is built once per matrix
// version, equals Transpose, stops its spans at the last populated
// column, is the matrix itself when symmetric, is one matrix however
// many first callers race for it, and does not follow a matrix into
// the versions made from it.
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

	patched := m.Patch(NewDelta(6, []Triple{{5, 5, 7}, {0, 1, -2}}))
	pt := patched.TransposeCached()
	if pt == tr || !pt.Equal(patched.Transpose()) {
		t.Fatalf("patched version's transpose =\n%v, want its own\n%v", pt, patched.Transpose())
	}
	if m.TransposeCached() != tr || !tr.Equal(m.Transpose()) {
		t.Error("patching changed the old version's transpose")
	}
	grown := m.Grow(8)
	if gt := grown.TransposeCached(); gt == tr || !gt.Equal(grown.Transpose()) {
		t.Errorf("grown matrix's transpose =\n%v, want its own\n%v", gt, grown.Transpose())
	}
}
