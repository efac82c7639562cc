package sparse

import (
	"math/rand"
	"testing"
)

// noExplicitZeros reports whether m's rows store no explicit zero
// entries — the canonical-form invariant that makes Equal mean equal
// values after signed delta application.
func noExplicitZeros(m *Matrix) bool {
	ok := true
	m.Each(func(_, _ int, v int64) { ok = ok && v != 0 })
	return ok
}

// TestAddSubRoundTrip locks in the signed-cancellation property the
// delta engine depends on: applying a delta and then its negation
// restores a matrix row for row, with no explicit-zero residue, whether
// the second patch appends to the first one's arena or rewrites it.
func TestAddSubRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(12)
		a := randomMatrix(rng, n, rng.Intn(3*n))
		d := randDelta(rng, n, rng.Intn(2*n))
		back := a.Patch(d).Patch(d.Neg())
		if !back.Equal(a) {
			t.Fatalf("iter %d: (a+d)−d != a", iter)
		}
		if !noExplicitZeros(back) {
			t.Fatalf("iter %d: round trip left explicit zeros", iter)
		}
	}
}

// TestAddThenRemoveEdgeLeavesNoResidue is the satellite property test:
// a commit that adds an edge and a later commit that removes it must
// leave the adjacency matrix with no explicit zero at that slot.
func TestAddThenRemoveEdgeLeavesNoResidue(t *testing.T) {
	adj := New(4, []Triple{{0, 1, 1}, {2, 3, 1}})
	addDelta := NewDelta(4, []Triple{{1, 2, 1}})
	removeDelta := NewDelta(4, []Triple{{1, 2, -1}})
	after := adj.Patch(addDelta).Patch(removeDelta)
	if !after.Equal(adj) {
		t.Fatalf("add-then-remove did not restore the original matrix:\n%v", after)
	}
	if !noExplicitZeros(after) {
		t.Fatal("add-then-remove left an explicit zero entry")
	}
	if after.NNZ() != adj.NNZ() {
		t.Fatalf("NNZ = %d, want %d", after.NNZ(), adj.NNZ())
	}
}

func TestGrow(t *testing.T) {
	m := New(3, []Triple{{0, 2, 5}, {2, 1, -1}})
	g := m.Grow(6)
	if g.Dim() != 6 || g.NNZ() != m.NNZ() {
		t.Fatalf("Grow: dim=%d nnz=%d, want 6/%d", g.Dim(), g.NNZ(), m.NNZ())
	}
	if g.At(0, 2) != 5 || g.At(2, 1) != -1 || g.At(5, 5) != 0 {
		t.Fatal("Grow moved entries")
	}
	// Growing must commute with rebuilding from triples (byte-identity).
	want := New(6, []Triple{{0, 2, 5}, {2, 1, -1}})
	if !g.Equal(want) {
		t.Fatal("Grow not Equal to rebuilt matrix")
	}
	if got := m.Grow(3); got != m {
		t.Fatal("Grow to same dim should return the receiver")
	}
}

func TestGrowPanicsOnShrink(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shrink")
		}
	}()
	New(3, nil).Grow(2)
}

// TestMulFewRowsMatchesSerial keeps the inputs that pinned the former
// ultra-sparse kernel — delta-shaped left operands, signed so exact
// cancellation is exercised — and holds Mul to the frozen serial
// kernel byte for byte: the fork is gone, the behaviour is not.
func TestMulFewRowsMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 200; iter++ {
		n := 32 + rng.Intn(64)
		// Left operand: a delta-shaped matrix with very few entries,
		// signed values so exact cancellation paths are exercised.
		k := 1 + rng.Intn(3)
		ts := make([]Triple, 0, 2*k)
		for i := 0; i < k; i++ {
			r := rng.Intn(n)
			ts = append(ts, Triple{Row: r, Col: rng.Intn(n), Val: int64(rng.Intn(5) - 2)})
			ts = append(ts, Triple{Row: r, Col: rng.Intn(n), Val: int64(rng.Intn(5) - 2)})
		}
		d := New(n, ts)
		b := randomMatrix(rng, n, 4*n)
		byteIdentical(t, "delta-shaped mul", d.Mul(b), frozenFrom(d).mul(frozenFrom(b)))
	}
}

func TestMulEmptyLeftIsZero(t *testing.T) {
	b := New(8, []Triple{{1, 2, 3}})
	if got := Zero(8).Mul(b); !got.Equal(Zero(8)) {
		t.Fatal("0·B != 0")
	}
}

// Left operands for the shapes a product takes on FullDBLP, in a
// 20,000-node id space: a headline-query factor populates 400 rows, a
// commit delta three signed entries.
const shapedDim = 20000

func headlineShaped(rng *rand.Rand) *Matrix {
	ts := make([]Triple, 0, 400*30)
	for r := 0; r < 400; r++ {
		for i := 0; i < 30; i++ {
			ts = append(ts, Triple{Row: r * 50, Col: rng.Intn(shapedDim), Val: int64(1 + rng.Intn(4))})
		}
	}
	return New(shapedDim, ts)
}

func deltaShaped() *Matrix {
	return New(shapedDim, []Triple{
		{Row: 17, Col: 42, Val: 1},
		{Row: 9000, Col: 3, Val: -1},
		{Row: 15000, Col: 19999, Val: 1},
	})
}

func BenchmarkMulDeltaShaped(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	big := randomMatrix(rng, shapedDim, 8*shapedDim)
	for _, c := range []struct {
		name string
		left *Matrix
	}{{"delta", deltaShaped()}, {"headline", headlineShaped(rng)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.left.Mul(big)
			}
		})
	}
}
