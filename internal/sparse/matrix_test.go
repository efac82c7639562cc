package sparse

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func dense(m *Matrix) [][]int64 {
	d := make([][]int64, m.Dim())
	for i := range d {
		d[i] = make([]int64, m.Dim())
	}
	m.Each(func(r, c int, v int64) { d[r][c] = v })
	return d
}

func fromDense(d [][]int64) *Matrix {
	var ts []Triple
	for r := range d {
		for c := range d[r] {
			if d[r][c] != 0 {
				ts = append(ts, Triple{Row: r, Col: c, Val: d[r][c]})
			}
		}
	}
	return New(len(d), ts)
}

func randomMatrix(rng *rand.Rand, n, nnz int) *Matrix {
	ts := make([]Triple, nnz)
	for i := range ts {
		ts[i] = Triple{Row: rng.Intn(n), Col: rng.Intn(n), Val: int64(rng.Intn(5))}
	}
	return New(n, ts)
}

func TestNewDeduplicatesAndSums(t *testing.T) {
	m := New(3, []Triple{{0, 1, 2}, {0, 1, 3}, {2, 2, 1}, {1, 0, -1}, {1, 0, 1}})
	if got := m.At(0, 1); got != 5 {
		t.Errorf("At(0,1) = %d, want 5", got)
	}
	if got := m.At(2, 2); got != 1 {
		t.Errorf("At(2,2) = %d, want 1", got)
	}
	if got := m.At(1, 0); got != 0 {
		t.Errorf("At(1,0) = %d, want 0 (summed to zero must be dropped)", got)
	}
	if m.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2", m.NNZ())
	}
}

func TestNewPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range triple")
		}
	}()
	New(2, []Triple{{Row: 2, Col: 0, Val: 1}})
}

func TestIdentity(t *testing.T) {
	m := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := int64(0)
			if i == j {
				want = 1
			}
			if got := m.At(i, j); got != want {
				t.Errorf("I(%d,%d) = %d, want %d", i, j, got, want)
			}
		}
	}
}

func TestMulAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		a := randomMatrix(rng, n, rng.Intn(12))
		b := randomMatrix(rng, n, rng.Intn(12))
		got := dense(a.Mul(b))
		da, db := dense(a), dense(b)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var want int64
				for k := 0; k < n; k++ {
					want += da[i][k] * db[k][j]
				}
				if got[i][j] != want {
					t.Fatalf("trial %d: (A·B)(%d,%d) = %d, want %d", trial, i, j, got[i][j], want)
				}
			}
		}
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(10)
		a := randomMatrix(rng, n, rng.Intn(20))
		if !a.Mul(Identity(n)).Equal(a) {
			t.Fatalf("A·I != A")
		}
		if !Identity(n).Mul(a).Equal(a) {
			t.Fatalf("I·A != A")
		}
	}
}

func TestAddCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(10)
		a := randomMatrix(rng, n, rng.Intn(20))
		b := randomMatrix(rng, n, rng.Intn(20))
		if !a.Add(b).Equal(b.Add(a)) {
			t.Fatal("A+B != B+A")
		}
	}
}

func TestAddAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(8)
		a := randomMatrix(rng, n, rng.Intn(15))
		b := randomMatrix(rng, n, rng.Intn(15))
		got := dense(a.Add(b))
		da, db := dense(a), dense(b)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got[i][j] != da[i][j]+db[i][j] {
					t.Fatalf("(A+B)(%d,%d) = %d, want %d", i, j, got[i][j], da[i][j]+db[i][j])
				}
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := randomMatrix(rng, n, rng.Intn(25))
		return a.Transpose().Transpose().Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTransposeEntries(t *testing.T) {
	a := New(3, []Triple{{0, 1, 4}, {2, 0, 7}})
	at := a.Transpose()
	if at.At(1, 0) != 4 || at.At(0, 2) != 7 {
		t.Errorf("transpose entries wrong: %v", dense(at))
	}
	if at.NNZ() != 2 {
		t.Errorf("transpose NNZ = %d, want 2", at.NNZ())
	}
}

func TestBoolean(t *testing.T) {
	a := New(2, []Triple{{0, 0, 5}, {0, 1, -3}, {1, 1, 1}})
	b := a.Boolean()
	if b.At(0, 0) != 1 || b.At(1, 1) != 1 {
		t.Error("positive entries must become 1")
	}
	if b.At(0, 1) != 0 {
		t.Error("negative entries must become 0")
	}
}

func TestDiagMulBool(t *testing.T) {
	// M_[p] = diag{M (Mᵀ>0)}; entry (u,u) must be the row sum of
	// positive entries.
	a := New(3, []Triple{{0, 1, 2}, {0, 2, 3}, {1, 0, 1}})
	d := a.DiagMulBool()
	if d.At(0, 0) != 5 {
		t.Errorf("diag(0,0) = %d, want 5", d.At(0, 0))
	}
	if d.At(1, 1) != 1 {
		t.Errorf("diag(1,1) = %d, want 1", d.At(1, 1))
	}
	if d.At(2, 2) != 0 {
		t.Errorf("diag(2,2) = %d, want 0", d.At(2, 2))
	}
	if d.At(0, 1) != 0 || d.At(1, 0) != 0 {
		t.Error("off-diagonal entries must be 0")
	}
}

func TestDiagMulBoolMatchesDefinition(t *testing.T) {
	// Property: DiagMulBool(M) equals the diagonal of M·(Mᵀ>0) exactly.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(8)
		a := randomMatrix(rng, n, rng.Intn(16))
		want := a.Mul(a.Transpose().Boolean())
		got := a.DiagMulBool()
		for i := 0; i < n; i++ {
			if got.At(i, i) != want.At(i, i) {
				t.Fatalf("diag(%d) = %d, want %d", i, got.At(i, i), want.At(i, i))
			}
		}
	}
}

func TestBooleanClosure(t *testing.T) {
	// 0→1→2, 3 isolated. Closure must have 0⇝2, reflexivity, no 3-links.
	a := New(4, []Triple{{0, 1, 1}, {1, 2, 1}})
	c := a.BooleanClosure()
	checks := []struct {
		r, c int
		want int64
	}{
		{0, 0, 1}, {1, 1, 1}, {3, 3, 1},
		{0, 1, 1}, {0, 2, 1}, {1, 2, 1},
		{2, 0, 0}, {0, 3, 0}, {3, 0, 0},
	}
	for _, ck := range checks {
		if got := c.At(ck.r, ck.c); got != ck.want {
			t.Errorf("closure(%d,%d) = %d, want %d", ck.r, ck.c, got, ck.want)
		}
	}
}

func TestBooleanClosureCycle(t *testing.T) {
	a := New(3, []Triple{{0, 1, 1}, {1, 2, 1}, {2, 0, 1}})
	c := a.BooleanClosure()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if c.At(i, j) != 1 {
				t.Errorf("cycle closure (%d,%d) = %d, want 1", i, j, c.At(i, j))
			}
		}
	}
}

func TestRowSumsAndSum(t *testing.T) {
	a := New(3, []Triple{{0, 0, 1}, {0, 2, 2}, {2, 1, 4}})
	rs := a.RowSums()
	if rs[0] != 3 || rs[1] != 0 || rs[2] != 4 {
		t.Errorf("RowSums = %v", rs)
	}
	if sum := rs[0] + rs[1] + rs[2]; sum != 7 {
		t.Errorf("sum of RowSums = %d, want 7", sum)
	}
}

func TestMulAssociative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a := randomMatrix(rng, n, rng.Intn(10))
		b := randomMatrix(rng, n, rng.Intn(10))
		c := randomMatrix(rng, n, rng.Intn(10))
		return a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTransposeOfProduct(t *testing.T) {
	// (AB)ᵀ = BᵀAᵀ — the identity behind M_{(p1·p2)⁻} = M_{p2⁻}·M_{p1⁻}.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a := randomMatrix(rng, n, rng.Intn(10))
		b := randomMatrix(rng, n, rng.Intn(10))
		return a.Mul(b).Transpose().Equal(b.Transpose().Mul(a.Transpose()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDense(t *testing.T) {
	d := [][]int64{{0, 1}, {2, 0}}
	if got := dense(fromDense(d)); got[0][1] != 1 || got[1][0] != 2 {
		t.Errorf("round trip failed: %v", got)
	}
}

func TestStringSmall(t *testing.T) {
	a := New(2, []Triple{{0, 1, 1}})
	if got := a.String(); got != "0 1\n0 0\n" {
		t.Errorf("String = %q", got)
	}
}

// forceSerial and forceParallel pin the gate of MulThresh to
// one side, so a test can run the same product through the row kernel
// on one goroutine and on GOMAXPROCS of them.
var (
	forceSerial   = Thresholds{MinDim: math.MaxInt}
	forceParallel = Thresholds{}
)

func TestMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 6; trial++ {
		n := parallelMinDim + rng.Intn(400)
		a := randomMatrix(rng, n, parallelMinNNZ+rng.Intn(20000))
		b := randomMatrix(rng, n, parallelMinNNZ+rng.Intn(20000))
		want := frozenFrom(a).mul(frozenFrom(b))
		byteIdentical(t, "serial", a.MulThresh(b, forceSerial), want)
		byteIdentical(t, "parallel", a.MulThresh(b, forceParallel), want)
		byteIdentical(t, "gated", a.Mul(b), want)
	}
}

func TestMulParallelSmallRowCounts(t *testing.T) {
	// Edge case: more workers than rows must still be correct.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	rng := rand.New(rand.NewSource(19))
	for n := 1; n <= 3; n++ {
		a := randomMatrix(rng, n, 2*n)
		b := randomMatrix(rng, n, 2*n)
		byteIdentical(t, "parallel", a.MulThresh(b, forceParallel), frozenFrom(a).mul(frozenFrom(b)))
	}
}
