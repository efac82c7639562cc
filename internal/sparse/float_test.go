package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomFloat(rng *rand.Rand, n, nnz int) *FloatMatrix {
	ts := make([]Triple, nnz)
	for i := range ts {
		ts[i] = Triple{Row: rng.Intn(n), Col: rng.Intn(n), Val: int64(1 + rng.Intn(4))}
	}
	return Lift[float64, FloatRing](New(n, ts))
}

func TestLiftToFloat(t *testing.T) {
	m := New(2, []Triple{{0, 1, 3}})
	f := Lift[float64, FloatRing](m)
	if f.At(0, 1) != 3 || f.At(1, 0) != 0 {
		t.Errorf("lifted entries wrong")
	}
	if f.Dim() != 2 || f.NNZ() != 1 {
		t.Errorf("Dim/NNZ wrong: %d, %d", f.Dim(), f.NNZ())
	}
}

func TestRowNormalize(t *testing.T) {
	m := New(3, []Triple{{0, 0, 1}, {0, 1, 3}, {2, 2, 5}})
	f := RowNormalize(Lift[float64, FloatRing](m))
	if got := f.At(0, 0) + f.At(0, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("row 0 sums to %v, want 1", got)
	}
	if got := f.At(0, 1); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("f(0,1) = %v, want 0.75", got)
	}
	if got := f.At(2, 2); math.Abs(got-1) > 1e-12 {
		t.Errorf("f(2,2) = %v, want 1", got)
	}
	// Zero rows stay zero (dangling nodes).
	if got := f.At(1, 1); got != 0 {
		t.Errorf("zero row changed: %v", got)
	}
}

func TestRowNormalizeStochasticProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		m := RowNormalize(randomFloat(rng, n, rng.Intn(20)))
		for r := 0; r < n; r++ {
			var sum float64
			m.Row(r, func(_ int, v float64) { sum += v })
			if sum != 0 && math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFloatTranspose(t *testing.T) {
	m := Lift[float64, FloatRing](New(3, []Triple{{0, 1, 2}, {2, 0, 7}}))
	ft := m.Transpose()
	if ft.At(1, 0) != 2 || ft.At(0, 2) != 7 {
		t.Error("float transpose entries wrong")
	}
}

func TestMulVec(t *testing.T) {
	m := Lift[float64, FloatRing](New(2, []Triple{{0, 0, 1}, {0, 1, 2}, {1, 0, 3}}))
	y := MulVec(m, []float64{1, 1})
	if y[0] != 3 || y[1] != 3 {
		t.Errorf("MulVec = %v, want [3 3]", y)
	}
}

func TestVecMul(t *testing.T) {
	m := Lift[float64, FloatRing](New(2, []Triple{{0, 0, 1}, {0, 1, 2}, {1, 0, 3}}))
	y := VecMul(m, []float64{1, 1})
	// y = xᵀM: y[0] = 1·1 + 1·3 = 4; y[1] = 1·2 = 2.
	if y[0] != 4 || y[1] != 2 {
		t.Errorf("VecMul = %v, want [4 2]", y)
	}
}

func TestVecMulMatchesTransposeMulVec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		m := randomFloat(rng, n, rng.Intn(16))
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
		}
		a := VecMul(m, x)
		b := MulVec(m.Transpose(), x)
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMulVecPanicsOnLength(t *testing.T) {
	m := Lift[float64, FloatRing](New(2, nil))
	for _, fn := range []func(){
		func() { MulVec(m, []float64{1}) },
		func() { VecMul(m, []float64{1, 2, 3}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
