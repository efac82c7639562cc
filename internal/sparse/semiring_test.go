package sparse

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// randWitness builds a canonical witness from ring operations only:
// lift a count, then extend the derivation one product step at a time.
// Building through the ring (rather than struct literals) guarantees
// the Via tail stays zeroed, so == is structural equality.
func randWitness(rng *rand.Rand) Witness {
	ring := WitnessRing{}
	if rng.Intn(8) == 0 {
		return ring.Zero()
	}
	w := ring.Lift(rng.Int63n(1000) + 1)
	steps := rng.Intn(MaxWitnessSteps + 3) // past the truncation bound
	for i := 0; i < steps; i++ {
		w = ring.MulVia(w, int32(rng.Intn(50)), ring.One())
	}
	return w
}

func checkWitnessLaws(t *testing.T, a, b, c Witness, k1, k2 int32) {
	t.Helper()
	ring := WitnessRing{}
	zero, one := ring.Zero(), ring.One()

	if got := ring.Add(ring.Add(a, b), c); got != ring.Add(a, ring.Add(b, c)) {
		t.Fatalf("Add not associative: %+v %+v %+v", a, b, c)
	}
	if ring.Add(a, b) != ring.Add(b, a) {
		t.Fatalf("Add not commutative: %+v %+v", a, b)
	}
	if ring.Add(a, zero) != a || ring.Add(zero, a) != a {
		t.Fatalf("Zero not additive identity for %+v", a)
	}
	// Chained-product associativity is the law SpGEMM reassociation
	// relies on: the contraction indices stay attached to their step.
	l := ring.MulVia(ring.MulVia(a, k1, b), k2, c)
	r := ring.MulVia(a, k1, ring.MulVia(b, k2, c))
	if l != r {
		t.Fatalf("MulVia not associative: %+v %+v %+v via %d,%d: %+v vs %+v", a, b, c, k1, k2, l, r)
	}
	if ring.MulVia(zero, k1, a) != zero || ring.MulVia(a, k1, zero) != zero {
		t.Fatalf("Zero not annihilating for %+v", a)
	}
	// One is neutral for the pure product half: no count change, no
	// derivation steps of its own.
	if one.Count != 1 || one.Len != 0 || one.Total != 0 {
		t.Fatalf("One not canonical: %+v", one)
	}
	// Distributivity over the accumulator is what lets the kernel sum
	// partial products in any interleaving.
	dl := ring.MulVia(a, k1, ring.Add(b, c))
	dr := ring.Add(ring.MulVia(a, k1, b), ring.MulVia(a, k1, c))
	if dl != dr {
		t.Fatalf("left distributivity: %+v·(%+v+%+v) = %+v vs %+v", a, b, c, dl, dr)
	}
	dl = ring.MulVia(ring.Add(a, b), k1, c)
	dr = ring.Add(ring.MulVia(a, k1, c), ring.MulVia(b, k1, c))
	if dl != dr {
		t.Fatalf("right distributivity: (%+v+%+v)·%+v = %+v vs %+v", a, b, c, dl, dr)
	}
}

func TestWitnessSemiringLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		checkWitnessLaws(t, randWitness(rng), randWitness(rng), randWitness(rng),
			int32(rng.Intn(50)), int32(rng.Intn(50)))
	}
}

// FuzzWitnessLaws re-derives the law check from a fuzzed seed so the
// fuzzer can search for law-violating witness combinations beyond the
// fixed random sweep.
func FuzzWitnessLaws(f *testing.F) {
	for _, seed := range []int64{0, 1, 42, 1 << 20, -9000, math.MaxInt64} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 64; i++ {
			checkWitnessLaws(t, randWitness(rng), randWitness(rng), randWitness(rng),
				int32(rng.Intn(50)), int32(rng.Intn(50)))
		}
	})
}

// FuzzCountLaws checks the saturating counting semiring: saturation
// must not break associativity or distributivity (both sides clamp to
// the same ceiling).
func FuzzCountLaws(f *testing.F) {
	f.Add(int64(0), int64(1), int64(2))
	f.Add(int64(math.MaxInt64), int64(2), int64(3))
	f.Add(int64(1)<<40, int64(1)<<40, int64(7))
	f.Fuzz(func(t *testing.T, a, b, c int64) {
		ring := CountRing{}
		a, b, c = ring.Lift(a), ring.Lift(b), ring.Lift(c)
		if ring.Add(ring.Add(a, b), c) != ring.Add(a, ring.Add(b, c)) {
			t.Fatalf("Add not associative: %d %d %d", a, b, c)
		}
		if ring.MulVia(ring.MulVia(a, 0, b), 0, c) != ring.MulVia(a, 0, ring.MulVia(b, 0, c)) {
			t.Fatalf("Mul not associative: %d %d %d", a, b, c)
		}
		if ring.MulVia(a, 0, ring.Add(b, c)) != ring.Add(ring.MulVia(a, 0, b), ring.MulVia(a, 0, c)) {
			t.Fatalf("Mul not distributive: %d %d %d", a, b, c)
		}
	})
}

// randCounts builds a non-negative integer matrix (a plausible
// adjacency or commuting matrix).
func randCounts(rng *rand.Rand, n, nnz int) *Matrix {
	tr := make([]Triple, 0, nnz)
	for i := 0; i < nnz; i++ {
		tr = append(tr, Triple{Row: rng.Intn(n), Col: rng.Intn(n), Val: rng.Int63n(3) + 1})
	}
	return New(n, tr)
}

// TestAnnotatedRingsProjectToIntKernel proves the provenance invariant
// the /explain projection depends on: evaluating over CountRing or
// WitnessRing and projecting counts out reproduces the integer result
// exactly — same support, same counts — for every operator.
func TestAnnotatedRingsProjectToIntKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	th := DefaultThresholds()
	projectCount := func(g *WitnessMatrix) *Matrix {
		return mapEntries[Witness, WitnessRing, int64, IntRing](g, func(w Witness) (int64, bool) { return w.Count, true })
	}
	projectInt := func(g *GMatrix[int64, CountRing]) *Matrix {
		return mapEntries[int64, CountRing, int64, IntRing](g, func(v int64) (int64, bool) { return v, true })
	}

	for iter := 0; iter < 300; iter++ {
		n := 2 + rng.Intn(30)
		a := randCounts(rng, n, rng.Intn(3*n)+1)
		b := randCounts(rng, n, rng.Intn(3*n)+1)
		wa, wb := Lift[Witness, WitnessRing](a), Lift[Witness, WitnessRing](b)
		ca, cb := Lift[int64, CountRing](a), Lift[int64, CountRing](b)

		type pair struct {
			name string
			want *Matrix
			wit  *WitnessMatrix
			cnt  *GMatrix[int64, CountRing]
		}
		cases := []pair{
			{"mul", a.Mul(b), wa.MulThresh(wb, th), ca.MulThresh(cb, th)},
			{"add", a.Add(b), wa.Add(wb), ca.Add(cb)},
			{"boolean", a.Boolean(), wa.Boolean(), ca.Boolean()},
			{"diag", a.DiagMulBool(), wa.DiagMulBool(), ca.DiagMulBool()},
			{"transpose", a.Transpose(), wa.Transpose(), ca.Transpose()},
		}
		for _, c := range cases {
			if got := projectCount(c.wit); !got.Equal(c.want) {
				t.Fatalf("witness %s: count projection diverges from int kernel\ngot:\n%v\nwant:\n%v", c.name, got, c.want)
			}
			if got := projectInt(c.cnt); !got.Equal(c.want) {
				t.Fatalf("count %s: diverges from int kernel\ngot:\n%v\nwant:\n%v", c.name, got, c.want)
			}
		}
		// Closure: witness totals keep growing, so only the support is
		// comparable — and that is the documented contract.
		wc := wa.BooleanClosureBy(func(x, y *WitnessMatrix) *WitnessMatrix { return x.MulThresh(y, th) })
		ic := a.BooleanClosure()
		if !SameSupport(wc, ic) {
			t.Fatalf("witness closure support diverges from int closure")
		}
	}
}

// TestWitnessViasAreIntermediateNodes pins the annotation semantics on
// a concrete path graph: 0→1→2→3 under a three-step product must
// witness the interior nodes 1 and 2.
func TestWitnessViasAreIntermediateNodes(t *testing.T) {
	n := 4
	step := func(u, v int) *WitnessMatrix {
		return Lift[Witness, WitnessRing](New(n, []Triple{{Row: u, Col: v, Val: 1}}))
	}
	m := step(0, 1).Mul(step(1, 2)).Mul(step(2, 3))
	w, ok := m.Lookup(0, 3)
	if !ok {
		t.Fatal("no witness at (0,3)")
	}
	if w.Count != 1 || w.Total != 2 || w.Len != 2 || w.Via[0] != 1 || w.Via[1] != 2 {
		t.Fatalf("witness = %+v, want count 1, vias [1 2]", w)
	}
	// Transpose preserves the annotation verbatim: vias are contraction
	// indices, not positions.
	tw, ok := m.Transpose().Lookup(3, 0)
	if !ok || tw != w {
		t.Fatalf("transpose witness = %+v, want %+v", tw, w)
	}
}

// TestScratchPoolPerEntryType: a witness product between two integer
// ones leaves the integer scratch pooled, so at n = 20,000 the integer
// Mul after it allocates what it does after another integer Mul, its
// result, within a tenth, not a fresh O(n) scratch on top. GOMAXPROCS
// 1 and the collector off make each pool hand back what was put.
func TestScratchPoolPerEntryType(t *testing.T) {
	skipUnderRace(t) // the race detector also drops pooled items at random
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 20000
	rng := rand.New(rand.NewSource(20))
	a := randCounts(rng, n, n)
	wa := Lift[Witness, WitnessRing](a)
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	a.Mul(a)
	afterInt := allocated(func() { a.Mul(a) })
	wa.Mul(wa)
	afterWitness := allocated(func() { a.Mul(a) })
	t.Logf("integer Mul allocates %d bytes after an integer Mul, %d after a witness Mul", afterInt, afterWitness)
	if afterWitness > afterInt+afterInt/10 {
		t.Fatalf("integer Mul after a witness Mul allocated %d bytes, want within 10%% of %d", afterWitness, afterInt)
	}
}
