package sparse

import "math"

// Semiring algebra. A Ring[T] is the second type parameter of the one
// matrix type, GMatrix[T, R]: the commuting-matrix operators (Mul, Add,
// Boolean, DiagMulBool, closure) are its methods, written once against
// this interface and instantiated per ring. The integer ring is the
// canonical instance — Matrix is GMatrix[int64, IntRing] — so the
// production hot path and the annotated paths run the same code.
//
// Ring instances are zero-size structs: a method takes its ring from
// R's zero value, so a matrix carries no ring at run time and an
// operator allocates nothing per element for it.

// Ring is the semiring parameter of GMatrix.
//
// MulVia is the ⊗ of the semiring with the SpGEMM intermediate node
// attached: when row r of the left operand meets column c of the right
// through index k, the kernel combines the two entries as
// MulVia(a, k, b). Numeric rings ignore k; provenance rings fold it
// into the annotation. Because k is the product's contraction index —
// not a row or column position — annotations commute with Transpose.
//
// Truthy is the "counts as present" test used by Boolean collapse and
// support comparison; Collapse maps a truthy value to its boolean image
// (count 1, annotations preserved). IsZero identifies the additive
// identity so kernels can drop entries and keep CSR canonical: no
// explicit zeros, columns ascending, rows in order.
type Ring[T any] interface {
	Zero() T
	One() T
	Add(a, b T) T
	MulVia(a T, k int32, b T) T
	IsZero(a T) bool
	Truthy(a T) bool
	Collapse(a T) T
	Lift(v int64) T
	Name() string
}

// IntRing is the canonical instance: plain int64 arithmetic, exactly
// the algebra the paper's §4.3 commuting matrices use. It is the only
// ring with an exact additive inverse, which is what licenses the signed
// delta algebra (delta.go) and so delta maintenance of the production
// cache; the other rings are maintained by eviction and recompute.
type IntRing struct{}

func (IntRing) Zero() int64                            { return 0 }
func (IntRing) One() int64                             { return 1 }
func (IntRing) Add(a, b int64) int64                   { return a + b }
func (IntRing) MulVia(a int64, _ int32, b int64) int64 { return a * b }
func (IntRing) IsZero(a int64) bool                    { return a == 0 }
func (IntRing) Truthy(a int64) bool                    { return a > 0 }
func (IntRing) Collapse(int64) int64                   { return 1 }
func (IntRing) Lift(v int64) int64                     { return v }
func (IntRing) Name() string                           { return "int" }

// FloatRing is plain float64 arithmetic, the ring of FloatMatrix.
type FloatRing struct{}

func (FloatRing) Zero() float64                                { return 0 }
func (FloatRing) One() float64                                 { return 1 }
func (FloatRing) Add(a, b float64) float64                     { return a + b }
func (FloatRing) MulVia(a float64, _ int32, b float64) float64 { return a * b }
func (FloatRing) IsZero(a float64) bool                        { return a == 0 }
func (FloatRing) Truthy(a float64) bool                        { return a > 0 }
func (FloatRing) Collapse(float64) float64                     { return 1 }
func (FloatRing) Lift(v int64) float64                         { return float64(v) }
func (FloatRing) Name() string                                 { return "float" }

// CountRing is the saturating counting semiring ℕ ∪ {∞} with ∞ encoded
// as MaxInt64: addition and multiplication clamp instead of wrapping,
// so huge instance counts degrade to a ceiling rather than going
// negative. It has no subtraction (saturation destroys inverses).
// WitnessRing counts with its arithmetic.
type CountRing struct{}

func (CountRing) Zero() int64          { return 0 }
func (CountRing) One() int64           { return 1 }
func (CountRing) IsZero(a int64) bool  { return a == 0 }
func (CountRing) Truthy(a int64) bool  { return a > 0 }
func (CountRing) Collapse(int64) int64 { return 1 }
func (CountRing) Name() string         { return "count" }

func (CountRing) Lift(v int64) int64 {
	if v < 0 {
		return 0
	}
	return v
}

func (CountRing) Add(a, b int64) int64 {
	c := a + b
	if c < a { // both operands are non-negative, so wrap means overflow
		return math.MaxInt64
	}
	return c
}

func (CountRing) MulVia(a int64, _ int32, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	c := a * b
	if c/a != b {
		return math.MaxInt64
	}
	return c
}

// MaxWitnessSteps bounds the recorded derivation prefix per entry, so a
// witness matrix stays O(nnz) regardless of pattern length: each value
// is a fixed-size struct, never a heap path.
const MaxWitnessSteps = 4

// Witness is a value of the witness-path semiring: a saturating
// instance count plus one bounded derivation — the first
// MaxWitnessSteps intermediate nodes of a cheapest (shortlex-minimal)
// derivation of the entry, with Total recording the full product depth
// even when the prefix is truncated.
//
// The annotation order is shortlex on (Total, Via prefix). Shortlex is
// translation-invariant under concatenation, which is what makes
// (min-shortlex, concat-truncate) associative and distributive on the
// truncated representation — a per-step "head edge" annotation is not
// (min over heads fails distributivity), which is why the vias are a
// sequence, not a single edge.
type Witness struct {
	Count int64
	Len   uint8 // recorded steps = min(Total, MaxWitnessSteps)
	Total int32 // full derivation depth in product steps
	Via   [MaxWitnessSteps]int32
}

// Steps returns the recorded via nodes (length Len ≤ MaxWitnessSteps).
func (w Witness) Steps() []int32 { return w.Via[:w.Len] }

// Truncated reports whether the derivation is deeper than the recorded
// prefix.
func (w Witness) Truncated() bool { return int32(w.Len) < w.Total }

// shortlexLess orders annotations: shorter derivations first, then
// lexicographically on the recorded prefix. Counts are ignored — the
// annotation half of the semiring is independent of the counting half.
func shortlexLess(a, b Witness) bool {
	if a.Total != b.Total {
		return a.Total < b.Total
	}
	for i := uint8(0); i < a.Len && i < b.Len; i++ {
		if a.Via[i] != b.Via[i] {
			return a.Via[i] < b.Via[i]
		}
	}
	return false // equal representations
}

// WitnessRing is the bounded witness-path semiring: counts add and
// multiply as in CountRing, annotations combine by shortlex-min under ⊕
// and by via-sequence concatenation (truncated to MaxWitnessSteps)
// under ⊗. Zero values are normalized to the canonical Witness{} so
// IsZero is a simple count test. It has no subtraction.
type WitnessRing struct{}

// WitnessMatrix is the one matrix type at WitnessRing: every entry
// carries a count and a bounded derivation.
type WitnessMatrix = GMatrix[Witness, WitnessRing]

func (WitnessRing) Zero() Witness { return Witness{} }
func (WitnessRing) One() Witness  { return Witness{Count: 1} }

func (WitnessRing) IsZero(a Witness) bool { return a.Count == 0 }
func (WitnessRing) Truthy(a Witness) bool { return a.Count > 0 }
func (WitnessRing) Name() string          { return "witness" }

// Collapse keeps the derivation but resets the count to one — the
// boolean image of a witnessed entry still explains itself.
func (WitnessRing) Collapse(a Witness) Witness {
	a.Count = 1
	return a
}

func (WitnessRing) Lift(v int64) Witness {
	if v <= 0 {
		return Witness{}
	}
	return Witness{Count: v}
}

func (WitnessRing) Add(a, b Witness) Witness {
	if a.Count == 0 {
		return b
	}
	if b.Count == 0 {
		return a
	}
	count := CountRing{}.Add(a.Count, b.Count)
	if shortlexLess(b, a) {
		a = b
	}
	a.Count = count
	return a
}

func (WitnessRing) MulVia(a Witness, k int32, b Witness) Witness {
	if a.Count == 0 || b.Count == 0 {
		return Witness{}
	}
	p := Witness{
		Count: CountRing{}.MulVia(a.Count, 0, b.Count),
		Total: a.Total + 1 + b.Total,
	}
	n := uint8(0)
	for i := uint8(0); i < a.Len && n < MaxWitnessSteps; i++ {
		p.Via[n] = a.Via[i]
		n++
	}
	if n < MaxWitnessSteps {
		p.Via[n] = k
		n++
	}
	for i := uint8(0); i < b.Len && n < MaxWitnessSteps; i++ {
		p.Via[n] = b.Via[i]
		n++
	}
	p.Len = n
	return p
}
