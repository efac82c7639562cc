package eval

import (
	"relsim/internal/graph"
	"relsim/internal/rre"
	"relsim/internal/sparse"
)

// Annotated (provenance-carrying) evaluation: the walk of walk.go run
// over an annotation semiring, so every entry of the result carries its
// derivation metadata computed *during* SpGEMM — no second pass, no
// instance enumeration. Results are cached in the shared versioned
// cache under ring-tagged keys, which is what lets a warm /explain be a
// pure projection: the witness matrix a previous annotated request
// materialized is read back with zero additional products. Unlike
// Commuting, an annotated root is not cut into halves: the product of a
// left half and a transposed reversed right half would list the right
// half's vias in reverse.

// RingWitness is the witness ring's tag for annotated cache keys and
// request parameters: its Name. The integer ring's tag is the empty
// string (see Key).
const RingWitness = "witness"

// AnnotationCostFactor weights product-count estimates for annotated
// evaluation: an annotated product runs the same Gustavson kernel over
// entries a constant factor wider than int64 (a Witness is ~3 words
// plus the via prefix), so admission prices it as this many integer
// products. Measured on the dblp fixtures the witness kernel lands at
// 1.5–2x the integer kernel; 2 keeps the 422 pricing conservative.
const AnnotationCostFactor = 2

// EstimateProductsAnnotated prices a pattern set for a request that
// evaluates both the integer ranking matrices and their annotated
// twins: the integer estimate plus the annotation surcharge.
func EstimateProductsAnnotated(patterns []*rre.Pattern) int {
	base := EstimateProducts(patterns)
	return base * (1 + AnnotationCostFactor)
}

// CommutingWitness returns the witness-annotated commuting matrix of p:
// entry (u,v) carries |I^{u,v}(p)| as a saturating count plus a bounded
// derivation prefix (the first sparse.MaxWitnessSteps intermediate
// nodes of a shortlex-minimal derivation). Results are cached under
// ("witness", pattern) over a validity interval, p canonicalized like
// an integer key (canonForm).
func (e *Evaluator) CommutingWitness(p *rre.Pattern) *sparse.WitnessMatrix {
	return walk[sparse.Witness](e, sparse.WitnessRing{}).eval(canonForm(p))
}

// WitnessPathSimScore computes Equation 1 of the paper from a
// witness-annotated commuting matrix's counts — the projection
// counterpart of PathSimScore, so a warm /explain never needs the
// integer matrix.
func WitnessPathSimScore(m *sparse.WitnessMatrix, u, v graph.NodeID) float64 {
	count := func(x, y graph.NodeID) int64 { return m.At(int(x), int(y)).Count }
	return Eq1(count(u, v), count(u, u)+count(v, v))
}
