package eval

import (
	"relsim/internal/graph"
	"relsim/internal/rre"
	"relsim/internal/sparse"
)

// Annotated (provenance-carrying) evaluation: the walk of walk.go and
// the row push of push.go run over an annotation semiring, so every
// entry carries its derivation metadata computed during the
// evaluation: no second pass, no instance enumeration. A read pushes
// the query's row through the pattern as written (WitnessRow) and never
// builds the pattern's witness matrix; only a composite factor's
// witness matrix is built, for that one call, and none is cached.
// Transpose keeps a witness's ordered Via list, so a reversed composite
// lists its vias in reverse.

// AnnotationCostFactor weights product-count estimates for annotated
// evaluation: an annotated product runs the same Gustavson kernel over
// entries a constant factor wider than int64 (a Witness is ~3 words
// plus the via prefix), so admission prices it as this many integer
// products. Only a push's composite factors take annotated products; a
// label chain takes none. Measured on the dblp fixtures the witness
// kernel lands at 1.5–2x the integer kernel; 2 keeps the 422 pricing
// conservative.
const AnnotationCostFactor = 2

// CommutingWitness returns the witness-annotated commuting matrix of p:
// entry (u,v) carries |I^{u,v}(p)| as a saturating count plus a bounded
// derivation prefix (the first sparse.MaxWitnessSteps intermediate
// nodes of a shortlex-minimal derivation), p canonicalized like an
// integer key (canonForm). Nothing is cached: each call walks anew.
func (e *Evaluator) CommutingWitness(p *rre.Pattern) *sparse.WitnessMatrix {
	return walk[sparse.Witness](e, sparse.WitnessRing{}).eval(canonForm(p))
}

// WitnessRow returns row u of CommutingWitness(p) without building that
// matrix: e_u pushed through p over the witness ring (push.go). MulVia
// is associative, so the fold changes no via.
func (e *Evaluator) WitnessRow(p *rre.Pattern, u graph.NodeID) Row[sparse.Witness, sparse.WitnessRing] {
	return walk[sparse.Witness](e, sparse.WitnessRing{}).push(canonForm(p), int32(u))
}
