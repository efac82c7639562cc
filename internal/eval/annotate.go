package eval

import (
	"slices"

	"relsim/internal/graph"
	"relsim/internal/rre"
	"relsim/internal/sparse"
)

// Annotated (provenance-carrying) evaluation: the walk of walk.go run
// over an annotation semiring, so every entry of the result carries its
// derivation metadata computed *during* SpGEMM — no second pass, no
// instance enumeration. Results are cached in the shared versioned
// cache under ring-tagged keys. A read is cut like an integer one and
// pushes row u of the left half through the right half as written
// (WitnessRow), never building the root. Transpose keeps a witness's
// ordered Via list, so a reversed right half would list its vias in
// reverse.

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

// CommutingWitness returns the witness-annotated commuting matrix of p:
// entry (u,v) carries |I^{u,v}(p)| as a saturating count plus a bounded
// derivation prefix (the first sparse.MaxWitnessSteps intermediate
// nodes of a shortlex-minimal derivation). Results are cached under
// ("witness", pattern) over a validity interval, p canonicalized like
// an integer key (canonForm).
func (e *Evaluator) CommutingWitness(p *rre.Pattern) *sparse.WitnessMatrix {
	return walk[sparse.Witness](e, sparse.WitnessRing{}).eval(canonForm(p))
}

// WitnessRow is row u of a pattern's witness matrix: its columns
// ascending and their witnesses.
type WitnessRow struct {
	cols []int32
	ws   []sparse.Witness
}

// Len returns the number of witnesses stored in the row.
func (r WitnessRow) Len() int { return len(r.cols) }

// At returns the witness at (u, v) and whether one is stored.
func (r WitnessRow) At(v graph.NodeID) (sparse.Witness, bool) {
	if i, ok := slices.BinarySearch(r.cols, int32(v)); ok {
		return r.ws[i], true
	}
	return sparse.Witness{}, false
}

// WitnessRow returns row u of CommutingWitness of a Cut's pattern
// without building that matrix: row u of W_Left pushed through W_Right
// (sparse.GMatrix.MulRow), both cached under the witness tag; MulVia is
// associative, so the split changes no via.
func (e *Evaluator) WitnessRow(c Cut, u graph.NodeID) WitnessRow {
	w := walk[sparse.Witness](e, sparse.WitnessRing{})
	a := w.eval(c.Left)
	if c.Right == nil {
		cols, ws := a.RowView(int(u))
		return WitnessRow{cols, ws}
	}
	cols, ws := a.MulRow(int(u), w.eval(c.Right))
	return WitnessRow{cols, ws}
}
