package server

// Semiring-annotated serving: the annotate= parameter on /search,
// /batch and /explain. An annotated request evaluates the pattern's
// commuting matrix over the witness semiring (internal/sparse) in
// addition to the integer ranking matrices; the witness matrix is
// cached in the same versioned cache under a ring-tagged key, so a
// later /explain?annotate=witness on the same (version, pattern) is a
// pure projection — it reads the cached annotation and materializes
// zero additional matrix products. Commit-time maintenance patches
// only integer entries forward (the witness semiring has no
// subtraction); each commit evicts the touched annotated entries, so a
// projection can never serve a stale derivation.

import (
	"fmt"
	"net/http"

	"relsim/internal/eval"
	"relsim/internal/graph"
	"relsim/internal/rre"
	"relsim/internal/sparse"
	"relsim/internal/telemetry"
)

// AnnotateWitness is the one annotation mode the HTTP surface accepts:
// counts plus a bounded shortlex-minimal derivation prefix per entry.
// (The counting semiring exists at the library layer — see
// eval.CommutingCount — but adds nothing over the integer path for
// serving, so it is not exposed as a request parameter.)
const AnnotateWitness = "witness"

// WitnessStep is one intermediate node of a witness derivation.
type WitnessStep struct {
	ID   graph.NodeID `json:"id"`
	Name string       `json:"name,omitempty"`
}

// WitnessInfo is the serialized witness annotation for one (query,
// answer) pair: the instance count, the intermediate nodes of one
// shortlex-minimal derivation (at most sparse.MaxWitnessSteps — Steps
// is a prefix and Truncated is set when the derivation is longer), and
// the derivation's total intermediate-node count.
type WitnessInfo struct {
	Count     int64         `json:"count"`
	Steps     []WitnessStep `json:"steps,omitempty"`
	PathNodes int           `json:"path_nodes"`
	Truncated bool          `json:"truncated,omitempty"`
}

// witnessInfo renders a witness value with node names resolved against
// the request's snapshot.
func witnessInfo(g graph.View, w sparse.Witness) *WitnessInfo {
	steps := w.Steps()
	info := &WitnessInfo{
		Count:     w.Count,
		PathNodes: int(w.Total),
		Truncated: w.Truncated(),
	}
	for _, id := range steps {
		info.Steps = append(info.Steps, WitnessStep{
			ID:   graph.NodeID(id),
			Name: g.Node(graph.NodeID(id)).Name,
		})
	}
	return info
}

// mergeAnnotate folds the ?annotate= query parameter over the request
// body's field (the parameter wins) and validates the result: only ""
// and "witness" are accepted.
func mergeAnnotate(r *http.Request, body string) (string, error) {
	v := body
	if q := r.URL.Query().Get("annotate"); q != "" {
		v = q
	}
	if v != "" && v != AnnotateWitness {
		return "", fmt.Errorf("invalid annotate %q (want %q)", v, AnnotateWitness)
	}
	return v, nil
}

// annotationSurcharge prices the witness twin of an annotated query:
// the annotated kernel folds the pattern as written (not its
// Algorithm-1 expansion, and not its halves) left to right, at
// eval.AnnotationCostFactor integer-product equivalents per product.
// Zero for unannotated queries and for patterns that do not parse (the
// handler reports those).
func annotationSurcharge(req *SearchRequest) int {
	if req.Annotate == "" {
		return 0
	}
	p, err := rre.Parse(req.Pattern)
	if err != nil {
		return 0
	}
	return eval.AnnotationCostFactor * eval.EstimateProducts([]*rre.Pattern{p})
}

// annotateResults attaches witness annotations to a ranked answer
// list: the witness commuting matrix of the base pattern (as written,
// not its Algorithm-1 expansion — the derivation explains the user's
// pattern) is evaluated through the ring-tagged cache and projected at
// (query, answer) for every result. The matrix this materializes is
// exactly what a later /explain?annotate=witness projects from warm.
func (s *Server) annotateResults(ev *eval.Evaluator, req *SearchRequest, q graph.NodeID, results []ScoredNode) error {
	p, err := rre.Parse(req.Pattern)
	if err != nil {
		return err
	}
	s.nAnnotated.Add(1)
	wm := ev.CommutingWitness(p)
	g := ev.Graph()
	for i := range results {
		if w, ok := eval.WitnessLookup(wm, q, results[i].ID); ok {
			results[i].Witness = witnessInfo(g, w)
		}
	}
	return nil
}

// SemiringStats is the /stats view of semiring-annotated serving:
// annotated requests served, products spent in annotated kernels, and
// the /explain split between witness projections (warm ones
// materialized zero products) and legacy instance enumeration.
type SemiringStats struct {
	AnnotatedRequests  uint64 `json:"annotated_requests"`
	AnnotatedProducts  uint64 `json:"annotated_products"`
	ExplainProjections uint64 `json:"explain_projections"`
	ExplainWarm        uint64 `json:"explain_warm_projections"`
	ExplainLegacy      uint64 `json:"explain_legacy"`
}

// semiringStats snapshots the annotation counters.
func (s *Server) semiringStats() SemiringStats {
	return SemiringStats{
		AnnotatedRequests:  s.nAnnotated.Load(),
		AnnotatedProducts:  s.nAnnotatedProducts.Load(),
		ExplainProjections: s.nExplainProjected.Load(),
		ExplainWarm:        s.nExplainWarm.Load(),
		ExplainLegacy:      s.nExplainLegacy.Load(),
	}
}

// instrumentSemiring registers the relsim_semiring_* and
// relsim_explain_* series — scrape-time callbacks over the same
// counters /stats reports, so the two surfaces cannot drift.
func (s *Server) instrumentSemiring(reg *telemetry.Registry) {
	reg.CounterFunc("relsim_semiring_annotated_requests_total",
		"Requests that evaluated a semiring-annotated commuting matrix.",
		func() float64 { return float64(s.nAnnotated.Load()) })
	reg.CounterFunc("relsim_semiring_annotated_products_total",
		"Matrix products performed by annotated (non-integer) semiring kernels.",
		func() float64 { return float64(s.nAnnotatedProducts.Load()) })
	reg.CounterFunc("relsim_explain_projections_total",
		"/explain responses answered as witness-annotation projections.",
		func() float64 { return float64(s.nExplainProjected.Load()) })
	reg.CounterFunc("relsim_explain_warm_projections_total",
		"Witness projections served entirely from cache (zero matrix products).",
		func() float64 { return float64(s.nExplainWarm.Load()) })
	reg.CounterFunc("relsim_explain_legacy_total",
		"/explain responses answered by legacy instance enumeration.",
		func() float64 { return float64(s.nExplainLegacy.Load()) })
}
