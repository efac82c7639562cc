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
// the annotated walk evaluates the pattern as written (not its
// Algorithm-1 expansion, and not its halves), at
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
	s.n.annotated.Inc()
	wm := ev.CommutingWitness(p)
	g := ev.Graph()
	for i := range results {
		if w, ok := wm.Lookup(int(q), int(results[i].ID)); ok {
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
		AnnotatedRequests:  count(s.n.annotated),
		AnnotatedProducts:  count(s.n.annotatedProducts),
		ExplainProjections: count(s.n.explainProjected),
		ExplainWarm:        count(s.n.explainWarm),
		ExplainLegacy:      count(s.n.explainLegacy),
	}
}

// instrumentSemiring registers the relsim_semiring_* and
// relsim_explain_* counters.
func (s *Server) instrumentSemiring(reg *telemetry.Registry) {
	s.n.annotated = counter(reg, "relsim_semiring_annotated_requests_total",
		"Requests that evaluated a semiring-annotated commuting matrix.")
	s.n.annotatedProducts = counter(reg, "relsim_semiring_annotated_products_total",
		"Matrix products performed by annotated (non-integer) semiring kernels.")
	s.n.explainProjected = counter(reg, "relsim_explain_projections_total",
		"/explain responses answered as witness-annotation projections.")
	s.n.explainWarm = counter(reg, "relsim_explain_warm_projections_total",
		"Witness projections served entirely from cache (zero matrix products).")
	s.n.explainLegacy = counter(reg, "relsim_explain_legacy_total",
		"/explain responses answered by legacy instance enumeration.")
}
