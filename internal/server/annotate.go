package server

// Semiring-annotated serving: the annotate= parameter on /search and
// /batch, and the witness every /explain answers with. A read pushes
// the query's row through the pattern as written over the witness ring
// (eval.Evaluator.WitnessRow): a label step reads the snapshot's own
// rows, so a label chain performs no product and caches nothing. Only
// a star, nest, skip or reversed composite factor builds its witness
// matrix, for that one read; no witness matrix is ever cached, so a
// commit has none to close and a read never serves a stale derivation.

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
func witnessInfo(g *graph.Snapshot, w sparse.Witness) *WitnessInfo {
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

// annotationSurcharge prices the witness push an annotated query
// reads: that of the pattern as written (not its Algorithm-1
// expansion), at eval.AnnotationCostFactor integer-product equivalents
// per product of its composite factors (pushCost). Zero for unannotated
// queries, for label chains, and for patterns that do not parse (the
// handler reports those).
func (s *Server) annotationSurcharge(req *SearchRequest) int {
	if req.Annotate == "" {
		return 0
	}
	qs, err := s.memoQuerySet(req.Pattern, false)
	if err != nil {
		return 0
	}
	return eval.AnnotationCostFactor * pushCost(qs.ps[0])
}

// pushCost prices a row push of p in integer products: those of the
// composite factors it takes from the walk (eval.PushReads). A label
// chain costs 0.
func pushCost(p *rre.Pattern) int {
	return eval.EstimateProducts(eval.PushReads(p))
}

// annotateResults attaches witness annotations to a ranked answer
// list: the query's witness row of the base pattern (as written, not
// its Algorithm-1 expansion — the derivation explains the user's
// pattern), read at every result. Its pattern comes from the query-set
// memo.
func (s *Server) annotateResults(ev *eval.Evaluator, req *SearchRequest, q graph.NodeID, results []ScoredNode) error {
	qs, err := s.memoQuerySet(req.Pattern, false)
	if err != nil {
		return err
	}
	s.n.annotated.Inc()
	row := ev.WitnessRow(qs.ps[0], q)
	g := ev.Graph()
	for i := range results {
		if w, ok := row.At(results[i].ID); ok {
			results[i].Witness = witnessInfo(g, w)
		}
	}
	return nil
}

// SemiringStats is the /stats view of semiring-annotated serving:
// annotated requests served, products spent in annotated kernels (a
// push's composite witness factors), and the /explain responses, each
// a count, a score and a witness pushed from the pattern, with how many
// of them performed zero products, as every label chain's does.
type SemiringStats struct {
	AnnotatedRequests  uint64 `json:"annotated_requests"`
	AnnotatedProducts  uint64 `json:"annotated_products"`
	ExplainProjections uint64 `json:"explain_projections"`
	ExplainWarm        uint64 `json:"explain_warm_projections"`
}

// semiringStats snapshots the annotation counters.
func (s *Server) semiringStats() SemiringStats {
	return SemiringStats{
		AnnotatedRequests:  count(s.n.annotated),
		AnnotatedProducts:  count(s.n.annotatedProducts),
		ExplainProjections: count(s.n.explainProjected),
		ExplainWarm:        count(s.n.explainWarm),
	}
}

// instrumentSemiring registers the relsim_semiring_* and
// relsim_explain_* counters.
func (s *Server) instrumentSemiring(reg *telemetry.Registry) {
	s.n.annotated = counter(reg, "relsim_semiring_annotated_requests_total",
		"Requests that read a semiring-annotated row.")
	s.n.annotatedProducts = counter(reg, "relsim_semiring_annotated_products_total",
		"Matrix products performed by annotated (non-integer) semiring kernels.")
	s.n.explainProjected = counter(reg, "relsim_explain_projections_total",
		"/explain responses: a count, a score and a witness pushed from the pattern's rows.")
	s.n.explainWarm = counter(reg, "relsim_explain_warm_projections_total",
		"/explain responses that performed zero matrix products.")
}
