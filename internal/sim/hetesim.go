package sim

import (
	"fmt"
	"math"

	"relsim/internal/eval"
	"relsim/internal/graph"
	"relsim/internal/rre"
	"relsim/internal/sparse"
)

// HeteSim ranks nodes by the HeteSim relevance measure (Shi et al., TKDE
// 2014), the PathSim extension the paper uses for asymmetric paths such
// as disease⇝drug in BioMed (§7.1). For a relevance path P = R1∘…∘Rl,
// HeteSim(s, t | P) is the cosine of the probability distributions of
// walking forward from s along the first half of P and backward from t
// along the second half:
//
//	HeteSim(s, t) = ⟨x_s, y_t⟩ / (‖x_s‖·‖y_t‖)
//
// where x_s is the row of the row-normalized commuting matrix of
// P_L = R1…R_m at s, y_t the row of the row-normalized commuting matrix
// of (R_{m+1}…R_l)⁻ at t, and m = ⌈l/2⌉. For odd-length paths the paper
// cited decomposes the middle relation into two atomic halves; this
// implementation splits at ⌈l/2⌉ instead, which preserves HeteSim's
// defining property (relevance measured at a meeting point) without
// introducing synthetic middle nodes.
//
// The pattern must be simple. General RRE patterns can be ranked with
// HeteSimRRE, which treats the whole pattern as the forward half when it
// cannot be split.
func HeteSim(ev *eval.Evaluator, p *rre.Pattern, query graph.NodeID, candidates []graph.NodeID) (Ranking, error) {
	steps, ok := p.Steps()
	if !ok {
		return Ranking{}, fmt.Errorf("sim: HeteSim requires a simple pattern, got %s", p)
	}
	mid := (len(steps) + 1) / 2
	left := rre.FromSteps(steps[:mid])
	var right *rre.Pattern
	if mid < len(steps) {
		right = rre.Rev(rre.FromSteps(steps[mid:]))
	}
	return heteSimRank(ev, left, right, query, candidates), nil
}

// HeteSimRRE ranks by HeteSim over an RRE pattern. A top-level
// concatenation is split in the middle; any other shape is treated as a
// single forward half met at the target (right half = ε).
func HeteSimRRE(ev *eval.Evaluator, p *rre.Pattern, query graph.NodeID, candidates []graph.NodeID) Ranking {
	var left, right *rre.Pattern
	if p.Kind() == rre.KindConcat {
		subs := p.Subs()
		mid := (len(subs) + 1) / 2
		left = rre.Concat(subs[:mid]...)
		if mid < len(subs) {
			right = rre.Rev(rre.Concat(subs[mid:]...))
		}
	} else {
		left = p
	}
	return heteSimRank(ev, left, right, query, candidates)
}

// heteSimRank scores candidates as the cosine between the query's
// forward distribution over left and each candidate's backward
// distribution over right (right == nil means the candidate meets the
// walk at itself: its distribution is the indicator vector).
func heteSimRank(ev *eval.Evaluator, left, right *rre.Pattern, query graph.NodeID, candidates []graph.NodeID) Ranking {
	n := ev.Graph().NumNodes()
	lm := transition(ev.Commuting(left))
	x := denseRow(lm, query, n)
	nx := norm(x)
	scores := map[graph.NodeID]float64{}
	if nx == 0 {
		return rankScores(scores, query, candidates)
	}

	var rm *sparse.FloatMatrix
	if right != nil {
		rm = transition(ev.Commuting(right))
	}

	score := func(v graph.NodeID) {
		if v == query {
			return
		}
		var dot, ny float64
		if rm == nil {
			dot, ny = x[v], 1
		} else {
			rm.Row(int(v), func(col int, val float64) {
				dot += val * x[col]
				ny += val * val
			})
			ny = math.Sqrt(ny)
		}
		if ny == 0 || dot == 0 {
			return
		}
		scores[v] = dot / (nx * ny)
	}
	if candidates != nil {
		for _, v := range candidates {
			score(v)
		}
	} else {
		for v := 0; v < n; v++ {
			score(graph.NodeID(v))
		}
	}
	return rankScores(scores, query, candidates)
}

func denseRow(m *sparse.FloatMatrix, row graph.NodeID, n int) []float64 {
	x := make([]float64, n)
	m.Row(int(row), func(col int, val float64) { x[col] = val })
	return x
}

func norm(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}
