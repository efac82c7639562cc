package sim

import (
	"fmt"

	"relsim/internal/eval"
	"relsim/internal/graph"
	"relsim/internal/sparse"
)

// This file implements the further similarity baselines the paper lists
// in §4.1 as structure-sensitive relatives of RWR/SimRank: common
// neighbors, the Katz β measure, and P-Rank (SimRank over both in- and
// out-neighbors). Like the main baselines they are not structurally
// robust; the supplementary robustness experiment exercises them.

// CommonNeighbors ranks candidates by the number of nodes adjacent
// (any label, either direction) to both the query and the candidate.
func CommonNeighbors(ev *eval.Evaluator, query graph.NodeID, candidates []graph.NodeID) Ranking {
	g := ev.Graph()
	n := g.NumNodes()
	qn := neighborSet(g, query)
	scores := map[graph.NodeID]float64{}
	count := func(v graph.NodeID) {
		if v == query {
			return
		}
		c := 0
		forEachNeighbor(g, v, func(w graph.NodeID) {
			if qn[w] {
				c++
			}
		})
		if c > 0 {
			scores[v] = float64(c)
		}
	}
	if candidates != nil {
		for _, v := range candidates {
			count(v)
		}
	} else {
		for v := 0; v < n; v++ {
			count(graph.NodeID(v))
		}
	}
	return rankScores(scores, query, candidates)
}

func neighborSet(g *graph.Snapshot, u graph.NodeID) map[graph.NodeID]bool {
	set := map[graph.NodeID]bool{}
	forEachNeighbor(g, u, func(w graph.NodeID) { set[w] = true })
	return set
}

func forEachNeighbor(g *graph.Snapshot, u graph.NodeID, fn func(graph.NodeID)) {
	for _, l := range g.Labels() {
		for _, w := range g.Out(u, l) {
			fn(w)
		}
		for _, w := range g.In(u, l) {
			fn(w)
		}
	}
}

// KatzOptions configures the Katz β measure.
type KatzOptions struct {
	// Beta is the per-step attenuation; must satisfy 0 < Beta < 1/λmax
	// for the infinite series to converge. The bounded-length variant
	// below converges for any Beta < 1.
	Beta float64
	// MaxLen truncates the path-length series (Katz's Σ β^l · A^l).
	MaxLen int
}

// DefaultKatz returns the conventional β = 0.05 with paths up to
// length 5.
func DefaultKatz() KatzOptions { return KatzOptions{Beta: 0.05, MaxLen: 5} }

// Katz ranks candidates by the truncated Katz index over the combined
// undirected adjacency: score(q, v) = Σ_{l=1..MaxLen} β^l · #paths_l(q, v).
func Katz(ev *eval.Evaluator, opt KatzOptions, query graph.NodeID, candidates []graph.NodeID) Ranking {
	g := ev.Graph()
	var a *sparse.Matrix
	for _, l := range g.Labels() {
		adj := g.Adjacency(l)
		adj = adj.Add(adj.Transpose())
		if a == nil {
			a = adj
		} else {
			a = a.Add(adj)
		}
	}
	if a == nil {
		return Ranking{}
	}
	af := sparse.Lift[float64, sparse.FloatRing](a)
	n := g.NumNodes()
	// Iterate the row vector x ← x·A, accumulating β^l · x.
	x := make([]float64, n)
	x[query] = 1
	acc := make([]float64, n)
	beta := opt.Beta
	for l := 1; l <= opt.MaxLen; l++ {
		x = sparse.VecMul(af, x)
		for i, v := range x {
			acc[i] += beta * v
		}
		beta *= opt.Beta
	}
	scores := map[graph.NodeID]float64{}
	for i, v := range acc {
		if v > 0 {
			scores[graph.NodeID(i)] = v
		}
	}
	return rankScores(scores, query, candidates)
}

// PRankMatrix holds the dense P-Rank similarity matrix, computed once
// and queried many times (a whole workload shares one fixed point).
type PRankMatrix struct {
	n int
	s []float64
}

// NewPRank computes P-Rank (Zhao, Han & Sun, CIKM 2009): the SimRank
// recurrence applied to both in- and out-neighborhoods, weighted by
// lambda:
//
//	s(u,v) = λ·C/(|I(u)||I(v)|) Σ s(I(u),I(v)) +
//	         (1−λ)·C/(|O(u)||O(v)|) Σ s(O(u),O(v))
//
// Like SimRankExact it materializes the dense similarity matrix, so it
// is capped at maxNodes (0 means 4096).
func NewPRank(ev *eval.Evaluator, opt SimRankOptions, lambda float64, maxNodes int) (*PRankMatrix, error) {
	if maxNodes <= 0 {
		maxNodes = 4096
	}
	g := ev.Graph()
	n := g.NumNodes()
	if n > maxNodes {
		return nil, fmt.Errorf("sim: PRank on %d nodes exceeds the %d-node cap", n, maxNodes)
	}
	// Directed in- and out-transition matrices across all labels.
	var sum *sparse.Matrix
	for _, l := range g.Labels() {
		adj := g.Adjacency(l)
		if sum == nil {
			sum = adj
		} else {
			sum = sum.Add(adj)
		}
	}
	if sum == nil {
		sum = sparse.Zero(n)
	}
	wOut := transition(sum)            // row u: out-neighbors
	wIn := transition(sum.Transpose()) // row u: in-neighbors

	s := make([]float64, n*n)
	for i := 0; i < n; i++ {
		s[i*n+i] = 1
	}
	tmpIn := make([]float64, n*n)
	tmpOut := make([]float64, n*n)
	half := func(w *sparse.FloatMatrix, dst []float64) {
		// dst = W·S·Wᵀ
		ws := make([]float64, n*n)
		for i := 0; i < n; i++ {
			row := ws[i*n : (i+1)*n]
			w.Row(i, func(k int, wv float64) {
				srow := s[k*n : (k+1)*n]
				for j := 0; j < n; j++ {
					row[j] += wv * srow[j]
				}
			})
		}
		for i := 0; i < n; i++ {
			wi := ws[i*n : (i+1)*n]
			di := dst[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				var acc float64
				w.Row(j, func(k int, wv float64) { acc += wi[k] * wv })
				di[j] = acc
			}
		}
	}
	for it := 0; it < opt.Iterations; it++ {
		for i := range tmpIn {
			tmpIn[i] = 0
			tmpOut[i] = 0
		}
		half(wIn, tmpIn)
		half(wOut, tmpOut)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					s[i*n+j] = 1
					continue
				}
				s[i*n+j] = opt.C * (lambda*tmpIn[i*n+j] + (1-lambda)*tmpOut[i*n+j])
			}
		}
	}
	return &PRankMatrix{n: n, s: s}, nil
}

// Query ranks candidates by P-Rank score against the query.
func (m *PRankMatrix) Query(query graph.NodeID, candidates []graph.NodeID) Ranking {
	scores := map[graph.NodeID]float64{}
	for j := 0; j < m.n; j++ {
		if graph.NodeID(j) != query && m.s[int(query)*m.n+j] > 0 {
			scores[graph.NodeID(j)] = m.s[int(query)*m.n+j]
		}
	}
	return rankScores(scores, query, candidates)
}

// PRank is a one-shot convenience wrapper around NewPRank for a single
// query.
func PRank(ev *eval.Evaluator, opt SimRankOptions, lambda float64, query graph.NodeID, candidates []graph.NodeID, maxNodes int) (Ranking, error) {
	m, err := NewPRank(ev, opt, lambda, maxNodes)
	if err != nil {
		return Ranking{}, err
	}
	return m.Query(query, candidates), nil
}
