package sim

import (
	"relsim/internal/eval"
	"relsim/internal/graph"
	"relsim/internal/rre"
	"relsim/internal/sparse"
)

// RWROptions configures random walk with restart.
type RWROptions struct {
	// Restart is the restart probability c; the paper's experiments use
	// 0.8 (§7 Settings).
	Restart float64
	// MaxIter bounds the power iteration; Tol is the L1 convergence
	// threshold.
	MaxIter int
	Tol     float64
}

// DefaultRWR are the paper's experiment settings.
func DefaultRWR() RWROptions {
	return RWROptions{Restart: 0.8, MaxIter: 100, Tol: 1e-10}
}

// RWR ranks nodes by their steady-state random-walk-with-restart
// probability from the query (Tong et al., ICDM 2006), the extended
// version over multi-label graphs (§4.1): each hop follows any edge,
// forward or backward, uniformly. The walk solves
//
//	r = c·e_q + (1−c)·Wᵀ·r
//
// by power iteration, where W is the row-normalized combined adjacency.
func RWR(ev *eval.Evaluator, opt RWROptions, query graph.NodeID, candidates []graph.NodeID) Ranking {
	w := combinedTransition(ev)
	return rwrOn(w, opt, query, candidates)
}

// RWRPattern is the pattern-constrained RWR of Proposition 4: a single
// hop follows one instance of the RRE pattern p (in either direction),
// so the walk's transition matrix is the row-normalized symmetrization
// of the commuting matrix M_p.
func RWRPattern(ev *eval.Evaluator, p *rre.Pattern, opt RWROptions, query graph.NodeID, candidates []graph.NodeID) Ranking {
	m := ev.Commuting(p)
	w := transition(m.Add(m.Transpose()))
	return rwrOn(w, opt, query, candidates)
}

func rwrOn(w *sparse.FloatMatrix, opt RWROptions, query graph.NodeID, candidates []graph.NodeID) Ranking {
	n := w.Dim()
	r := make([]float64, n)
	r[query] = 1
	for it := 0; it < opt.MaxIter; it++ {
		// next = c·e_q + (1−c)·Wᵀ·r ; Wᵀ·r computed as rᵀ·W.
		next := sparse.VecMul(w, r)
		var diff float64
		for i := range next {
			next[i] *= 1 - opt.Restart
			if graph.NodeID(i) == query {
				next[i] += opt.Restart
			}
			d := next[i] - r[i]
			if d < 0 {
				d = -d
			}
			diff += d
		}
		r = next
		if diff < opt.Tol {
			break
		}
	}
	scores := map[graph.NodeID]float64{}
	for i, v := range r {
		if v > 0 {
			scores[graph.NodeID(i)] = v
		}
	}
	return rankScores(scores, query, candidates)
}

// combinedTransition builds the row-normalized walk matrix over all edge
// labels in both directions (the undirected view random-walk baselines
// use on heterogeneous graphs).
func combinedTransition(ev *eval.Evaluator) *sparse.FloatMatrix {
	g := ev.Graph()
	var sum *sparse.Matrix
	for _, l := range g.Labels() {
		a := g.Adjacency(l)
		a = a.Add(a.Transpose())
		if sum == nil {
			sum = a
		} else {
			sum = sum.Add(a)
		}
	}
	if sum == nil {
		sum = sparse.Zero(g.NumNodes())
	}
	return transition(sum)
}

// transition returns m's row-stochastic transition matrix: every
// nonzero row of m as float64, scaled to sum to 1.
func transition(m *sparse.Matrix) *sparse.FloatMatrix {
	return sparse.RowNormalize(sparse.Lift[float64, sparse.FloatRing](m))
}
