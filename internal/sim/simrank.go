package sim

import (
	"fmt"
	"math/rand"

	"relsim/internal/eval"
	"relsim/internal/graph"
	"relsim/internal/rre"
	"relsim/internal/sparse"
)

// SimRankOptions configures the SimRank algorithms.
type SimRankOptions struct {
	// C is the damping (decay) factor; the paper's experiments use 0.8.
	C float64
	// Iterations bounds the fixed-point iteration of the exact algorithm
	// and the walk length of the Monte Carlo estimator.
	Iterations int
	// Walks is the number of sampled walk pairs per node for the Monte
	// Carlo estimator.
	Walks int
	// Seed makes the Monte Carlo estimator deterministic.
	Seed int64
}

// DefaultSimRank are the paper's experiment settings (damping 0.8) with
// estimator parameters sized for laptop-scale graphs.
func DefaultSimRank() SimRankOptions {
	return SimRankOptions{C: 0.8, Iterations: 8, Walks: 120, Seed: 1}
}

// SimRankExact computes the classic SimRank fixed point (Jeh & Widom,
// KDD 2002) extended to multi-label graphs by taking neighbors across
// all labels in both directions (§4.1 "extended version"). It
// materializes the dense n×n similarity matrix and is therefore only
// suitable for small graphs; it backs tests and the Proposition 4
// robustness checks. It returns an error for graphs above maxNodes
// (pass 0 for the 4096 default).
func SimRankExact(ev *eval.Evaluator, opt SimRankOptions, query graph.NodeID, candidates []graph.NodeID, maxNodes int) (Ranking, error) {
	if maxNodes <= 0 {
		maxNodes = 4096
	}
	n := ev.Graph().NumNodes()
	if n > maxNodes {
		return Ranking{}, fmt.Errorf("sim: SimRankExact on %d nodes exceeds the %d-node cap; use SimRankMC", n, maxNodes)
	}
	w := combinedTransition(ev)
	return simRankExactOn(w, opt, query, candidates)
}

// SimRankPattern is the pattern-constrained SimRank of Proposition 4:
// one hop follows an instance of the RRE pattern p, so the walk matrix
// is the row-normalized symmetrized commuting matrix of p.
func SimRankPattern(ev *eval.Evaluator, p *rre.Pattern, opt SimRankOptions, query graph.NodeID, candidates []graph.NodeID, maxNodes int) (Ranking, error) {
	if maxNodes <= 0 {
		maxNodes = 4096
	}
	n := ev.Graph().NumNodes()
	if n > maxNodes {
		return Ranking{}, fmt.Errorf("sim: SimRankPattern on %d nodes exceeds the %d-node cap", n, maxNodes)
	}
	m := ev.Commuting(p)
	w := transition(m.Add(m.Transpose()))
	return simRankExactOn(w, opt, query, candidates)
}

// simRankExactOn iterates S ← C·W·S·Wᵀ with unit diagonal, where W is a
// row-stochastic walk matrix, and ranks the query's row.
func simRankExactOn(w *sparse.FloatMatrix, opt SimRankOptions, query graph.NodeID, candidates []graph.NodeID) (Ranking, error) {
	n := w.Dim()
	s := make([]float64, n*n)
	for i := 0; i < n; i++ {
		s[i*n+i] = 1
	}
	tmp := make([]float64, n*n)
	for it := 0; it < opt.Iterations; it++ {
		// tmp = W·S (rows of tmp are W-rows combined over S rows)
		for i := 0; i < n; i++ {
			row := tmp[i*n : (i+1)*n]
			for j := range row {
				row[j] = 0
			}
			w.Row(i, func(k int, wv float64) {
				srow := s[k*n : (k+1)*n]
				for j := 0; j < n; j++ {
					row[j] += wv * srow[j]
				}
			})
		}
		// s = C · tmp · Wᵀ, i.e. s[i][j] = C · Σ_k tmp[i][k]·W[j][k]
		for i := 0; i < n; i++ {
			ti := tmp[i*n : (i+1)*n]
			si := s[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				var acc float64
				w.Row(j, func(k int, wv float64) { acc += ti[k] * wv })
				si[j] = opt.C * acc
			}
			si[i] = 1
		}
	}
	scores := map[graph.NodeID]float64{}
	for j := 0; j < n; j++ {
		if graph.NodeID(j) != query && s[int(query)*n+j] > 0 {
			scores[graph.NodeID(j)] = s[int(query)*n+j]
		}
	}
	return rankScores(scores, query, candidates), nil
}

// SimRankSampler estimates single-source SimRank scores with the classic
// Monte Carlo coupling (Fogaras & Rácz style): sample Walks coupled
// walks of length Iterations from every node over the undirected
// multi-label view; the SimRank score of (q, v) is the expectation of
// C^τ where τ is the first step at which the walks of q and v meet.
//
// Walk trajectories are independent of the query, so the sampler
// simulates them once and answers an entire query workload from the
// stored trajectories. The estimator is deterministic for a fixed seed
// and scales to the experiment graphs where the exact algorithm is
// infeasible — mirroring the paper's observation that exact SimRank
// "takes too long to finish" on full datasets.
type SimRankSampler struct {
	opt SimRankOptions
	n   int
	// traj[r*(T+1)+t][u] is the position of node u's walk r at step t.
	traj [][]graph.NodeID
	pows []float64
}

// NewSimRankSampler simulates the walk trajectories for g.
func NewSimRankSampler(ev *eval.Evaluator, opt SimRankOptions) *SimRankSampler {
	g := ev.Graph()
	n := g.NumNodes()

	// Undirected neighbor lists across all labels.
	nbr := make([][]graph.NodeID, n)
	for _, l := range g.Labels() {
		for u := 0; u < n; u++ {
			for _, v := range g.Out(graph.NodeID(u), l) {
				nbr[u] = append(nbr[u], v)
				nbr[v] = append(nbr[v], graph.NodeID(u))
			}
		}
	}

	rng := rand.New(rand.NewSource(opt.Seed))
	T, R := opt.Iterations, opt.Walks
	s := &SimRankSampler{opt: opt, n: n, pows: make([]float64, T+1)}
	s.pows[0] = 1
	for t := 1; t <= T; t++ {
		s.pows[t] = s.pows[t-1] * opt.C
	}
	s.traj = make([][]graph.NodeID, R*(T+1))
	for r := 0; r < R; r++ {
		cur := make([]graph.NodeID, n)
		for u := range cur {
			cur[u] = graph.NodeID(u)
		}
		s.traj[r*(T+1)] = cur
		for t := 1; t <= T; t++ {
			next := make([]graph.NodeID, n)
			for u := 0; u < n; u++ {
				ns := nbr[cur[u]]
				if len(ns) > 0 {
					next[u] = ns[rng.Intn(len(ns))]
				} else {
					next[u] = cur[u]
				}
			}
			s.traj[r*(T+1)+t] = next
			cur = next
		}
	}
	return s
}

// Query ranks candidates by estimated SimRank score against the query.
func (s *SimRankSampler) Query(query graph.NodeID, candidates []graph.NodeID) Ranking {
	T, R := s.opt.Iterations, s.opt.Walks
	scores := map[graph.NodeID]float64{}
	met := make([]int, s.n)
	for r := 0; r < R; r++ {
		for u := range met {
			met[u] = -1
		}
		for t := 1; t <= T; t++ {
			pos := s.traj[r*(T+1)+t]
			q := pos[query]
			for u := 0; u < s.n; u++ {
				if met[u] == -1 && graph.NodeID(u) != query && pos[u] == q {
					met[u] = t
				}
			}
		}
		for u := 0; u < s.n; u++ {
			if met[u] > 0 {
				scores[graph.NodeID(u)] += s.pows[met[u]] / float64(R)
			}
		}
	}
	return rankScores(scores, query, candidates)
}

// SimRankMC is a one-shot convenience wrapper around SimRankSampler for
// a single query.
func SimRankMC(ev *eval.Evaluator, opt SimRankOptions, query graph.NodeID, candidates []graph.NodeID) Ranking {
	return NewSimRankSampler(ev, opt).Query(query, candidates)
}
