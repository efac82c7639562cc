package sim

import (
	"fmt"
	"sync"

	"relsim/internal/eval"
	"relsim/internal/graph"
	"relsim/internal/rre"
	"relsim/internal/sparse"
)

// PathSim ranks nodes by Equation 1 of the paper over a simple pattern
// (meta-path):
//
//	sim_p(u, v) = 2·|u ⇝_p v| / (|u ⇝_p u| + |v ⇝_p v|)
//
// The pattern must be simple (concatenation of possibly reversed labels,
// §4.1); use RelSim for general RREs. Candidates restricts the answer
// domain (typically the nodes of the query's entity type); nil ranks all
// nodes with positive score.
func PathSim(ev *eval.Evaluator, p *rre.Pattern, query graph.NodeID, candidates []graph.NodeID) (Ranking, error) {
	if !p.IsSimple() {
		return Ranking{}, fmt.Errorf("sim: PathSim requires a simple pattern, got %s", p)
	}
	return RelSim(ev, p, query, candidates), nil
}

// RelSim ranks nodes by Equation 1 over an arbitrary RRE pattern. This
// is the paper's core algorithm (§4.2): with patterns written in the RRE
// language it is structurally robust under invertible transformations
// (Corollary 1).
func RelSim(ev *eval.Evaluator, p *rre.Pattern, query graph.NodeID, candidates []graph.NodeID) Ranking {
	return ScoreCuts(ev, []eval.Cut{ev.Cut(p)}, query, candidates)
}

// RelSimAggregate ranks nodes by the sum of Equation-1 scores over a set
// of RRE patterns, the scoring used after Algorithm 1 expands a simple
// input pattern into the set E_p (§5, Proposition 5).
func RelSimAggregate(ev *eval.Evaluator, patterns []*rre.Pattern, query graph.NodeID, candidates []graph.NodeID) Ranking {
	cuts := make([]eval.Cut, len(patterns))
	for i, p := range patterns {
		cuts[i] = ev.Cut(p)
	}
	return ScoreCuts(ev, cuts, query, candidates)
}

// ScoreCuts is RelSimAggregate over patterns already cut under ev's key
// mode (eval.NewCut), for callers that memoize the cuts. No M_p is
// materialized: each pattern is scored from its two halves (eval.Cut).
// A candidate's score is the sum, in pattern order, of its positive
// per-pattern scores. Candidates must be distinct.
func ScoreCuts(ev *eval.Evaluator, cuts []eval.Cut, query graph.NodeID, candidates []graph.NodeID) Ranking {
	n := ev.Graph().NumNodes()
	if candidates == nil {
		candidates = make([]graph.NodeID, n)
		for v := range candidates {
			candidates[v] = graph.NodeID(v)
		}
	}
	acc := make([]float64, len(candidates))
	x := getDense(n)
	q := eq1{x: *x}
	for _, c := range cuts {
		if !q.load(ev, c, query) {
			continue
		}
		for i, v := range candidates {
			if v == query {
				continue
			}
			if s := q.score(int(v)); s > 0 {
				acc[i] += s
			}
		}
		q.unload()
	}
	densePool.Put(x)
	ps := make([]scored, 0, len(candidates))
	for i, v := range candidates {
		if acc[i] > 0 {
			ps = append(ps, scored{v, acc[i]})
		}
	}
	return rank(ps)
}

// PathSimScorePair returns the Equation-1 score for a single node pair.
func PathSimScorePair(ev *eval.Evaluator, p *rre.Pattern, u, v graph.NodeID) float64 {
	x := getDense(ev.Graph().NumNodes())
	q := eq1{x: *x}
	var s float64
	if q.load(ev, ev.Cut(p), u) {
		s = q.score(int(v))
		q.unload()
	}
	densePool.Put(x)
	return s
}

// eq1 scores one cut pattern for one query node u from its halves:
// M(u,v) = ⟨A[u,·], Bᵀ[v,·]⟩, with row u of A scattered into the dense
// vector x between load and unload. With bt nil, M is a.
type eq1 struct {
	a, bt *sparse.Matrix
	x     []int64
	ucols []int32 // the columns of x that load set
	muu   int64
}

// load fetches the halves and scatters row u of A. It reports false,
// leaving x untouched, when that row is empty: row u of M is then zero
// and so is every score.
func (q *eq1) load(ev *eval.Evaluator, c eval.Cut, u graph.NodeID) bool {
	q.a, q.bt = ev.Halves(c)
	cols, vals := q.a.RowView(int(u))
	for i, k := range cols {
		q.x[k] = vals[i]
	}
	q.ucols = cols
	q.muu = q.entry(int(u))
	return len(cols) > 0
}

func (q *eq1) unload() {
	for _, k := range q.ucols {
		q.x[k] = 0
	}
}

// entry returns M(u,v).
func (q *eq1) entry(v int) int64 {
	if q.bt == nil {
		return q.x[v]
	}
	cols, vals := q.bt.RowView(v)
	var s int64
	for i, k := range cols {
		s += q.x[k] * vals[i]
	}
	return s
}

// diag returns M(v,v) = ⟨A[v,·], Bᵀ[v,·]⟩ by merging the two sorted rows.
func (q *eq1) diag(v int) int64 {
	if q.bt == nil {
		return q.a.At(v, v)
	}
	ac, av := q.a.RowView(v)
	bc, bv := q.bt.RowView(v)
	var s int64
	for i, j := 0, 0; i < len(ac) && j < len(bc); {
		switch {
		case ac[i] < bc[j]:
			i++
		case ac[i] > bc[j]:
			j++
		default:
			s += av[i] * bv[j]
			i++
			j++
		}
	}
	return s
}

// score is Equation 1, 2·M(u,v) / (M(u,u) + M(v,v)), and 0 when the
// denominator is zero. A zero numerator skips the diagonal: the score
// is then zero whatever M(v,v) is.
func (q *eq1) score(v int) float64 {
	muv := q.entry(v)
	if muv == 0 {
		return 0
	}
	den := q.muu + q.diag(v)
	if den == 0 {
		return 0
	}
	return 2 * float64(muv) / float64(den)
}

// densePool recycles the scatter vectors; one is all zeros whenever it
// is not between an eq1 load and unload.
var densePool sync.Pool

func getDense(n int) *[]int64 {
	if x, _ := densePool.Get().(*[]int64); x != nil && len(*x) >= n {
		return x
	}
	x := make([]int64, n)
	return &x
}
