package sim

import (
	"fmt"
	"math"
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
// domain (typically the nodes of the query's entity type) and is read
// as a set (see ScoreCuts); nil ranks all nodes with positive score.
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
// materialized: each pattern is scored from its two halves (eval.Cut)
// by pushing row u of A through B = (Bᵀ)ᵀ, the transpose kept with the
// cached right half, so a read costs the query's two-hop neighbourhood,
// not the candidate domain. A candidate's score is the sum, in pattern
// order, of its positive per-pattern scores.
//
// Candidates are a set over [0, n), for every kind of root: a repeated
// id is ranked once, and an id outside [0, n) is ignored. nil means
// every node.
func ScoreCuts(ev *eval.Evaluator, cuts []eval.Cut, query graph.NodeID, candidates []graph.NodeID) Ranking {
	n := ev.Graph().NumNodes()
	s := getScorer(n)
	s.restrict(candidates, n)
	for _, c := range cuts {
		a, bt := ev.Halves(c)
		s.cut(a, bt, int(query))
	}
	ps := s.ps[:0]
	for _, v := range s.hits {
		ps = append(ps, scored{graph.NodeID(v), s.acc[v]})
		s.acc[v] = 0
	}
	r := rank(ps)
	s.hits, s.ps = s.hits[:0], ps[:0]
	scorerPool.Put(s) // normal path only: a panic above abandons it
	return r
}

// PathSimScorePair returns the Equation-1 score for a single node pair:
// one pair is three inner products of sorted rows, nothing pushed.
func PathSimScorePair(ev *eval.Evaluator, p *rre.Pattern, u, v graph.NodeID) float64 {
	a, bt := ev.Halves(ev.Cut(p))
	m := func(x, y graph.NodeID) int64 {
		if bt == nil {
			return a.At(int(x), int(y))
		}
		return inner(a, int(x), bt, int(y))
	}
	muv := m(u, v)
	if muv == 0 {
		return 0
	}
	return eval.Eq1(muv, m(u, u)+m(v, v))
}

// inner returns ⟨A[x,·], Bᵀ[y,·]⟩ = (A·B)(x,y) by merging the two
// sorted rows.
func inner(a *sparse.Matrix, x int, bt *sparse.Matrix, y int) int64 {
	ac, av := a.RowView(x)
	bc, bv := bt.RowView(y)
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

// scorer is one ScoreCuts call's O(n) state, pooled between calls.
// Between calls every acc entry is zero and hits is empty. Marks are
// stamps, so nothing else is cleared: mark[v] ≤ stamp and in[v] ≤ call
// always hold, x[v] means something only while mark[v] is the current
// cut's stamp, and v is a candidate while in[v] is the current call's.
type scorer struct {
	mark  []uint32 // mark[v] == stamp: v is on row, with M(u,v) in x[v]
	stamp uint32
	x     []int64
	row   []int32   // the columns row u of the current cut's M_p reaches
	acc   []float64 // a node's score so far, positive exactly on hits
	hits  []int32   // the nodes with a positive score, in first-touch order
	in    []uint32  // in[v] == call: v is a candidate
	call  uint32
	all   bool // no candidate restriction: every node is one
	ps    []scored
}

var scorerPool sync.Pool

// getScorer returns a pooled scorer for n nodes, or a new one with an
// eighth of headroom, so a graph that grows by a node per commit does
// not discard the pool on every commit.
func getScorer(n int) *scorer {
	if s, _ := scorerPool.Get().(*scorer); s != nil && len(s.mark) >= n {
		return s
	}
	n += n / 8
	return &scorer{mark: make([]uint32, n), x: make([]int64, n), acc: make([]float64, n), in: make([]uint32, n)}
}

// restrict makes candidates the call's answer domain: the set of its ids
// in [0, n), or every node when it is nil.
func (s *scorer) restrict(candidates []graph.NodeID, n int) {
	if s.all = candidates == nil; s.all {
		return
	}
	if s.call == math.MaxUint32 {
		clear(s.in)
		s.call = 0
	}
	s.call++
	for _, v := range candidates {
		if v >= 0 && int(v) < n {
			s.in[v] = s.call
		}
	}
}

// cut adds one pattern's Equation-1 scores for query u, given the halves
// of its cut. Only the nodes row u of M_p reaches are visited, and a
// diagonal entry is computed only where the numerator is nonzero.
func (s *scorer) cut(a, bt *sparse.Matrix, u int) {
	ucols, uvals := a.RowView(u)
	if len(ucols) == 0 {
		return // row u of M_p is zero, and so is every score
	}
	if bt == nil {
		// Not a concatenation: M_p is A, its row u read as stored.
		muu := a.At(u, u)
		for i, v := range ucols {
			if s.wants(v, u) {
				s.add(v, uvals[i], muu+a.At(int(v), int(v)))
			}
		}
		return
	}
	muu := inner(a, u, bt, u)
	for _, v := range s.push(ucols, uvals, bt.TransposeCached()) {
		if muv := s.x[v]; muv != 0 && s.wants(v, u) {
			s.add(v, muv, muu+inner(a, int(v), bt, int(v)))
		}
	}
}

// push computes row u of A·B as the sparse vector–matrix product of A's
// row (ucols, uvals) with B: each A[u,k]·B[k,v] is added into x[v]. It
// returns the columns reached, in first-touch order, each with its
// value in x.
func (s *scorer) push(ucols []int32, uvals []int64, b *sparse.Matrix) []int32 {
	if s.stamp == math.MaxUint32 {
		clear(s.mark)
		s.stamp = 0
	}
	s.stamp++
	row := s.row[:0]
	for i, k := range ucols {
		bc, bv := b.RowView(int(k))
		for j, v := range bc {
			if s.mark[v] != s.stamp {
				s.mark[v] = s.stamp
				s.x[v] = uvals[i] * bv[j]
				row = append(row, v)
			} else {
				s.x[v] += uvals[i] * bv[j]
			}
		}
	}
	s.row = row
	return row
}

// wants reports whether v is answered for query u.
func (s *scorer) wants(v int32, u int) bool {
	return int(v) != u && (s.all || s.in[v] == s.call)
}

// add adds v's Equation-1 score to its total when positive.
func (s *scorer) add(v int32, muv, den int64) {
	if sc := eval.Eq1(muv, den); sc > 0 {
		if s.acc[v] == 0 {
			s.hits = append(s.hits, v)
		}
		s.acc[v] += sc
	}
}
