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
	return ScoreCuts(ev, []eval.Cut{eval.NewCut(p)}, query, candidates, 0)
}

// RelSimAggregate ranks nodes by the sum of Equation-1 scores over a set
// of RRE patterns, the scoring used after Algorithm 1 expands a simple
// input pattern into the set E_p (§5, Proposition 5).
func RelSimAggregate(ev *eval.Evaluator, patterns []*rre.Pattern, query graph.NodeID, candidates []graph.NodeID) Ranking {
	cuts := make([]eval.Cut, len(patterns))
	for i, p := range patterns {
		cuts[i] = eval.NewCut(p)
	}
	return ScoreCuts(ev, cuts, query, candidates, 0)
}

// ScoreDomain is RelSimAggregate over patterns already cut
// (eval.NewCut), for callers that memoize the cuts, answering
// from dom (typically a node type, graph.Snapshot.TypeDomain) and keeping
// the top answers only. No M_p is materialized: each term of a pattern
// is read from its two halves (eval.Term) by pushing row u of A through
// B = (Bᵀ)ᵀ, the transpose kept with the cached right half, and the
// terms of one pattern push into one accumulator, so a read costs the
// query's two-hop neighbourhood, never the domain: each node the push
// reaches is tested against dom in O(1). M_p(u,u) and M_p(v,v) are the
// sums of the diagonals kept beside the terms' halves
// (Evaluator.Scoring), so each reached answer costs O(1) per term more.
// An answer's score is the sum, in pattern order, of its positive
// per-pattern scores.
//
// top bounds the answers returned: a heap keeps the best top of them in
// the ranking's order (score descending, then id ascending), so the
// result is the first top entries of the full ranking. top ≤ 0 ranks
// every answer.
func ScoreDomain(ev *eval.Evaluator, cuts []eval.Cut, query graph.NodeID, dom graph.Domain, top int) Ranking {
	s := score(ev, cuts, query, dom)
	ps := s.ps[:0]
	for _, v := range s.hits {
		ps = keep(ps, top, scored{graph.NodeID(v), s.acc[v]})
	}
	return s.finish(ps)
}

// ScoreCuts is ScoreDomain with the answer domain given as a list:
// every node is scored, and the answers kept are those in candidates.
// Candidates are a set over [0, n), for every kind of root: a repeated
// id is ranked once, and an id outside [0, n) is ignored. nil means
// every node.
func ScoreCuts(ev *eval.Evaluator, cuts []eval.Cut, query graph.NodeID, candidates []graph.NodeID, top int) Ranking {
	if candidates == nil {
		return ScoreDomain(ev, cuts, query, graph.AllNodes, top)
	}
	n := ev.Graph().NumNodes()
	s := score(ev, cuts, query, graph.AllNodes)
	ps := s.ps[:0]
	for _, v := range candidates {
		if v >= 0 && int(v) < n && s.acc[v] > 0 {
			ps = keep(ps, top, scored{v, s.acc[v]})
			s.acc[v] = 0 // a repeated id finds no score left
		}
	}
	return s.finish(ps)
}

// score runs one read's cuts through a pooled scorer, adding each
// answer in dom's scores into acc.
func score(ev *eval.Evaluator, cuts []eval.Cut, query graph.NodeID, dom graph.Domain) *scorer {
	s := getScorer(ev.Graph().NumNodes())
	s.dom, s.tests = dom, 0
	ev.Scoring(cuts, func(a, b *sparse.Matrix, diag *sparse.Vector, last bool) {
		s.term(a, b, diag, int(query), last)
	})
	return s
}

// finish ranks the answers kept in ps, clears the scores, and returns
// the scorer to the pool without its domain, so the pool keeps no
// snapshot's type column alive.
func (s *scorer) finish(ps []scored) Ranking {
	for _, v := range s.hits {
		s.acc[v] = 0
	}
	r := rank(ps)
	s.hits, s.ps, s.dom = s.hits[:0], ps[:0], graph.Domain{}
	scorerPool.Put(s) // normal path only: a panic while scoring abandons it
	return r
}

// scorer is one read's O(n) state, pooled between calls. Between calls
// every acc entry is zero and hits and terms are empty. Marks are
// stamps, so nothing else is cleared: mark[v] ≤ stamp always holds, and
// x[v] means something only while mark[v] is the current pattern's
// stamp.
type scorer struct {
	mark  []uint32 // mark[v] == stamp: v is on row, with M(u,v) in x[v]
	stamp uint32
	x     []int64
	row   []int32   // the columns row u of the current pattern's M_p reaches
	terms []diagOf  // the diagonals of the current pattern's terms so far
	acc   []float64 // a node's score so far, positive exactly on hits
	hits  []int32   // the nodes with a positive score, in first-touch order
	dom   graph.Domain
	tests int // domain tests this read made
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
	return &scorer{mark: make([]uint32, n), x: make([]int64, n), acc: make([]float64, n)}
}

// diagOf reads one term's diagonal: the kept diag, or A's own for a
// term that is not a concatenation.
type diagOf struct {
	a    *sparse.Matrix
	diag *sparse.Vector
}

// one is the identity's one entry: a row pushed through ε is itself.
var one = []int64{1}

// term adds one term of a pattern's cut to row u of M_p, given what
// eval.Evaluator.Scoring reads of it: M = A·B and diag(M), or M = A
// when b is nil. The terms of one pattern share one accumulator, and on
// its last term the pattern's Equation-1 scores are added: only the
// nodes row u of M_p reaches are visited, each reading its M_p(v,v) as
// the sum of the terms' diagonals.
func (s *scorer) term(a, b *sparse.Matrix, diag *sparse.Vector, u int, last bool) {
	if len(s.terms) == 0 {
		s.begin()
	}
	s.terms = append(s.terms, diagOf{a, diag})
	ucols, uvals := a.RowView(u)
	s.push(ucols, uvals, b)
	if !last {
		return
	}
	muu := s.diagAt(u)
	if len(s.terms) == 1 && diag != nil {
		// One concatenation term, as in every headline pattern: its
		// diagonal is M_p's, read without diagAt's loop, which costs the
		// headline's warm read about a fifth more.
		for _, v := range s.row {
			if muv := s.x[v]; muv != 0 && s.wants(v, u) {
				s.add(v, muv, muu+diag.At(int(v)))
			}
		}
	} else {
		for _, v := range s.row {
			if muv := s.x[v]; muv != 0 && s.wants(v, u) {
				s.add(v, muv, muu+s.diagAt(int(v)))
			}
		}
	}
	clear(s.terms) // the pool keeps no matrix alive
	s.terms = s.terms[:0]
}

// diagAt returns M_p(v,v), summed over the current pattern's terms.
func (s *scorer) diagAt(v int) int64 {
	var d int64
	for _, t := range s.terms {
		if t.diag != nil {
			d += t.diag.At(v)
		} else {
			d += t.a.At(v, v)
		}
	}
	return d
}

// begin starts a pattern: a fresh stamp, so no node is on its row.
func (s *scorer) begin() {
	if s.stamp == math.MaxUint32 {
		clear(s.mark)
		s.stamp = 0
	}
	s.stamp++
	s.row = s.row[:0]
}

// push adds row u of A·B into x as the sparse vector–matrix product of
// A's row (ucols, uvals) with B, or A's row itself when b is nil (B is
// the identity): each A[u,k]·B[k,v] is added into x[v]. s.row lists the
// columns reached since begin, in first-touch order, each with its
// value in x.
func (s *scorer) push(ucols []int32, uvals []int64, b *sparse.Matrix) {
	row := s.row
	for i, k := range ucols {
		bc, bv := ucols[i:i+1], one
		if b != nil {
			bc, bv = b.RowView(int(k))
		}
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
}

// wants reports whether v is answered for query u.
func (s *scorer) wants(v int32, u int) bool {
	if int(v) == u {
		return false
	}
	s.tests++
	return s.dom.Has(graph.NodeID(v))
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
