// Package sim implements the similarity search algorithms the paper
// studies: the baselines PathSim, HeteSim, SimRank and random walk with
// restart (RWR), their pattern-constrained extensions (§4.2,
// Proposition 4), and the paper's contribution RelSim (§4), including the
// aggregated variant over the pattern sets produced by Algorithm 1 (§5).
package sim

import (
	"slices"

	"relsim/internal/graph"
)

// Ranking is a ranked answer list for a similarity query: node ids in
// descending score order, ties broken by ascending node id so results
// are deterministic (the paper compares ranked lists positionally).
type Ranking struct {
	IDs    []graph.NodeID
	Scores []float64
}

// TopK returns the first k entries (or fewer if the ranking is shorter).
func (r Ranking) TopK(k int) Ranking {
	if k > len(r.IDs) {
		k = len(r.IDs)
	}
	return Ranking{IDs: r.IDs[:k], Scores: r.Scores[:k]}
}

// Len returns the number of ranked answers.
func (r Ranking) Len() int { return len(r.IDs) }

// Rank returns the 1-based position of id in the ranking, or 0 if absent.
func (r Ranking) Rank(id graph.NodeID) int {
	for i, x := range r.IDs {
		if x == id {
			return i + 1
		}
	}
	return 0
}

// scored is one answer before ranking.
type scored struct {
	id graph.NodeID
	s  float64
}

// rankScores builds a Ranking from a score map, excluding the query node
// and entries with non-positive score, restricted to the candidates set
// when non-nil.
func rankScores(scores map[graph.NodeID]float64, query graph.NodeID, candidates []graph.NodeID) Ranking {
	var ps []scored
	if candidates != nil {
		for _, id := range candidates {
			if id == query {
				continue
			}
			if s := scores[id]; s > 0 {
				ps = append(ps, scored{id, s})
			}
		}
	} else {
		for id, s := range scores {
			if id == query || s <= 0 {
				continue
			}
			ps = append(ps, scored{id, s})
		}
	}
	return rank(ps)
}

// ahead reports whether a ranks before b: a higher score, or an equal
// score and a lower id.
func ahead(a, b scored) bool { return a.s > b.s || a.s == b.s && a.id < b.id }

// rank orders answers by descending score, ties by ascending id.
func rank(ps []scored) Ranking {
	slices.SortFunc(ps, func(a, b scored) int {
		switch {
		case ahead(a, b):
			return -1
		case ahead(b, a):
			return 1
		}
		return 0
	})
	r := Ranking{IDs: make([]graph.NodeID, len(ps)), Scores: make([]float64, len(ps))}
	for i, p := range ps {
		r.IDs[i] = p.id
		r.Scores[i] = p.s
	}
	return r
}

// keep adds p to h, a heap of at most top answers (every one when top ≤
// 0) whose root is the one that ranks last: once h is full, p replaces
// the root if it ranks ahead of it. It returns h, which then holds the
// top answers of all it was given, in heap order.
func keep(h []scored, top int, p scored) []scored {
	if top <= 0 {
		return append(h, p)
	}
	i := len(h)
	if i < top {
		// Sift up: a parent ranks after both its children.
		for h = append(h, p); i > 0 && ahead(h[(i-1)/2], h[i]); i = (i - 1) / 2 {
			h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
		}
		return h
	}
	if !ahead(p, h[0]) {
		return h
	}
	// Sift down from the root, towards the child that ranks last.
	h[0], i = p, 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			return h
		}
		if c+1 < len(h) && ahead(h[c], h[c+1]) {
			c++
		}
		if !ahead(h[i], h[c]) {
			return h
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
