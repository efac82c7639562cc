package store

import "relsim/internal/sparse"

// BatchDelta is the edge-level summary of a committed update batch, in
// the form the incremental cache maintenance consumes: a thin signed
// adjacency delta per touched label (added edges +1, removed edges −1)
// plus the node growth. Triples for the same (row, col) slot are summed
// by sparse.NewDelta, so an edge added and removed in one batch cancels
// to nothing.
type BatchDelta struct {
	From       uint64 // version before the batch
	To         uint64 // version after the batch
	NodesAdded int
	// Edges holds the signed triples per touched label. A label present
	// with triples that all cancel still marks the label as touched.
	Edges map[string][]sparse.Triple
}

// SummarizeUpdates folds a batch of update records (as delivered to the
// BeforePublish hook: non-empty, contiguous, in commit order) into its
// edge-level delta.
func SummarizeUpdates(updates []Update) BatchDelta {
	d := BatchDelta{Edges: make(map[string][]sparse.Triple)}
	if len(updates) == 0 {
		return d
	}
	d.From = updates[0].Version - 1
	d.To = updates[len(updates)-1].Version
	for _, u := range updates {
		switch u.Op {
		case OpAddNode:
			d.NodesAdded++
		case OpAddEdge:
			d.Edges[u.Edge.Label] = append(d.Edges[u.Edge.Label],
				sparse.Triple{Row: int(u.Edge.From), Col: int(u.Edge.To), Val: 1})
		case OpRemoveEdge:
			d.Edges[u.Edge.Label] = append(d.Edges[u.Edge.Label],
				sparse.Triple{Row: int(u.Edge.From), Col: int(u.Edge.To), Val: -1})
		}
	}
	return d
}

// LabelDeltas builds the per-label signed deltas at dimension n (the
// node count after the batch). Each costs its triples, not n.
func (d BatchDelta) LabelDeltas(n int) map[string]*sparse.Delta {
	out := make(map[string]*sparse.Delta, len(d.Edges))
	for l, ts := range d.Edges {
		out[l] = sparse.NewDelta(n, ts)
	}
	return out
}
