package eval

import "relsim/internal/rre"

// WorkloadStats is what one walk over a workload's distinct
// sub-patterns finds: Nodes distinct sub-patterns, Deduped builds that
// sharing avoids (each input pattern's own distinct count, summed, less
// Nodes), and the Products a cold cache builds them with.
type WorkloadStats struct {
	Nodes, Deduped, Products int
}

// nodeCost returns the number of matrix products materializing p costs
// once its children are cached. Star closures iterate squaring until
// fixpoint; one product is the static lower bound.
func nodeCost(p *rre.Pattern) int {
	switch p.Kind() {
	case rre.KindConcat:
		return len(p.Subs()) - 1
	case rre.KindStar:
		return 1
	}
	return 0
}

// walkDistinct walks the distinct sub-patterns of the patterns, each
// under the key an evaluator builds it by (canonForm).
func walkDistinct(patterns []*rre.Pattern) WorkloadStats {
	in := rre.NewInterner()
	all := make(map[string]bool)
	var st WorkloadStats
	for _, p := range patterns {
		if c, exact := in.CanonExact(p); exact {
			p = c
		}
		own := make(map[string]bool)
		var walk func(q *rre.Pattern)
		walk = func(q *rre.Pattern) {
			if k := q.String(); !own[k] {
				own[k] = true
				if !all[k] {
					all[k] = true
					st.Nodes++
					st.Products += nodeCost(q)
				}
				for _, s := range q.Subs() {
					walk(s)
				}
			}
		}
		walk(p)
		st.Deduped += len(own)
	}
	st.Deduped -= st.Nodes
	return st
}

// EstimateProducts estimates the cold-cache evaluation cost of a
// request's pattern set in matrix products: the products of its
// distinct sub-patterns, each of which the cache builds once (see
// Cache.lookup). Admission control compares it against the per-request
// cost ceiling before any materialization starts. It is a static lower
// bound (a star closure counts as one product) and deliberately ignores
// cache warmth: a cost ceiling must hold on the first, cold evaluation
// of a pathological request, which is exactly when it matters.
func EstimateProducts(patterns []*rre.Pattern) int {
	return walkDistinct(patterns).Products
}

// WorkloadPlan holds the walk's findings for one workload.
//
// Deprecated: only the benchmark's layer table reads it.
type WorkloadPlan struct{ stats WorkloadStats }

// PlanWorkload walks the patterns' distinct sub-patterns.
//
// Deprecated: only the benchmark's layer table reads it; use
// EstimateProducts.
func PlanWorkload(patterns []*rre.Pattern) *WorkloadPlan {
	return &WorkloadPlan{walkDistinct(patterns)}
}

// Stats returns what the walk found.
func (wp *WorkloadPlan) Stats() WorkloadStats { return wp.stats }
