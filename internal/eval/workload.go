package eval

import (
	"sync"
	"sync/atomic"

	"relsim/internal/rre"
)

// Workload planning. A /batch request carries many patterns whose ASTs
// overlap heavily — Algorithm-1 expansions of related queries share
// disjunction blocks, nested sub-patterns and star bodies, and clients
// render the same disjunction in different branch orders. PlanWorkload
// canonicalizes every pattern (rre.Canonical: flatten associativity,
// sort disjunction branches, hash-cons subexpressions), folds the
// canonical ASTs into one shared sub-pattern DAG, and emits a
// topologically ordered materialization schedule in which every
// distinct subexpression is computed exactly once and its matrix fed to
// all parents through the versioned cache.
//
// Execute runs the schedule across a worker pool: a DAG node becomes
// ready when all of its children are materialized, so independent
// subexpressions parallelize while each node's own materialization
// (Evaluator.commuting on a pattern whose children are hot in cache)
// performs only that node's top-level operation. The evaluator's
// parallel SpGEMM gate applies to the large products as usual.
//
// Sharing is at AST-subtree granularity: flattened concatenations share
// their factors and any composite sub-patterns (disjunctions, nests,
// skips, stars). A sub-chain is shared where a chain was cut: the
// serving layer plans the two halves of every scored pattern (see Cut),
// never the pattern, so a.b is one node under a.b.c.d and a.b.e.f. Inside
// a half the planner does not look for a.b in a.b.c.
//
// Patterns whose canonicalization is not count-exact (structurally
// distinct disjunction branches collapsing; see rre.CanonicalExact) are
// excluded from the DAG and materialized under their raw keys, so
// planning never changes a result.

// planNode is one distinct canonical subexpression in the workload DAG.
type planNode struct {
	idx     int
	pat     *rre.Pattern
	deps    []int // indexes of distinct children (appear earlier in topo order)
	parents []int // indexes of nodes with this node as a dep
	cost    int   // products needed to materialize this node given its children
}

// WorkloadStats summarizes what planning found in one workload.
type WorkloadStats struct {
	// Patterns is the number of input patterns planned.
	Patterns int `json:"patterns"`
	// Nodes is the number of distinct canonical subexpressions (DAG size).
	Nodes int `json:"nodes"`
	// Deduped counts subexpression materializations avoided by sharing:
	// the sum over input patterns of their per-pattern distinct
	// subexpression counts, minus the DAG size.
	Deduped int `json:"deduped"`
	// Products is the number of matrix products the schedule performs
	// (star closures counted as one product, a lower bound).
	Products int `json:"products"`
	// ProductsSaved is the number of products sharing avoids versus
	// materializing each input pattern's subexpression tree in
	// isolation. Like Deduped it is a static per-plan estimate — it does
	// not consult cache warmth, so re-planning the same workload reports
	// the same savings.
	ProductsSaved int `json:"products_saved"`
	// Unplannable counts input patterns whose canonicalization is not
	// count-exact (disjunction branches collapsing); they are excluded
	// from the DAG and materialized under their raw keys instead.
	Unplannable int `json:"unplannable"`
}

// WorkloadPlan is a materialization schedule over the shared
// sub-pattern DAG of one workload. Build with PlanWorkload; a plan is
// immutable and may be executed multiple times (re-execution over a
// warm cache performs no products).
type WorkloadPlan struct {
	roots     []*rre.Pattern // canonical (or, if inexact, raw) inputs, aligned by index
	nodes     []*planNode    // topological order: children before parents
	unplanned []*rre.Pattern // inexactly-canonicalizable inputs, kept raw
	stats     WorkloadStats
	// unplannedProducts is the isolated cost of the unplanned patterns —
	// they run outside the DAG, so Stats().Products does not count them,
	// but EstimatedProducts (the admission-control cost surface) must.
	unplannedProducts int
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

// PlanWorkload canonicalizes the patterns and builds the shared
// sub-pattern DAG with its topologically ordered schedule. Input
// patterns that are duplicates after canonicalization fold onto the
// same nodes.
func PlanWorkload(patterns []*rre.Pattern) *WorkloadPlan {
	in := rre.NewInterner()
	wp := &WorkloadPlan{roots: make([]*rre.Pattern, len(patterns))}
	// The interner makes equal canonical subexpressions pointer-identical
	// (a node's Subs() are the interned children), so every dedup map
	// below keys by pointer — no re-rendering during planning.
	byNode := make(map[*rre.Pattern]*planNode)

	// add folds one canonical subtree into the DAG, returning its node.
	// Post-order insertion makes wp.nodes topological by construction.
	var add func(p *rre.Pattern) *planNode
	add = func(p *rre.Pattern) *planNode {
		if nd, ok := byNode[p]; ok {
			return nd
		}
		nd := &planNode{pat: p, cost: nodeCost(p)}
		byNode[p] = nd
		depSeen := make(map[int]bool)
		for _, s := range p.Subs() {
			child := add(s)
			if !depSeen[child.idx] {
				depSeen[child.idx] = true
				nd.deps = append(nd.deps, child.idx)
			}
		}
		nd.idx = len(wp.nodes)
		wp.nodes = append(wp.nodes, nd)
		for _, d := range nd.deps {
			wp.nodes[d].parents = append(wp.nodes[d].parents, nd.idx)
		}
		return nd
	}

	// isolated counts the products one pattern costs alone: distinct
	// subexpressions within the pattern, each materialized once (the
	// per-query memoization every evaluator already has).
	var isolated func(p *rre.Pattern, seen map[*rre.Pattern]bool) (int, int)
	isolated = func(p *rre.Pattern, seen map[*rre.Pattern]bool) (int, int) {
		if seen[p] {
			return 0, 0
		}
		seen[p] = true
		prods, nodes := nodeCost(p), 1
		for _, s := range p.Subs() {
			dp, dn := isolated(s, seen)
			prods += dp
			nodes += dn
		}
		return prods, nodes
	}

	wp.stats.Patterns = len(patterns)
	isolatedProducts, isolatedNodes := 0, 0
	for i, p := range patterns {
		c, exact := in.CanonExact(p)
		if !exact {
			// Canonicalization would change this pattern's counts
			// (disjunction branches collapsing): leave it out of the DAG.
			// Execute materializes it under its raw key after the schedule,
			// which is also where a canonical-key evaluator will look it up.
			wp.roots[i] = p
			wp.unplanned = append(wp.unplanned, p)
			wp.stats.Unplannable++
			up, _ := isolated(p, make(map[*rre.Pattern]bool))
			wp.unplannedProducts += up
			continue
		}
		wp.roots[i] = c
		add(c)
		dp, dn := isolated(c, make(map[*rre.Pattern]bool))
		isolatedProducts += dp
		isolatedNodes += dn
	}
	wp.stats.Nodes = len(wp.nodes)
	wp.stats.Deduped = isolatedNodes - len(wp.nodes)
	for _, nd := range wp.nodes {
		wp.stats.Products += nd.cost
	}
	wp.stats.ProductsSaved = isolatedProducts - wp.stats.Products
	return wp
}

// Roots returns the planned forms of the input patterns, aligned by
// index with PlanWorkload's argument: the canonical form, or the raw
// pattern for inputs whose canonicalization is not count-exact.
func (wp *WorkloadPlan) Roots() []*rre.Pattern { return wp.roots }

// Unplanned returns the input patterns excluded from the DAG because
// their canonicalization is not count-exact; Execute materializes them
// under their raw keys after the schedule.
func (wp *WorkloadPlan) Unplanned() []*rre.Pattern { return wp.unplanned }

// Schedule returns the materialization order: every pattern's distinct
// subexpressions appear before the pattern itself.
func (wp *WorkloadPlan) Schedule() []*rre.Pattern {
	out := make([]*rre.Pattern, len(wp.nodes))
	for i, nd := range wp.nodes {
		out[i] = nd.pat
	}
	return out
}

// Stats returns the plan's dedup summary.
func (wp *WorkloadPlan) Stats() WorkloadStats { return wp.stats }

// EstimatedProducts is the admission-control cost surface: the matrix
// products executing this plan from a cold cache would perform — the
// schedule's products plus the isolated cost of the unplannable
// patterns that run outside the DAG. It is a static lower bound (a star
// closure counts as one product however many squarings it iterates) and
// deliberately ignores cache warmth: a cost ceiling must hold on the
// first, cold evaluation of a pathological request, which is exactly
// when it matters.
func (wp *WorkloadPlan) EstimatedProducts() int {
	return wp.stats.Products + wp.unplannedProducts
}

// EstimateProducts estimates the cold-cache evaluation cost of a
// request's pattern set in matrix products, sharing subexpressions the
// way the workload planner would. Admission control compares it against
// the configured per-request cost ceiling before any materialization
// starts.
func EstimateProducts(patterns []*rre.Pattern) int {
	return PlanWorkload(patterns).EstimatedProducts()
}

// Execute materializes the schedule into ev's cache across a pool of
// workers. Each DAG node is dispatched once, after all of its children
// complete, so every distinct subexpression is computed exactly once
// per (version, canonical pattern) key; the unplannable patterns (see
// WorkloadStats.Unplannable) follow sequentially under their raw keys.
// On cancellation (a context-bound evaluator whose deadline expires
// mid-schedule) Execute stops issuing products and returns the first
// *Canceled error; nodes already materialized stay cached, so a retry
// resumes where the schedule stopped.
func (wp *WorkloadPlan) Execute(ev *Evaluator, workers int) error {
	iw := ev.ints()
	n := len(wp.nodes)
	if n > 0 {
		if workers < 1 {
			workers = 1
		}
		if workers > n {
			workers = n
		}

		// ready is buffered for the whole DAG so completions never block.
		ready := make(chan int, n)
		remaining := make([]int32, n)
		for _, nd := range wp.nodes {
			remaining[nd.idx] = int32(len(nd.deps))
			if len(nd.deps) == 0 {
				ready <- nd.idx
			}
		}

		var (
			done    atomic.Int32
			failed  atomic.Bool
			errOnce sync.Once
			firstEr error
			wg      sync.WaitGroup
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for idx := range ready {
					nd := wp.nodes[idx]
					// After a failure the schedule only unwinds: skipping the
					// evaluator call avoids a spurious cache miss plus
					// cancellation panic per remaining node. The dependency
					// bookkeeping below still runs so the drain terminates.
					if !failed.Load() {
						if err := Guard(func() error {
							iw.eval(nd.pat)
							return nil
						}); err != nil {
							failed.Store(true)
							errOnce.Do(func() { firstEr = err })
						}
					}
					for _, pi := range nd.parents {
						if atomic.AddInt32(&remaining[pi], -1) == 0 {
							ready <- pi
						}
					}
					if done.Add(1) == int32(n) {
						close(ready)
					}
				}
			}()
		}
		wg.Wait()
		if firstEr != nil {
			return firstEr
		}
	}
	// Inexactly-canonicalizable patterns run outside the DAG, one after
	// another under their raw keys — the same key a canonical-key
	// evaluator falls back to at scoring.
	for _, p := range wp.unplanned {
		if err := Guard(func() error {
			iw.eval(p)
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}
