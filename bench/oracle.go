package main

import (
	"fmt"

	"relsim/internal/datasets"
	"relsim/internal/eval"
	"relsim/internal/graph"
	"relsim/internal/pattern"
	"relsim/internal/rre"
	"relsim/internal/schema"
	"relsim/internal/server"
	"relsim/internal/sim"
)

// oracle is the in-process reference the server's answers are compared
// with: sim.RelSimAggregate on a fresh evaluator over the same graph
// state, reached by applying the same generated mutations. It shares no
// cache, store or maintenance code path with the server.
type oracle struct {
	g       *graph.Graph
	sc      *schema.Schema
	seed    uint64
	commits int             // mutations applied to g
	ev      *eval.Evaluator // nil after g changed
	expand  map[string][]*rre.Pattern
}

func newOracle(seed uint64) (*oracle, error) {
	ds, err := datasets.ByName("dblp")
	if err != nil {
		return nil, err
	}
	return &oracle{g: ds.Graph, sc: ds.Schema, seed: seed, expand: map[string][]*rre.Pattern{}}, nil
}

// advance applies generated mutations until n have been applied. The
// graph only moves forward, so callers check versions in rising order.
func (o *oracle) advance(n int) error {
	if n < o.commits {
		return fmt.Errorf("oracle is at commit %d, cannot go back to %d", o.commits, n)
	}
	for ; o.commits < n; o.commits++ {
		m := mutation(o.seed, o.commits)
		for _, ns := range m.AddNodes {
			o.g.AddNode(ns.Name, ns.Type)
		}
		for _, es := range m.Add {
			u, v, err := endpoints(o.g, es)
			if err != nil {
				return err
			}
			o.g.AddEdge(u, es.Label, v)
		}
		for _, es := range m.Remove {
			u, v, err := endpoints(o.g, es)
			if err != nil {
				return err
			}
			if !o.g.RemoveEdge(u, es.Label, v) {
				return fmt.Errorf("oracle: edge %s -%s-> %s not present", es.From, es.Label, es.To)
			}
		}
		o.ev = nil
	}
	return nil
}

// nodeNamer resolves display names; the mutable graph and a store
// transaction both do.
type nodeNamer interface {
	NodeByName(name string) (graph.Node, bool)
}

// endpoints resolves the two ends of a generated edge.
func endpoints(g nodeNamer, es server.EdgeSpec) (u, v graph.NodeID, err error) {
	from, ok := g.NodeByName(es.From)
	if !ok {
		return 0, 0, fmt.Errorf("node %q not found", es.From)
	}
	to, ok := g.NodeByName(es.To)
	if !ok {
		return 0, 0, fmt.Errorf("node %q not found", es.To)
	}
	return from.ID, to.ID, nil
}

// scoredPatterns is the pattern set the default "search" algorithm
// scores for a request pattern: the Algorithm-1 expansion of a simple
// pattern, else the pattern itself.
func scoredPatterns(sc *schema.Schema, pat string) ([]*rre.Pattern, error) {
	p, err := rre.Parse(pat)
	if err != nil {
		return nil, err
	}
	if !p.IsSimple() {
		return []*rre.Pattern{p}, nil
	}
	return pattern.Generate(sc, p, pattern.Default())
}

// patterns memoizes scoredPatterns per request pattern.
func (o *oracle) patterns(pat string) ([]*rre.Pattern, error) {
	if ps, ok := o.expand[pat]; ok {
		return ps, nil
	}
	ps, err := scoredPatterns(o.sc, pat)
	if err != nil {
		return nil, err
	}
	o.expand[pat] = ps
	return ps, nil
}

// answer computes the reference top-k for one generated read at the
// oracle's current graph state.
func (o *oracle) answer(req server.SearchRequest) (sim.Ranking, error) {
	ps, err := o.patterns(req.Pattern)
	if err != nil {
		return sim.Ranking{}, err
	}
	q, ok := o.g.NodeByName(req.Query)
	if !ok {
		return sim.Ranking{}, fmt.Errorf("oracle: query node %q not found", req.Query)
	}
	if o.ev == nil {
		o.ev = eval.New(o.g)
	}
	return sim.RelSimAggregate(o.ev, ps, q.ID, o.g.NodesOfType(req.Type)).TopK(req.Top), nil
}

// check compares one server answer with the reference: same ids in the
// same order with the same scores. Scores are sums of the same float64
// terms in the same pattern order on both sides, and Go's JSON float
// encoding round-trips, so equality is exact.
func (o *oracle) check(req server.SearchRequest, got *server.SearchResponse) error {
	want, err := o.answer(req)
	if err != nil {
		return err
	}
	if got == nil {
		return fmt.Errorf("%s on %s: no answer", req.Pattern, req.Query)
	}
	if len(got.Results) != want.Len() {
		return fmt.Errorf("%s on %s: %d results, want %d", req.Pattern, req.Query, len(got.Results), want.Len())
	}
	for i, r := range got.Results {
		if r.ID != want.IDs[i] || r.Score != want.Scores[i] {
			return fmt.Errorf("%s on %s: rank %d is node %d score %v, want node %d score %v",
				req.Pattern, req.Query, i+1, r.ID, r.Score, want.IDs[i], want.Scores[i])
		}
	}
	return nil
}
