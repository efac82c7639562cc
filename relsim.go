// Package relsim is a structurally robust similarity search library for
// labeled graph databases, implementing RelSim from "Structural
// Generalizability: The Case of Similarity Search" (SIGMOD 2021).
//
// Graph similarity algorithms such as SimRank, random walk with restart
// and PathSim return different answers on databases that represent the
// same information under different structures. RelSim fixes this: with
// relationship patterns written in the rich-relationship expression
// (RRE) language — regular path queries extended with a nested operator
// [p] and a skip operator ⌈⌈p⌋⌋ (spelled <p> here) — Equation-1 scores
// are provably invariant under every invertible schema transformation.
//
// The typical flow:
//
//	g := relsim.NewGraph()
//	// ... add nodes and edges ...
//	eng := relsim.NewEngine(g, mySchema)
//	rank, err := eng.Search("field.field-", queryNode, relsim.WithCandidates(areas))
//
// Search expands simple patterns against the schema's tgd constraints
// (Algorithm 1 of the paper) and aggregates the scores, so users write
// plain meta-paths and still get structurally robust answers. The
// lower-level entry points (RelSim, PathSim, HeteSim, RWR, SimRank) are
// exposed for benchmarking and comparisons, as is the Theorem 2 pattern
// rewriting across schema mappings (RewritePattern).
//
// An engine answers every query from one immutable snapshot of g, its
// version: one answer per database state. After mutating g, call
// InvalidateLabels with the touched labels (or InvalidateAll) to move
// the engine to the graph as it is then.
//
// This package is the library. The HTTP service over a live, durable,
// replicated store is the cmd/relsim-serve binary.
package relsim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"relsim/internal/eval"
	"relsim/internal/graph"
	"relsim/internal/mapping"
	"relsim/internal/pattern"
	"relsim/internal/rre"
	"relsim/internal/schema"
	"relsim/internal/sim"
	"relsim/internal/sparse"
)

// Re-exported core types. The facade aliases the internal packages so a
// downstream user only imports "relsim".
type (
	// Graph is a labeled directed graph database (paper §2).
	Graph = graph.Graph
	// NodeID identifies a node; ids are dense 0..n-1.
	NodeID = graph.NodeID
	// Node is a stored node with optional name and type tag.
	Node = graph.Node
	// Edge is a labeled edge.
	Edge = graph.Edge
	// Pattern is an RRE relationship pattern (paper §4.2).
	Pattern = rre.Pattern
	// Schema is a label set plus tgd constraints (paper §2).
	Schema = schema.Schema
	// Constraint is a tuple-generating dependency over the schema.
	Constraint = schema.Constraint
	// Atom is one (from, path, to) atom of a constraint premise.
	Atom = schema.Atom
	// Var is a constraint/mapping variable.
	Var = schema.Var
	// Transformation is a schema mapping (paper §3).
	Transformation = mapping.Transformation
	// Rule is one mapping rule.
	Rule = mapping.Rule
	// ConclusionAtom is a concluded edge of a mapping rule.
	ConclusionAtom = mapping.ConclusionAtom
	// Ranking is a ranked similarity answer list.
	Ranking = sim.Ranking
	// Snapshot is an immutable graph version (MVCC read view).
	Snapshot = graph.Snapshot
	// CacheStats is a snapshot of an engine's commuting-matrix cache.
	CacheStats = eval.CacheStats
)

// NewGraph returns an empty graph database.
func NewGraph() *Graph { return graph.New() }

// CanonicalPattern returns the canonical form of p: associativity
// flattened, reversal pushed onto labels, disjunction branches sorted
// and deduplicated. Exactly-canonicalizable patterns (see
// rre.CanonicalExact; everything except disjunction branches that
// become equal only under canonicalization) with equal canonical
// renderings have identical commuting matrices over every graph.
func CanonicalPattern(p *Pattern) *Pattern { return rre.Canonical(p) }

// NewSchema builds a schema from labels and constraints.
func NewSchema(labels []string, constraints ...Constraint) *Schema {
	return schema.New(labels, constraints...)
}

// ParsePattern parses an RRE pattern in the ASCII syntax: labels
// ("p-in"), '.' concatenation, '+' disjunction, postfix '-' reversal,
// postfix '*' Kleene star, '[p]' nesting, '<p>' skip, '()' epsilon.
func ParsePattern(s string) (*Pattern, error) { return rre.Parse(s) }

// MustParsePattern is ParsePattern panicking on error.
func MustParsePattern(s string) *Pattern { return rre.MustParse(s) }

// TGD builds a tgd constraint: premise atoms → (from, label, to).
func TGD(name string, premise []Atom, from Var, conclusionLabel string, to Var) Constraint {
	return schema.TGD(name, premise, from, conclusionLabel, to)
}

// At builds a premise atom (from, path, to); path uses the RRE syntax.
func At(from Var, path string, to Var) Atom { return schema.At(from, path, to) }

// RewritePattern maps a pattern over a source schema to the
// count-equivalent pattern over a transformed schema, given the inverse
// transformation (Theorem 2 / Corollary 1).
func RewritePattern(p *Pattern, inverse Transformation) (*Pattern, error) {
	return mapping.RewritePattern(p, inverse)
}

// VerifyInverse checks constructively that inv undoes t on instance g.
func VerifyInverse(g *Graph, t, inv Transformation) bool {
	return mapping.VerifyInverse(g, t, inv)
}

// Engine answers similarity queries over one graph database, caching
// commuting matrices across queries. It is safe for concurrent use.
// Every answer reads one immutable snapshot of g, the engine's version:
// ev is the evaluator bound to it. A change to g is not seen until
// InvalidateLabels or InvalidateAll snapshots g again and moves to the
// next version.
type Engine struct {
	g      *Graph
	schema *Schema
	genOpt pattern.Options
	cache  *eval.Cache

	mu sync.Mutex // serializes version changes
	ev atomic.Pointer[eval.Evaluator]
}

// NewEngine builds an engine for g. The schema may be nil when no
// constraints are known; Search then behaves like plain RelSim.
func NewEngine(g *Graph, s *Schema) *Engine {
	if s == nil {
		s = schema.New(g.Labels())
	}
	e := &Engine{g: g, schema: s, genOpt: pattern.Default(), cache: eval.NewCache()}
	e.ev.Store(eval.NewVersioned(g.Snapshot(), 0, e.cache))
	return e
}

// Graph returns the engine's graph, which may be ahead of the version
// the engine answers from.
func (e *Engine) Graph() *Graph { return e.g }

// Schema returns the engine's schema.
func (e *Engine) Schema() *Schema { return e.schema }

// CheckConstraints verifies the schema constraints against the graph and
// returns a human-readable description of up to max violations.
func (e *Engine) CheckConstraints(max int) []string {
	var out []string
	for _, v := range e.schema.Check(e.g, max) {
		out = append(out, v.String())
	}
	return out
}

// Materialize pre-computes commuting matrices for the given patterns
// (e.g. all meta-paths of a workload) to speed up later queries.
func (e *Engine) Materialize(patterns ...*Pattern) {
	e.ev.Load().Materialize(patterns...)
}

// InvalidateLabels moves the engine to g as it is now, evicting the
// cached commuting matrices of every pattern mentioning at least one of
// the given labels, and returns the number evicted. Call it after
// mutating edges of those labels on the engine's graph; matrices of
// untouched patterns stay hot unless nodes were added, which evicts
// every matrix (their dimension changes).
func (e *Engine) InvalidateLabels(labels ...string) int { return e.advance(labels, false) }

// InvalidateAll moves the engine to g as it is now and drops the whole
// commuting-matrix cache.
func (e *Engine) InvalidateAll() int { return e.advance(nil, true) }

// advance moves the engine from version v to v+1, a fresh snapshot of
// g, through the cache's one commit entry point, as a server commit
// does, then swaps in the evaluator at v+1. The commit closes the
// entries of the touched labels (every entry when all is set or the
// node count changed) and returns their count; with no deltas to patch
// against and no pinned readers, it drops them too. A computation
// still running at v lands as [v, v+1), where no later reader looks.
func (e *Engine) advance(labels []string, all bool) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	old, next := e.ev.Load(), e.g.Snapshot()
	v := old.Version()
	d := eval.CommitDelta{From: v, To: v + 1, OldN: old.Graph().NumNodes(), NewN: next.NumNodes(), All: all,
		Labels: make(map[string]*sparse.Delta, len(labels))}
	for _, l := range labels {
		d.Labels[l] = nil
	}
	res := e.cache.Commit(nil, d, func() uint64 { return v + 1 })
	e.ev.Store(eval.NewVersioned(next, v+1, e.cache))
	return res.Closed
}

// at returns the evaluator at the engine's version and whether query is
// a node of its snapshot: a ranking for any other id is empty.
func (e *Engine) at(query NodeID) (*eval.Evaluator, bool) {
	ev := e.ev.Load()
	return ev, ev.Graph().Has(query)
}

// CacheStats returns the commuting-matrix cache counters.
func (e *Engine) CacheStats() CacheStats { return e.cache.Stats() }

// SetCacheLimit bounds the commuting-matrix cache to n matrices with LRU
// eviction; n <= 0 removes the bound.
func (e *Engine) SetCacheLimit(n int) { e.cache.SetLimit(n) }

// searchConfig collects Search options.
type searchConfig struct {
	candidates []NodeID
	noExpand   bool
}

// SearchOption configures Search.
type SearchOption func(*searchConfig)

// WithCandidates restricts answers to the given nodes (typically the
// query's entity type).
func WithCandidates(ids []NodeID) SearchOption {
	return func(c *searchConfig) { c.candidates = ids }
}

// WithCandidateType restricts answers to nodes of the given type tag.
func WithCandidateType(g *Graph, typ string) SearchOption {
	return func(c *searchConfig) { c.candidates = g.NodesOfType(typ) }
}

// WithoutExpansion disables the Algorithm-1 expansion of simple
// patterns; the pattern is scored as given.
func WithoutExpansion() SearchOption {
	return func(c *searchConfig) { c.noExpand = true }
}

// Search answers a similarity query with the structurally robust
// pipeline: the pattern is parsed, simple patterns are expanded against
// the schema constraints into the set E_p (Algorithm 1, with the §6
// optimizations), and the Equation-1 scores of all patterns in E_p are
// aggregated (Proposition 5). Non-simple RRE patterns are scored
// directly (they are robust by Corollary 1 when written in RRE).
func (e *Engine) Search(patternSrc string, query NodeID, opts ...SearchOption) (Ranking, error) {
	p, err := rre.Parse(patternSrc)
	if err != nil {
		return Ranking{}, err
	}
	return e.SearchPattern(p, query, opts...)
}

// SearchPattern is Search with a pre-parsed pattern.
func (e *Engine) SearchPattern(p *Pattern, query NodeID, opts ...SearchOption) (Ranking, error) {
	ev, ok := e.at(query)
	if !ok {
		return Ranking{}, fmt.Errorf("relsim: query node %d does not exist", query)
	}
	var cfg searchConfig
	for _, o := range opts {
		o(&cfg)
	}
	if p.IsSimple() && !cfg.noExpand {
		ps, err := pattern.Generate(e.schema, p, e.genOpt)
		if err != nil {
			return Ranking{}, err
		}
		return sim.RelSimAggregate(ev, ps, query, cfg.candidates), nil
	}
	return sim.RelSim(ev, p, query, cfg.candidates), nil
}

// ExpandPattern runs Algorithm 1 on a simple pattern and returns the
// generated set E_p.
func (e *Engine) ExpandPattern(p *Pattern) ([]*Pattern, error) {
	return pattern.Generate(e.schema, p, e.genOpt)
}

// RelSim scores an RRE pattern with Equation 1 (paper §4). Candidates
// are a set: a repeated id is ranked once, an id outside the graph is
// ignored, and nil ranks every node. Like every ranking method of the
// engine, it returns an empty ranking for a query outside the graph.
func (e *Engine) RelSim(p *Pattern, query NodeID, candidates []NodeID) Ranking {
	ev, ok := e.at(query)
	if !ok {
		return Ranking{}
	}
	return sim.RelSim(ev, p, query, candidates)
}

// PathSim scores a simple meta-path with Equation 1 (the baseline).
// Candidates are read as RelSim reads them.
func (e *Engine) PathSim(p *Pattern, query NodeID, candidates []NodeID) (Ranking, error) {
	ev, ok := e.at(query)
	if !ok {
		return Ranking{}, nil
	}
	return sim.PathSim(ev, p, query, candidates)
}

// HeteSim scores a (possibly asymmetric) path with the HeteSim relevance
// measure.
func (e *Engine) HeteSim(p *Pattern, query NodeID, candidates []NodeID) Ranking {
	ev, ok := e.at(query)
	if !ok {
		return Ranking{}
	}
	return sim.HeteSimRRE(ev, p, query, candidates)
}

// RWR ranks by random walk with restart (restart probability 0.8, the
// paper's setting).
func (e *Engine) RWR(query NodeID, candidates []NodeID) Ranking {
	ev, ok := e.at(query)
	if !ok {
		return Ranking{}
	}
	return sim.RWR(ev, sim.DefaultRWR(), query, candidates)
}

// SimRank ranks by Monte-Carlo SimRank (damping 0.8, deterministic
// seed).
func (e *Engine) SimRank(query NodeID, candidates []NodeID) Ranking {
	ev, ok := e.at(query)
	if !ok {
		return Ranking{}
	}
	return sim.SimRankMC(ev, sim.DefaultSimRank(), query, candidates)
}

// InstanceCount returns |I^{u,v}(p)|, the number of instances of the
// pattern from u to v (paper §4.2): entry v of e_u pushed through the
// pattern, a label step at a time over the rows of the engine's
// snapshot, without building its commuting matrix. Only a star, nest,
// skip or reversed composite factor is read from the cache.
func (e *Engine) InstanceCount(p *Pattern, u, v NodeID) int64 {
	count, _ := e.ev.Load().Pair(p, u, v)
	return count
}

// Explain enumerates up to limit concrete instances of the pattern from
// u to v — the recorded traversal sequences of the paper's §4.2 instance
// semantics — rendered with node names where available. It answers "why
// are these two entities similar under this pattern?". A node outside
// the graph has no instances.
func (e *Engine) Explain(p *Pattern, u, v NodeID, limit int) []string {
	ev, ok := e.at(u)
	if !ok || !ev.Graph().Has(v) {
		return nil
	}
	ins := ev.Instances(p, u, v, limit)
	out := make([]string, len(ins))
	for i, in := range ins {
		out[i] = in.Render(ev.Graph())
	}
	return out
}

// WitnessExplanation is the library-level witness annotation for one
// node pair: the instance count of the pattern from u to v plus the
// intermediate nodes of one canonical (shortlex-minimal) derivation.
// Steps holds at most sparse.MaxWitnessSteps nodes; when the derivation
// visits more, Steps is a prefix and Truncated is set. PathNodes is the
// derivation's full intermediate-node count.
type WitnessExplanation struct {
	Count     int64
	Steps     []NodeID
	PathNodes int
	Truncated bool
}

// ExplainWitness answers "why are u and v similar under p?" from the
// witness semiring: e_u pushed through the pattern over
// provenance-carrying values yields, for every v at once, the instance
// count and a canonical derivation, at the cost of the edges the push
// crosses, not of an instance enumeration or a witness matrix. It
// reports false when no instance connects u to v. For the exhaustive
// listing of instances, use Explain.
func (e *Engine) ExplainWitness(p *Pattern, u, v NodeID) (WitnessExplanation, bool) {
	w, ok := e.ev.Load().WitnessRow(p, u).At(v)
	if !ok {
		return WitnessExplanation{}, false
	}
	ex := WitnessExplanation{Count: w.Count, PathNodes: int(w.Total), Truncated: w.Truncated()}
	for _, id := range w.Steps() {
		ex.Steps = append(ex.Steps, NodeID(id))
	}
	return ex, true
}

// ConjunctivePattern is the conjunctive RRE extension for relationships
// whose shape is cyclic (paper §4.2); see Engine.ConjunctiveSimilarity.
type ConjunctivePattern = eval.ConjunctivePattern

// ConjAtom is one conjunct of a ConjunctivePattern.
type ConjAtom = eval.ConjAtom

// ConjunctiveSimilarity scores Equation 1 over a conjunctive RRE for a
// single node pair.
func (e *Engine) ConjunctiveSimilarity(c ConjunctivePattern, u, v NodeID) (float64, error) {
	return e.ev.Load().ConjunctivePathSim(c, u, v)
}

// Renaming builds a label-renaming transformation; see
// mapping.Renaming.
func Renaming(name string, rename map[string]string) Transformation {
	return mapping.Renaming(name, rename)
}

// RenamingInverse returns the inverse of a bijective renaming, or an
// error if the renaming is not injective.
func RenamingInverse(name string, rename map[string]string) (Transformation, error) {
	return mapping.RenamingInverse(name, rename)
}
