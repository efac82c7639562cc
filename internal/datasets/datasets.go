// Package datasets builds the synthetic evaluation datasets of the
// paper's empirical study (§7). The originals (DBLP with MAS area
// annotations, the WSU course XML dataset, and an NIH biomedical graph
// with expert-curated disease→drug ground truth) are not redistributable
// or not public, so each generator reproduces the corresponding *schema*,
// the tgd constraints the paper relies on, and a seeded random instance
// whose structure satisfies those constraints by construction — which is
// exactly what the robustness experiments exercise. See DESIGN.md §2 for
// the substitution rationale.
//
// Each dataset bundles the graph, its schema, the paper's canned
// transformations with their inverses, and the query workload samplers.
package datasets

import (
	"fmt"
	"math/rand"
	"sort"

	"relsim/internal/graph"
	"relsim/internal/mapping"
	"relsim/internal/schema"
)

// Dataset bundles a generated database with its schema metadata.
type Dataset struct {
	Name   string
	Graph  *graph.Graph
	Schema *schema.Schema
}

// registry is the single source of truth for the named datasets: Names,
// ByName and SchemaByName all derive from it, so they cannot drift. A
// nil schema entry means the dataset has no canned tgd constraints.
var registry = []struct {
	name   string
	build  func() Dataset
	schema func() *schema.Schema
}{
	{"dblp", func() Dataset { return DBLP(FullDBLP()) }, DBLPSchema},
	{"dblp-small", func() Dataset { return DBLP(SmallDBLP()) }, DBLPSchema},
	{"wsu", func() Dataset { return WSU(DefaultWSU()) }, WSUSchema},
	{"biomed", func() Dataset { return BioMed(DefaultBioMed()).Dataset }, BioMedSchema},
	{"biomed-small", func() Dataset { return BioMed(SmallBioMed()).Dataset }, BioMedSchema},
	{"mas", func() Dataset { return MAS(DefaultMAS()).Dataset }, nil},
}

// Names lists the dataset names accepted by ByName, in display order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.name
	}
	return out
}

// ByName generates the named dataset with its default (paper) config.
// The accepted names are those of Names.
func ByName(name string) (Dataset, error) {
	for _, e := range registry {
		if e.name == name {
			return e.build(), nil
		}
	}
	return Dataset{}, fmt.Errorf("datasets: unknown dataset %q (have %v)", name, Names())
}

// SchemaByName returns the tgd schema for a dataset or schema name, or
// nil when the name has no canned constraints ("" and "mas" included).
func SchemaByName(name string) *schema.Schema {
	for _, e := range registry {
		if e.name == name && e.schema != nil {
			return e.schema()
		}
	}
	return nil
}

// DegreeWeightedSample draws n distinct nodes of the given type, with
// probability proportional to 1+degree, mirroring the paper's
// degree-based query sampling ("randomly sample 100 proceedings based on
// their node degrees"). The sample is deterministic for a fixed seed and
// sorted by node id.
func DegreeWeightedSample(g *graph.Graph, typ string, n int, seed int64) []graph.NodeID {
	s := g.Snapshot()
	ids := s.NodesOfType(typ)
	if len(ids) <= n {
		return append([]graph.NodeID(nil), ids...)
	}
	rng := rand.New(rand.NewSource(seed))
	weights := make([]float64, len(ids))
	var total float64
	for i, id := range ids {
		weights[i] = float64(1 + s.Degree(id))
		total += weights[i]
	}
	chosen := map[graph.NodeID]bool{}
	out := make([]graph.NodeID, 0, n)
	for len(out) < n {
		x := rng.Float64() * total
		for i, id := range ids {
			x -= weights[i]
			if x <= 0 {
				if !chosen[id] {
					chosen[id] = true
					out = append(out, id)
				}
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RemoveRandomEdges returns a copy of g with a fraction of its edges
// removed uniformly at random (seeded). It implements the lossy
// "(.95)" transformations of §7.1, which drop 5% of edges after
// restructuring.
func RemoveRandomEdges(g *graph.Graph, fraction float64, seed int64) *graph.Graph {
	s := g.Snapshot()
	edges := s.Edges()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	keep := len(edges) - int(float64(len(edges))*fraction)
	if keep < 0 {
		keep = 0
	}
	kept := edges[:keep]
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].Label != kept[j].Label {
			return kept[i].Label < kept[j].Label
		}
		if kept[i].From != kept[j].From {
			return kept[i].From < kept[j].From
		}
		return kept[i].To < kept[j].To
	})
	out := graph.New()
	for i := 0; i < s.NumNodes(); i++ {
		n := s.Node(graph.NodeID(i))
		out.AddNode(n.Name, n.Type)
	}
	for _, e := range kept {
		out.AddEdge(e.From, e.Label, e.To)
	}
	return out
}

// ApplyLossy applies t to g and then removes the given fraction of
// edges, the construction of DBLP2SIGM(.95) and BioMedT(.95).
func ApplyLossy(t mapping.Transformation, g *graph.Graph, fraction float64, seed int64) *graph.Graph {
	return RemoveRandomEdges(t.Apply(g), fraction, seed)
}

// pick returns k distinct ints in [0, n) (k ≤ n), sorted.
func pick(rng *rand.Rand, n, k int) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	seen := map[int]bool{}
	out := make([]int, 0, k)
	for len(out) < k {
		x := rng.Intn(n)
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Ints(out)
	return out
}

// pickBiased returns k distinct ints in [0, n), drawn with a quadratic
// bias toward low indices (index ≈ n·u² for uniform u). It models skewed
// popularity: low-indexed entities are hubs shared by many neighbors,
// the degree structure that confounds raw random-walk proximity.
func pickBiased(rng *rand.Rand, n, k int) []int {
	if k >= n {
		return pick(rng, n, k)
	}
	seen := map[int]bool{}
	out := make([]int, 0, k)
	for len(out) < k {
		u := rng.Float64()
		x := int(float64(n) * u * u)
		if x >= n {
			x = n - 1
		}
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Ints(out)
	return out
}

// between returns a uniform int in [lo, hi].
func between(rng *rand.Rand, lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + rng.Intn(hi-lo+1)
}
