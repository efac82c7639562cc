package sim

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"testing"

	"relsim/internal/datasets"
	"relsim/internal/eval"
	"relsim/internal/graph"
	"relsim/internal/sparse"
)

// TestScoreDomainMatchesScoreCutsOnFullDBLP: the typed path answers
// what the list form answers given the type's node list — ids, order
// and score bits — for the headline and every side pattern of the
// benchmark's read rule, ranking every answer and the top 10. It does so
// again after a commit that adds a node of every type the reads answer
// from, and the new nodes rank: the type column the commit appended to
// is the one the scorer tests.
func TestScoreDomainMatchesScoreCutsOnFullDBLP(t *testing.T) {
	ds, err := datasets.ByName("dblp")
	if err != nil {
		t.Fatal(err)
	}
	snap := ds.Graph.Snapshot()
	cache := eval.NewCache()
	ev := eval.NewVersioned(snap, 0, cache)
	reads := append([]struct{ pattern, typ string }{{benchHeadline, "proc"}}, benchSidePool...)
	cuts := make([][]eval.Cut, len(reads))
	for i, r := range reads {
		for _, p := range benchPatterns(t, ds, r.pattern) {
			cuts[i] = append(cuts[i], ev.Cut(p))
		}
	}
	rng := rand.New(rand.NewSource(5))
	check := func(ev *eval.Evaluator, snap *graph.Snapshot, extra map[string]graph.NodeID) {
		t.Helper()
		for i, r := range reads {
			cands, dom := snap.NodesOfType(r.typ), snap.TypeDomain(r.typ)
			queries := []graph.NodeID{cands[rng.Intn(len(cands))], cands[rng.Intn(len(cands))]}
			if v, ok := extra[r.typ]; ok {
				queries = append(queries, v)
			}
			for _, q := range queries {
				for _, top := range []int{0, 10} {
					what := fmt.Sprintf("v%d %s, query %d, top %d", ev.Version(), r.pattern, q, top)
					sameRanking(t, what, ScoreDomain(ev, cuts[i], q, dom, top), ScoreCuts(ev, cuts[i], q, cands, top))
				}
			}
		}
	}
	check(ev, snap, nil)

	// A new author writes a new paper, published in an existing proc on
	// an existing area, with an existing author; an existing paper moves
	// into a new proc.
	first := func(typ string) graph.NodeID { return snap.NodesOfType(typ)[0] }
	b := graph.NewBuilder(snap)
	author, paper, proc := b.AddNode("new-author", "author"), b.AddNode("new-paper", "paper"), b.AddNode("new-proc", "proc")
	edges := []graph.Edge{
		{From: author, Label: "w", To: paper},
		{From: first("author"), Label: "w", To: paper},
		{From: paper, Label: "p-in", To: first("proc")},
		{From: paper, Label: "r-a", To: first("area")},
		{From: first("paper"), Label: "p-in", To: proc},
	}
	triples := map[string][]sparse.Triple{}
	for _, e := range edges {
		if err := b.AddEdge(e.From, e.Label, e.To); err != nil {
			t.Fatal(err)
		}
		triples[e.Label] = append(triples[e.Label], sparse.Triple{Row: int(e.From), Col: int(e.To), Val: 1})
	}
	next := b.Build()
	d := eval.CommitDelta{From: 0, To: 1, OldN: snap.NumNodes(), NewN: next.NumNodes(), Labels: map[string]*sparse.Delta{}}
	for l, ts := range triples {
		d.Labels[l] = sparse.NewDelta(d.NewN, ts)
	}
	cache.Commit(next, d, func() uint64 { return 1 })
	ev1 := eval.NewVersioned(next, 1, cache)
	check(ev1, next, map[string]graph.NodeID{"author": author, "paper": paper, "proc": proc})
	coauthors := ScoreDomain(ev1, []eval.Cut{ev1.Cut(benchPatterns(t, ds, "w.w-")[0])}, first("author"), next.TypeDomain("author"), 0)
	if coauthors.Rank(author) == 0 {
		t.Fatalf("the new author does not rank among the co-authors of author %d: %v", first("author"), coauthors.IDs)
	}
}

// withFillers returns snap with n more authors embedded apart from its
// own: each two of them write a paper of their own, so they fill the
// author domain and the w adjacency, but no author of snap reaches
// them, or is reached from them, by any pattern.
func withFillers(snap *graph.Snapshot, n int) *graph.Snapshot {
	b := graph.NewBuilder(snap)
	for i := 0; i < n; i += 2 {
		p := b.AddNode("", "paper")
		for j := i; j < min(i+2, n); j++ {
			if err := b.AddEdge(b.AddNode("", "author"), "w", p); err != nil {
				panic(err)
			}
		}
	}
	return b.Build()
}

// TestScoreDomainCostsItsAnswers is the scaling gate on the typed path:
// the same query neighbourhood, embedded among 16× the authors, scores
// the same answers with the same allocations and the same number of
// domain tests per call. The list form stamps every candidate, so its
// cost grows with the domain; BenchmarkScoreCuts times both sizes.
func TestScoreDomainCostsItsAnswers(t *testing.T) {
	race := false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			race = race || s.Key == "-race" && s.Value == "true"
		}
	}
	ds, err := datasets.ByName("dblp")
	if err != nil {
		t.Fatal(err)
	}
	base := ds.Graph.Snapshot()
	authors := base.NodesOfType("author")
	sizes := []*graph.Snapshot{base, withFillers(base, 15*len(authors))}
	if got := len(sizes[1].NodesOfType("author")); got != 16*len(authors) {
		t.Fatalf("the embedding holds %d authors, want %d", got, 16*len(authors))
	}
	for _, src := range []string{"w.w-", "w.(p-in.p-in- + w-.w).w-"} {
		type read struct {
			ev   *eval.Evaluator
			cuts []eval.Cut
			dom  graph.Domain
		}
		var at []read
		for _, snap := range sizes {
			ev := eval.NewVersioned(snap, 0, eval.NewCache())
			var cuts []eval.Cut
			for _, p := range benchPatterns(t, ds, src) {
				cuts = append(cuts, ev.Cut(p))
			}
			at = append(at, read{ev, cuts, snap.TypeDomain("author")})
		}
		for _, q := range authors[:8] {
			var tests []int
			var allocs []float64
			for i, r := range at {
				got := ScoreDomain(r.ev, r.cuts, q, r.dom, 10)
				if i > 0 {
					sameRanking(t, fmt.Sprintf("%s, query %d, 16× the authors", src, q), got, ScoreDomain(at[0].ev, at[0].cuts, q, at[0].dom, 10))
				}
				s := score(r.ev, r.cuts, q, r.dom)
				tests = append(tests, s.tests)
				s.finish(s.ps[:0])
				allocs = append(allocs, testing.AllocsPerRun(20, func() { ScoreDomain(r.ev, r.cuts, q, r.dom, 10) }))
			}
			if tests[0] != tests[1] {
				t.Errorf("%s, query %d: %d domain tests per call among 16× the authors, %d at 1×", src, q, tests[1], tests[0])
			}
			if !race && allocs[0] != allocs[1] {
				t.Errorf("%s, query %d: %.0f allocations per call among 16× the authors, %.0f at 1×", src, q, allocs[1], allocs[0])
			}
		}
	}
}
