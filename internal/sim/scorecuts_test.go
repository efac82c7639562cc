package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"relsim/internal/datasets"
	"relsim/internal/eval"
	"relsim/internal/graph"
	"relsim/internal/rre"
)

// TestCandidatesAreASet pins the candidate contract of ScoreCuts on a
// concatenation root and on roots of every other kind alike: a repeated
// id is ranked once, an id outside [0, n) is ignored, the query never
// ranks, and nil means every node. Three nodes share one l-target, so
// every pair of them scores 1 under each pattern.
func TestCandidatesAreASet(t *testing.T) {
	g := graph.New()
	for i := 0; i < 3; i++ {
		g.AddNode(fmt.Sprintf("n%d", i), "t")
	}
	hub := g.AddNode("hub", "h")
	for v := graph.NodeID(0); v < 3; v++ {
		g.AddEdge(v, "l", hub)
	}
	const query = 0
	cases := []struct {
		name       string
		candidates []graph.NodeID
		want       []graph.NodeID
	}{
		{"nil", nil, []graph.NodeID{1, 2}},
		{"empty", []graph.NodeID{}, nil},
		{"repeated", []graph.NodeID{1, 1}, []graph.NodeID{1}},
		{"repeated and interleaved", []graph.NodeID{2, 1, 2, 1, 1}, []graph.NodeID{1, 2}},
		{"past n", []graph.NodeID{99, 1}, []graph.NodeID{1}},
		{"negative", []graph.NodeID{-1, 2}, []graph.NodeID{2}},
		{"query only", []graph.NodeID{query, 99}, nil},
		{"all, twice", []graph.NodeID{0, 1, 2, 3, 0, 1, 2, 3}, []graph.NodeID{1, 2}},
	}
	raw := eval.New(g)
	canonical := eval.NewVersioned(g.Snapshot(), 0, eval.NewCache())
	for _, src := range []string{"l.l-", "<l.l->", "(l.l-)*", "l.l- + l-.l"} {
		p := rre.MustParse(src)
		for _, tc := range cases {
			for name, ev := range map[string]*eval.Evaluator{"raw": raw, "canonical": canonical} {
				r := RelSim(ev, p, query, tc.candidates)
				what := fmt.Sprintf("%s (%s root, %s keys), %s candidates %v", src, p.Kind(), name, tc.name, tc.candidates)
				if len(r.IDs) != len(tc.want) {
					t.Fatalf("%s: ranked %v, want %v", what, r.IDs, tc.want)
				}
				for i, id := range tc.want {
					if r.IDs[i] != id || r.Scores[i] != 1 {
						t.Fatalf("%s: answer %d is (%d, %v), want (%d, 1)", what, i, r.IDs[i], r.Scores[i], id)
					}
				}
			}
		}
	}
}

// TestScoreCutsAllocations is the gate on "a read costs the query's
// neighbourhood": on warm FullDBLP, scoring allocates a constant number
// of times per call — the ranking it returns — whether the read is the
// 49-cut headline over the procs or w.w- over every author, ranking
// every answer or the top 10 a search returns, and whether the answer
// domain is a candidate list (ScoreCuts) or a node type (ScoreDomain):
// the scorer's O(n) state and its heap are pooled, and nothing it
// allocates grows with the candidates.
func TestScoreCutsAllocations(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are inflated by the race detector")
			}
		}
	}
	ds, err := datasets.ByName("dblp")
	if err != nil {
		t.Fatal(err)
	}
	snap := ds.Graph.Snapshot()
	ev := eval.NewVersioned(snap, 0, eval.NewCache())
	const bound = 8
	var counts []float64
	for _, tc := range []struct{ pattern, typ string }{{benchHeadline, "proc"}, {"w.w-", "author"}} {
		ps := benchPatterns(t, ds, tc.pattern)
		cuts := make([]eval.Cut, len(ps))
		for i, p := range ps {
			cuts[i] = ev.Cut(p)
		}
		cands, dom := snap.NodesOfType(tc.typ), snap.TypeDomain(tc.typ)
		// A query with at least two answers, so the sort runs in full.
		q, answers := cands[0], 0
		for _, v := range cands {
			if answers = ScoreCuts(ev, cuts, v, cands, 0).Len(); answers >= 2 {
				q = v
				break
			}
		}
		for _, entry := range []struct {
			name  string
			score func(top int) Ranking
		}{
			{"ScoreCuts", func(top int) Ranking { return ScoreCuts(ev, cuts, q, cands, top) }},
			{"ScoreDomain", func(top int) Ranking { return ScoreDomain(ev, cuts, q, dom, top) }},
		} {
			for _, top := range []int{0, 10} {
				kept := answers
				if top > 0 {
					kept = min(answers, top)
				}
				allocs := testing.AllocsPerRun(50, func() { entry.score(top) })
				// Bytes too, with the collector off so the pool keeps its
				// scorer: the ranking's 12 bytes an answer and a constant,
				// never a slice as long as the candidates.
				gc := debug.SetGCPercent(-1)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < 50; i++ {
					entry.score(top)
				}
				runtime.ReadMemStats(&after)
				debug.SetGCPercent(gc)
				perCall := (after.TotalAlloc - before.TotalAlloc) / 50
				t.Logf("%s %s, top %d: %d cuts, %d candidates, %d answers: %.0f allocations, %d bytes per call", entry.name, tc.pattern, top, len(cuts), len(cands), kept, allocs, perCall)
				if allocs > bound {
					t.Errorf("%s %s, top %d: %.0f allocations per call, want at most %d", entry.name, tc.pattern, top, allocs, bound)
				}
				if limit := uint64(256 + 16*kept); perCall > limit {
					t.Errorf("%s %s, top %d: %d bytes allocated per call, want at most %d for %d answers", entry.name, tc.pattern, top, perCall, limit, kept)
				}
				counts = append(counts, allocs)
			}
		}
	}
	if slices.Min(counts) != slices.Max(counts) {
		t.Errorf("allocations per call depend on the read: %v", counts)
	}
}

// checkTop requires ScoreCuts keeping the top k answers to return the
// first k of its full ranking, ids and score bits, for every k from −1
// to one past the number of answers: k ≤ 0 keeps them all.
func checkTop(t *testing.T, what string, ev *eval.Evaluator, ps []*rre.Pattern, query graph.NodeID, cands []graph.NodeID) {
	t.Helper()
	cuts := make([]eval.Cut, len(ps))
	for i, p := range ps {
		cuts[i] = ev.Cut(p)
	}
	full := ScoreCuts(ev, cuts, query, cands, 0)
	for k := -1; k <= full.Len()+1; k++ {
		want := full
		if k > 0 {
			want = full.TopK(k)
		}
		sameRanking(t, fmt.Sprintf("%s, top %d", what, k), ScoreCuts(ev, cuts, query, cands, k), want)
	}
}

// TestTopBreaksTiesByID: the heap that keeps a search's top answers
// orders them as the full ranking does, score descending and then id
// ascending, through runs of tied scores. Eight nodes reach one hub,
// n3 and n5 by two parallel edges: from n0 every other node scores 1
// under l.l- but those two, which score 2·2/(1+4) = 0.8.
func TestTopBreaksTiesByID(t *testing.T) {
	g := graph.New()
	for i := 0; i < 8; i++ {
		g.AddNode(fmt.Sprintf("n%d", i), "t")
	}
	hub := g.AddNode("hub", "h")
	for v := graph.NodeID(0); v < 8; v++ {
		g.AddEdge(v, "l", hub)
		if v == 3 || v == 5 {
			g.AddEdge(v, "l", hub)
		}
	}
	ev := eval.New(g)
	cuts := []eval.Cut{ev.Cut(rre.MustParse("l.l-"))}
	full := []graph.NodeID{1, 2, 4, 6, 7, 3, 5}
	for k := 1; k <= len(full); k++ {
		r := ScoreCuts(ev, cuts, 0, nil, k)
		if !slices.Equal(r.IDs, full[:k]) {
			t.Fatalf("top %d: %v, want %v", k, r.IDs, full[:k])
		}
	}
	checkTop(t, "ties", ev, []*rre.Pattern{rre.MustParse("l.l-")}, 0, nil)
}

// FuzzScoreCuts holds ScoreCuts to the materializing reference beyond
// TestScoreFromHalvesMatchesReference's seeds: the seed draws a typed
// graph, one to four random RREs and a query; every candidate set —
// nil, typed, empty, with and without the query, and one listed by the
// fuzzer, repeats and ids outside [0, n) included — must rank the
// reference's ids, order and score bits under raw and canonical keys,
// and keeping the top k answers must return the ranking's first k,
// whatever k.
func FuzzScoreCuts(f *testing.F) {
	f.Add(int64(0), []byte{})
	f.Add(int64(7), []byte{1, 1, 2})
	f.Add(int64(42), []byte{0, 3, 200, 3})
	f.Add(int64(599), []byte{5, 5, 5, 31, 255})
	f.Fuzz(func(t *testing.T, seed int64, listed []byte) {
		if len(listed) > 32 {
			t.Skip("oversized input")
		}
		rng := rand.New(rand.NewSource(seed))
		g, ps, query, sets := differentialCase(rng)
		ids := make([]graph.NodeID, len(listed))
		for i, b := range listed {
			ids[i] = graph.NodeID(int(b)%20 - 2) // [-2, 18): n is 4..12
		}
		sets["listed"] = ids
		checkAgainstReference(t, fmt.Sprintf("seed %d", seed), g, ps, query, sets)
		ev := eval.New(g)
		for name, cands := range sets {
			checkTop(t, fmt.Sprintf("seed %d, %s candidates", seed, name), ev, ps, query, cands)
		}
	})
}
