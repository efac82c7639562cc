package eval

import (
	"math/rand"
	"testing"
	"testing/quick"

	"relsim/internal/graph"
	"relsim/internal/rre"
)

// paperGraph builds the Figure 1(a) DBLP fragment: research areas
// connected to papers, papers to conferences.
func paperGraph() (*graph.Graph, map[string]graph.NodeID) {
	g := graph.New()
	names := map[string]graph.NodeID{}
	add := func(name, typ string) {
		names[name] = g.AddNode(name, typ)
	}
	add("SE", "area")
	add("DM", "area")
	add("DB", "area")
	add("CodeMining", "paper")
	add("PatternMining", "paper")
	add("SimilarityMining", "paper")
	add("SIGKDD", "proc")
	add("VLDB", "proc")
	// Figure 1(a): papers directly connected to areas (area edges point
	// paper→area here) and published in conferences.
	edges := []struct{ from, label, to string }{
		{"CodeMining", "area", "SE"},
		{"CodeMining", "area", "DM"},
		{"PatternMining", "area", "DM"},
		{"PatternMining", "area", "DB"},
		{"SimilarityMining", "area", "DM"},
		{"SimilarityMining", "area", "DB"},
		{"PatternMining", "pub-in", "SIGKDD"},
		{"PatternMining", "pub-in", "VLDB"},
		{"SimilarityMining", "pub-in", "VLDB"},
	}
	for _, e := range edges {
		g.AddEdge(names[e.from], e.label, names[e.to])
	}
	return g, names
}

// randomGraph builds a random set-semantic graph (the paper's model has
// E ⊆ V × L × V, so parallel same-label edges do not occur).
func randomGraph(rng *rand.Rand, n, m int, labels []string) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode("", "")
	}
	for i := 0; i < m; i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		l := labels[rng.Intn(len(labels))]
		if g.EdgeCount(u, l, v) == 0 {
			g.AddEdge(u, l, v)
		}
	}
	return g
}

// randomPattern builds a random RRE of bounded depth over the labels.
func randomPattern(rng *rand.Rand, labels []string, depth int) *rre.Pattern {
	if depth <= 0 {
		if rng.Intn(6) == 0 {
			return rre.Eps()
		}
		l := rre.Label(labels[rng.Intn(len(labels))])
		if rng.Intn(2) == 0 {
			return rre.Rev(l)
		}
		return l
	}
	switch rng.Intn(7) {
	case 0:
		return rre.Concat(randomPattern(rng, labels, depth-1), randomPattern(rng, labels, depth-1))
	case 1:
		return rre.Alt(randomPattern(rng, labels, depth-1), randomPattern(rng, labels, depth-1))
	case 2:
		return rre.Skip(randomPattern(rng, labels, depth-1))
	case 3:
		return rre.Nest(randomPattern(rng, labels, depth-1))
	case 4:
		return rre.Star(randomPattern(rng, labels, depth-1))
	case 5:
		return rre.Rev(randomPattern(rng, labels, depth-1))
	default:
		return randomPattern(rng, labels, 0)
	}
}

// TestCommutingMatchesBruteForce is the executable-specification check:
// the §4.3 matrix algebra must agree with the direct recursive instance
// counter on random graphs and random RREs.
func TestCommutingMatchesBruteForce(t *testing.T) {
	labels := []string{"a", "b", "c"}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(5)
		g := randomGraph(rng, n, rng.Intn(10), labels)
		ev := New(g)
		p := randomPattern(rng, labels, 1+rng.Intn(2))
		m := ev.Commuting(p)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				want := ev.CountInstances(p, graph.NodeID(u), graph.NodeID(v))
				if got := m.At(u, v); got != want {
					t.Fatalf("trial %d: pattern %s on %s: M(%d,%d) = %d, brute force = %d",
						trial, p, g.Snapshot(), u, v, got, want)
				}
			}
		}
	}
}

func TestProposition3(t *testing.T) {
	// Check the five properties of Proposition 3 on random graphs.
	labels := []string{"a", "b"}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(4)
		g := randomGraph(rng, n, rng.Intn(8), labels)
		ev := New(g)
		p := randomPattern(rng, labels, 1)
		p1 := randomPattern(rng, labels, 1)
		p2 := randomPattern(rng, labels, 1)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				uid, vid := graph.NodeID(u), graph.NodeID(v)
				// (1) skip counts are 0/1 tracking instance existence.
				cnt := ev.CountInstances(p, uid, vid)
				sk := ev.CountInstances(rre.Skip(p), uid, vid)
				if (cnt > 0 && sk != 1) || (cnt == 0 && sk != 0) {
					t.Fatalf("prop 3(1) violated for %s: count=%d skip=%d", p, cnt, sk)
				}
				// (3) concatenation counts convolve.
				var conv int64
				for w := 0; w < n; w++ {
					conv += ev.CountInstances(p1, uid, graph.NodeID(w)) * ev.CountInstances(p2, graph.NodeID(w), vid)
				}
				if got := ev.CountInstances(rre.Concat(p1, p2), uid, vid); got != conv {
					t.Fatalf("prop 3(3) violated for %s·%s: got %d want %d", p1, p2, got, conv)
				}
			}
			// (5) |I(u,u)([p])| = |I(u,u)(p·⌈⌈p⁻⌋⌋)|.
			uid := graph.NodeID(u)
			nest := ev.CountInstances(rre.Nest(p), uid, uid)
			alt := ev.CountInstances(rre.Concat(p, rre.Skip(rre.Rev(p))), uid, uid)
			if nest != alt {
				t.Fatalf("prop 3(5) violated for %s at %d: [p]=%d p·⌈⌈p⁻⌋⌋=%d", p, u, nest, alt)
			}
		}
	}
}

// TestPaperExample5 reproduces Example 5: over Figure 1(a), PathSim with
// p1 = area·pub-in·pub-in⁻·area⁻ finds Data Mining more similar to
// Databases than to Software Engineering.
func TestPaperExample5(t *testing.T) {
	g, names := paperGraph()
	ev := New(g)
	p1 := rre.MustParse("area-.pub-in.pub-in-.area")
	m := ev.Commuting(p1)
	dm, db, se := names["DM"], names["DB"], names["SE"]
	simDB := PathSimScore(m, dm, db)
	simSE := PathSimScore(m, dm, se)
	if !(simDB > simSE) {
		t.Errorf("PathSim(DM,DB)=%.3f must exceed PathSim(DM,SE)=%.3f", simDB, simSE)
	}
	if simSE != 0 {
		t.Errorf("SE shares no conference path with DM; score %.3f, want 0", simSE)
	}
}

// TestNestedPatternExample follows Example 6/7 and §4.2: on the SIGMOD
// Record structure, field·[pub-in⁻]·[pub-in⁻]·field⁻ weights shared
// conferences by their publication counts.
func TestNestedPatternExample(t *testing.T) {
	g := graph.New()
	dm := g.AddNode("DM", "area")
	db := g.AddNode("DB", "area")
	se := g.AddNode("SE", "area")
	vldb := g.AddNode("VLDB", "proc")
	kdd := g.AddNode("KDD", "proc")
	p1 := g.AddNode("p1", "paper")
	p2 := g.AddNode("p2", "paper")
	p3 := g.AddNode("p3", "paper")
	// field: proc→area (areas of the conference), pub-in: paper→proc.
	g.AddEdge(vldb, "field", dm)
	g.AddEdge(vldb, "field", db)
	g.AddEdge(kdd, "field", dm)
	g.AddEdge(kdd, "field", se)
	g.AddEdge(p1, "pub-in", vldb)
	g.AddEdge(p2, "pub-in", vldb)
	g.AddEdge(p3, "pub-in", kdd)

	ev := New(g)
	// Without nesting, both DB and SE tie with DM (one shared conference
	// each).
	flat := ev.Commuting(rre.MustParse("field-.field"))
	if PathSimScore(flat, dm, db) != PathSimScore(flat, dm, se) {
		t.Fatalf("flat pattern should tie: %v vs %v",
			PathSimScore(flat, dm, db), PathSimScore(flat, dm, se))
	}
	// With nested publication counts, VLDB (2 papers) outweighs KDD (1):
	// DB becomes more similar to DM than SE is.
	nested := ev.Commuting(rre.MustParse("field-.[pub-in-].[pub-in-].field"))
	if !(PathSimScore(nested, dm, db) > PathSimScore(nested, dm, se)) {
		t.Errorf("nested pattern must prefer DB: DB=%.3f SE=%.3f",
			PathSimScore(nested, dm, db), PathSimScore(nested, dm, se))
	}
}

func TestCommutingCache(t *testing.T) {
	g, _ := paperGraph()
	ev := New(g)
	p := rre.MustParse("area.area-")
	m1 := ev.Commuting(p)
	m2 := ev.Commuting(rre.MustParse("area.area-"))
	if m1 != m2 {
		t.Error("cache must return the identical matrix pointer")
	}
	if ev.CacheSize() == 0 {
		t.Error("cache must not be empty after evaluation")
	}
}

func TestMaterialize(t *testing.T) {
	g, _ := paperGraph()
	ev := New(g)
	ev.Materialize(rre.MustParse("area"), rre.MustParse("pub-in"))
	if ev.CacheSize() < 2 {
		t.Errorf("CacheSize = %d, want >= 2", ev.CacheSize())
	}
}

func TestPathSimScoreZeroDenominator(t *testing.T) {
	g := graph.New()
	g.AddNode("x", "")
	g.AddNode("y", "")
	ev := New(g)
	m := ev.Commuting(rre.MustParse("a"))
	if s := PathSimScore(m, 0, 1); s != 0 {
		t.Errorf("score with zero denominator = %v, want 0", s)
	}
}

func TestMetaPathsUpTo(t *testing.T) {
	ps := MetaPathsUpTo([]string{"a"}, 2)
	// Length 1: a, a⁻. Length 2: 4 combinations. Total 6.
	if len(ps) != 6 {
		t.Fatalf("MetaPathsUpTo(1 label, 2) = %d patterns, want 6", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.String()] {
			t.Errorf("duplicate pattern %s", p)
		}
		seen[p.String()] = true
		if !p.IsSimple() {
			t.Errorf("%s is not simple", p)
		}
	}
}

func TestEpsilonCommuting(t *testing.T) {
	g, _ := paperGraph()
	ev := New(g)
	m := ev.Commuting(rre.Eps())
	for i := 0; i < g.NumNodes(); i++ {
		if m.At(i, i) != 1 {
			t.Fatalf("ε matrix diagonal (%d) = %d, want 1", i, m.At(i, i))
		}
	}
	if m.NNZ() != g.NumNodes() {
		t.Errorf("ε matrix NNZ = %d, want %d", m.NNZ(), g.NumNodes())
	}
}

func TestStarReachability(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a", "")
	b := g.AddNode("b", "")
	c := g.AddNode("c", "")
	g.AddEdge(a, "l", b)
	g.AddEdge(b, "l", c)
	ev := New(g)
	m := ev.Commuting(rre.MustParse("l*"))
	if m.At(int(a), int(c)) != 1 {
		t.Error("a must reach c via l*")
	}
	if m.At(int(c), int(a)) != 0 {
		t.Error("c must not reach a via l*")
	}
	if m.At(int(b), int(b)) != 1 {
		t.Error("l* must be reflexive")
	}
}

func TestQuickSkipIdempotent(t *testing.T) {
	labels := []string{"a", "b"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(4), rng.Intn(8), labels)
		ev := New(g)
		p := randomPattern(rng, labels, 2)
		sk := ev.Commuting(rre.Skip(p))
		return sk.Equal(sk.Boolean())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
