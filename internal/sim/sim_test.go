package sim

import (
	"math"
	"testing"

	"relsim/internal/eval"
	"relsim/internal/graph"
	"relsim/internal/rre"
)

// figure1a builds the Figure 1(a) fragment (papers directly connected to
// areas and conferences).
func figure1a() (*graph.Graph, map[string]graph.NodeID) {
	g := graph.New()
	n := map[string]graph.NodeID{}
	add := func(name, typ string) { n[name] = g.AddNode(name, typ) }
	add("SE", "area")
	add("DM", "area")
	add("DB", "area")
	add("CM", "paper")
	add("PM", "paper")
	add("SM", "paper")
	add("KDD", "proc")
	add("VLDB", "proc")
	edges := []struct{ f, l, t string }{
		{"CM", "area", "SE"}, {"CM", "area", "DM"},
		{"PM", "area", "DM"}, {"PM", "area", "DB"},
		{"SM", "area", "DM"}, {"SM", "area", "DB"},
		{"PM", "pub-in", "KDD"}, {"PM", "pub-in", "VLDB"},
		{"SM", "pub-in", "VLDB"},
	}
	for _, e := range edges {
		g.AddEdge(n[e.f], e.l, n[e.t])
	}
	return g, n
}

func TestPathSimRequiresSimple(t *testing.T) {
	g, _ := figure1a()
	ev := eval.New(g)
	if _, err := PathSim(ev, rre.MustParse("[area]"), 0, nil); err == nil {
		t.Error("PathSim must reject non-simple patterns")
	}
}

func TestPathSimRanking(t *testing.T) {
	g, n := figure1a()
	ev := eval.New(g)
	areas := g.NodesOfType("area")
	// Similar areas by shared papers.
	r, err := PathSim(ev, rre.MustParse("area-.area"), n["DM"], areas)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() == 0 {
		t.Fatal("empty ranking")
	}
	if r.IDs[0] != n["DB"] {
		t.Errorf("top answer = %v, want DB", g.Node(r.IDs[0]).Name)
	}
	// Scores sorted descending.
	for i := 1; i < r.Len(); i++ {
		if r.Scores[i] > r.Scores[i-1] {
			t.Fatal("scores not sorted")
		}
	}
	// The query itself is excluded.
	if r.Rank(n["DM"]) != 0 {
		t.Error("query must not rank")
	}
}

func TestRankingDeterministicTieBreak(t *testing.T) {
	g := graph.New()
	q := g.AddNode("q", "x")
	a := g.AddNode("a", "x")
	b := g.AddNode("b", "x")
	p := g.AddNode("p", "y")
	g.AddEdge(q, "l", p)
	g.AddEdge(a, "l", p)
	g.AddEdge(b, "l", p)
	ev := eval.New(g)
	r, err := PathSim(ev, rre.MustParse("l.l-"), q, []graph.NodeID{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 || r.IDs[0] != a || r.IDs[1] != b {
		t.Errorf("tie break by id failed: %v", r.IDs)
	}
}

func TestRelSimEqualsPathSimOnSimple(t *testing.T) {
	g, n := figure1a()
	ev := eval.New(g)
	p := rre.MustParse("area-.area")
	areas := g.NodesOfType("area")
	a, _ := PathSim(ev, p, n["DM"], areas)
	b := RelSim(ev, p, n["DM"], areas)
	if len(a.IDs) != len(b.IDs) {
		t.Fatal("lengths differ")
	}
	for i := range a.IDs {
		if a.IDs[i] != b.IDs[i] || a.Scores[i] != b.Scores[i] {
			t.Fatal("RelSim must coincide with PathSim on simple patterns")
		}
	}
}

func TestRelSimAggregate(t *testing.T) {
	g, n := figure1a()
	ev := eval.New(g)
	ps := []*rre.Pattern{
		rre.MustParse("area-.area"),
		rre.MustParse("area-.pub-in.pub-in-.area"),
	}
	r := RelSimAggregate(ev, ps, n["DM"], g.NodesOfType("area"))
	if r.Len() == 0 {
		t.Fatal("empty aggregate ranking")
	}
	// Aggregate score must equal the sum of individual scores.
	single0 := RelSim(ev, ps[0], n["DM"], g.NodesOfType("area"))
	single1 := RelSim(ev, ps[1], n["DM"], g.NodesOfType("area"))
	sum := map[graph.NodeID]float64{}
	for i, id := range single0.IDs {
		sum[id] += single0.Scores[i]
	}
	for i, id := range single1.IDs {
		sum[id] += single1.Scores[i]
	}
	for i, id := range r.IDs {
		if math.Abs(r.Scores[i]-sum[id]) > 1e-12 {
			t.Errorf("aggregate score of %d = %v, want %v", id, r.Scores[i], sum[id])
		}
	}
}

func TestPathSimScorePairEquation1(t *testing.T) {
	g, n := figure1a()
	ev := eval.New(g)
	p := rre.MustParse("area-.area")
	// DM self-count 3 (CM, PM, SM), DB self-count 2 (PM, SM), shared 2.
	count, got := ev.Pair(p, n["DM"], n["DB"])
	want := 2.0 * 2 / (3 + 2)
	if count != 2 || math.Abs(got-want) > 1e-12 {
		t.Errorf("Equation 1 = %v from count %d, want %v from 2", got, count, want)
	}
}

func TestHeteSimRanksPlantedPath(t *testing.T) {
	// disease → phenotype → protein ← drug. The drug sharing more
	// proteins with the disease's phenotype ranks first.
	g := graph.New()
	d := g.AddNode("d", "disease")
	ph := g.AddNode("ph", "phenotype")
	pr1 := g.AddNode("pr1", "protein")
	pr2 := g.AddNode("pr2", "protein")
	pr3 := g.AddNode("pr3", "protein")
	good := g.AddNode("good", "drug")
	bad := g.AddNode("bad", "drug")
	g.AddEdge(d, "dz-ph", ph)
	g.AddEdge(ph, "ph-pr", pr1)
	g.AddEdge(ph, "ph-pr", pr2)
	g.AddEdge(good, "tgt", pr1)
	g.AddEdge(good, "tgt", pr2)
	g.AddEdge(bad, "tgt", pr2)
	g.AddEdge(bad, "tgt", pr3)

	ev := eval.New(g)
	r, err := HeteSim(ev, rre.MustParse("dz-ph.ph-pr.tgt-"), d, g.NodesOfType("drug"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 || r.IDs[0] != good {
		t.Errorf("HeteSim ranking = %v, want good first", r.IDs)
	}
	if r.Scores[0] <= r.Scores[1] {
		t.Error("good must strictly outscore bad")
	}
	// Scores are cosines: within (0, 1].
	for _, s := range r.Scores {
		if s <= 0 || s > 1+1e-9 {
			t.Errorf("HeteSim score %v out of (0,1]", s)
		}
	}
}

func TestHeteSimRejectsNonSimple(t *testing.T) {
	g, _ := figure1a()
	ev := eval.New(g)
	if _, err := HeteSim(ev, rre.MustParse("[area]"), 0, nil); err == nil {
		t.Error("HeteSim must reject non-simple patterns")
	}
}

func TestHeteSimRREHandlesSkip(t *testing.T) {
	g := graph.New()
	d := g.AddNode("d", "disease")
	ph := g.AddNode("ph", "phenotype")
	pr := g.AddNode("pr", "protein")
	drug := g.AddNode("x", "drug")
	g.AddEdge(d, "dz-ph", ph)
	g.AddEdge(ph, "ph-pr", pr)
	g.AddEdge(drug, "tgt", pr)
	ev := eval.New(g)
	r := HeteSimRRE(ev, rre.MustParse("<dz-ph>.ph-pr.tgt-"), d, g.NodesOfType("drug"))
	if r.Len() != 1 || r.IDs[0] != drug {
		t.Errorf("HeteSimRRE = %v", r.IDs)
	}
}

func TestRWRBasics(t *testing.T) {
	g, n := figure1a()
	ev := eval.New(g)
	r := RWR(ev, DefaultRWR(), n["DM"], g.NodesOfType("area"))
	if r.Len() == 0 {
		t.Fatal("RWR returned nothing")
	}
	// All scores positive and sorted.
	for i, s := range r.Scores {
		if s <= 0 {
			t.Fatal("non-positive RWR score")
		}
		if i > 0 && s > r.Scores[i-1] {
			t.Fatal("RWR scores not sorted")
		}
	}
	// DM shares papers with DB (2) more than SE (1): DB should lead.
	if r.IDs[0] != n["DB"] {
		t.Errorf("RWR top = %s, want DB", g.Node(r.IDs[0]).Name)
	}
}

func TestRWRDeterministic(t *testing.T) {
	g, n := figure1a()
	ev := eval.New(g)
	a := RWR(ev, DefaultRWR(), n["DM"], nil)
	b := RWR(ev, DefaultRWR(), n["DM"], nil)
	for i := range a.IDs {
		if a.IDs[i] != b.IDs[i] {
			t.Fatal("RWR must be deterministic")
		}
	}
}

func TestRWRPattern(t *testing.T) {
	g, n := figure1a()
	ev := eval.New(g)
	r := RWRPattern(ev, rre.MustParse("area-.area"), DefaultRWR(), n["DM"], g.NodesOfType("area"))
	if r.Len() == 0 || r.IDs[0] != n["DB"] {
		t.Errorf("pattern-constrained RWR top = %v", r.IDs)
	}
}

func TestSimRankExactBasics(t *testing.T) {
	g, n := figure1a()
	ev := eval.New(g)
	r, err := SimRankExact(ev, DefaultSimRank(), n["DM"], g.NodesOfType("area"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() == 0 {
		t.Fatal("SimRank returned nothing")
	}
	if r.IDs[0] != n["DB"] {
		t.Errorf("SimRank top = %s, want DB", g.Node(r.IDs[0]).Name)
	}
	// Scores bounded by C (non-identical nodes) and positive.
	for _, s := range r.Scores {
		if s <= 0 || s > DefaultSimRank().C+1e-9 {
			t.Errorf("SimRank score %v out of (0, C]", s)
		}
	}
}

func TestSimRankExactCap(t *testing.T) {
	g, _ := figure1a()
	ev := eval.New(g)
	if _, err := SimRankExact(ev, DefaultSimRank(), 0, nil, 2); err == nil {
		t.Error("cap must reject large graphs")
	}
}

func TestSimRankMCDeterministicAndSane(t *testing.T) {
	g, n := figure1a()
	ev := eval.New(g)
	opt := DefaultSimRank()
	a := SimRankMC(ev, opt, n["DM"], g.NodesOfType("area"))
	b := SimRankMC(ev, opt, n["DM"], g.NodesOfType("area"))
	if len(a.IDs) != len(b.IDs) {
		t.Fatal("MC SimRank nondeterministic")
	}
	for i := range a.IDs {
		if a.IDs[i] != b.IDs[i] {
			t.Fatal("MC SimRank nondeterministic order")
		}
	}
}

func TestSimRankSamplerReuse(t *testing.T) {
	g, n := figure1a()
	ev := eval.New(g)
	s := NewSimRankSampler(ev, DefaultSimRank())
	r1 := s.Query(n["DM"], g.NodesOfType("area"))
	r2 := s.Query(n["DM"], g.NodesOfType("area"))
	for i := range r1.IDs {
		if r1.IDs[i] != r2.IDs[i] {
			t.Fatal("sampler queries must be reproducible")
		}
	}
}

func TestSimRankPattern(t *testing.T) {
	g, n := figure1a()
	ev := eval.New(g)
	r, err := SimRankPattern(ev, rre.MustParse("area-.area"), DefaultSimRank(), n["DM"], g.NodesOfType("area"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() == 0 {
		t.Fatal("pattern SimRank empty")
	}
}

func TestTopK(t *testing.T) {
	r := Ranking{IDs: []graph.NodeID{1, 2, 3}, Scores: []float64{3, 2, 1}}
	top := r.TopK(2)
	if top.Len() != 2 || top.IDs[1] != 2 {
		t.Errorf("TopK = %v", top.IDs)
	}
	if r.TopK(10).Len() != 3 {
		t.Error("TopK beyond length must return all")
	}
}

func TestRank(t *testing.T) {
	r := Ranking{IDs: []graph.NodeID{5, 9}, Scores: []float64{2, 1}}
	if r.Rank(9) != 2 || r.Rank(5) != 1 || r.Rank(77) != 0 {
		t.Error("Rank positions wrong")
	}
}
