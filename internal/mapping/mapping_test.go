package mapping

import (
	"testing"

	"relsim/internal/eval"
	"relsim/internal/graph"
	"relsim/internal/rre"
	"relsim/internal/schema"
)

// tinyDBLP builds a miniature Figure 2(a) instance satisfying the DBLP
// constraint: two proceedings with fixed area sets, papers wired to
// exactly their proceedings' areas.
func tinyDBLP() *graph.Graph {
	g := graph.New()
	a1 := g.AddNode("a1", "area")
	a2 := g.AddNode("a2", "area")
	c1 := g.AddNode("c1", "proc")
	c2 := g.AddNode("c2", "proc")
	au := g.AddNode("au", "author")
	papers := []struct {
		proc  graph.NodeID
		areas []graph.NodeID
	}{
		{c1, []graph.NodeID{a1, a2}},
		{c1, []graph.NodeID{a1, a2}},
		{c2, []graph.NodeID{a2}},
	}
	for i, spec := range papers {
		p := g.AddNode("", "paper")
		_ = i
		g.AddEdge(p, "p-in", spec.proc)
		for _, a := range spec.areas {
			g.AddEdge(p, "r-a", a)
		}
		g.AddEdge(au, "w", p)
	}
	return g
}

func dblp2sigm() Transformation {
	return Transformation{
		Name: "DBLP2SIGM",
		Rules: append(Identities("w", "p-in"),
			Rule{
				Name: "area-to-proc",
				Premise: []schema.Atom{
					schema.At("p", "p-in", "c"),
					schema.At("p", "r-a", "a"),
				},
				Conclusion: []ConclusionAtom{{From: "c", Label: "r-a", To: "a"}},
			}),
	}
}

func dblp2sigmInv() Transformation {
	return Transformation{
		Name: "DBLP2SIGM⁻¹",
		Rules: append(Identities("w", "p-in"),
			Rule{
				Name: "area-to-paper",
				Premise: []schema.Atom{
					schema.At("p", "p-in", "c"),
					schema.At("c", "r-a", "a"),
				},
				Conclusion: []ConclusionAtom{{From: "p", Label: "r-a", To: "a"}},
			}),
	}
}

func TestApplyClosedWorld(t *testing.T) {
	g := tinyDBLP()
	out := dblp2sigm().Apply(g)
	// Node ids preserved.
	if out.NumNodes() != g.NumNodes() {
		t.Fatalf("nodes %d, want %d (no existentials here)", out.NumNodes(), g.NumNodes())
	}
	// proc c1 has areas a1, a2; c2 has a2 — with set semantics (one edge
	// each despite two c1 papers).
	c1, _ := g.NodeByName("c1")
	c2, _ := g.NodeByName("c2")
	a1, _ := g.NodeByName("a1")
	a2, _ := g.NodeByName("a2")
	if got := out.EdgeCount(c1.ID, "r-a", a1.ID); got != 1 {
		t.Errorf("c1-r-a-a1 count = %d, want 1 (set semantics)", got)
	}
	if !out.Snapshot().HasEdge(c1.ID, "r-a", a2.ID) || !out.Snapshot().HasEdge(c2.ID, "r-a", a2.ID) {
		t.Error("missing proc area edges")
	}
	if out.Snapshot().HasEdge(c2.ID, "r-a", a1.ID) {
		t.Error("phantom proc area edge")
	}
	// Papers lost their direct area edges (closed world: only rule
	// conclusions exist).
	for _, p := range g.NodesOfType("paper") {
		if len(out.Snapshot().Out(p, "r-a")) != 0 {
			t.Error("paper area edge leaked into target")
		}
		if len(out.Snapshot().Out(p, "p-in")) == 0 {
			t.Error("identity rule lost p-in edge")
		}
	}
}

func TestVerifyInverse(t *testing.T) {
	g := tinyDBLP()
	if !VerifyInverse(g, dblp2sigm(), dblp2sigmInv()) {
		t.Fatal("DBLP2SIGM must be invertible on a constraint-satisfying instance")
	}
}

func TestVerifyInverseFailsWithoutConstraint(t *testing.T) {
	// A paper whose area set differs from its proceedings-mates breaks
	// the constraint, and with it invertibility.
	g := tinyDBLP()
	c1, _ := g.NodeByName("c1")
	p := g.AddNode("odd", "paper")
	g.AddEdge(p, "p-in", c1.ID)
	// No r-a edges for this paper: after the round trip it would gain
	// c1's areas.
	if VerifyInverse(g, dblp2sigm(), dblp2sigmInv()) {
		t.Fatal("invertibility must fail when the instance violates the tgd")
	}
}

func TestApplyExistentials(t *testing.T) {
	g := tinyDBLP()
	tx := dblp2sigm()
	tx.Rules = append(tx.Rules, Rule{
		Name: "author-proc",
		Premise: []schema.Atom{
			schema.At("a", "w", "p"),
			schema.At("p", "p-in", "c"),
		},
		Conclusion: []ConclusionAtom{
			{From: "n", Label: "ap-a", To: "a"},
			{From: "n", Label: "ap-c", To: "c"},
		},
	})
	out := tx.Apply(g)
	// One author publishing in two proceedings → two fresh nodes.
	fresh := out.NumNodes() - g.NumNodes()
	if fresh != 2 {
		t.Fatalf("fresh nodes = %d, want 2 (one per author×proc)", fresh)
	}
	// Each fresh node has exactly one ap-a and one ap-c edge.
	for i := g.NumNodes(); i < out.NumNodes(); i++ {
		if s := out.Snapshot(); len(s.Out(graph.NodeID(i), "ap-a")) != 1 || len(s.Out(graph.NodeID(i), "ap-c")) != 1 {
			t.Errorf("fresh node %d miswired", i)
		}
	}
}

func TestApplyDeterministic(t *testing.T) {
	g := tinyDBLP()
	tx := dblp2sigm()
	a := tx.Apply(g)
	for i := 0; i < 3; i++ {
		if !a.Equal(tx.Apply(g)) {
			t.Fatal("Apply must be deterministic")
		}
	}
}

func TestCompose(t *testing.T) {
	sigma, skipped := Compose(dblp2sigm(), dblp2sigmInv())
	if skipped != 0 {
		t.Errorf("skipped = %d, want 0", skipped)
	}
	// The composition must contain a constraint equivalent to Example 4:
	// (p, p-in, c) ∧ (p', p-in, c) ∧ (p', r-a, a) → (p, r-a, a).
	found := false
	for _, c := range sigma {
		l, _ := c.ConclusionLabel()
		if l == "r-a" && len(c.Premise) == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("Example-4-style composed constraint not found in %v", sigma)
	}
	// And the tiny instance must satisfy the composition (Proposition 1).
	if !SatisfiesComposition(tinyDBLP(), dblp2sigm(), dblp2sigmInv()) {
		t.Error("I ⊨ Σ⁻¹∘Σ must hold")
	}
}

func TestComposeSkipsExistentialProducers(t *testing.T) {
	// A transformation whose only producer of label "x" has an
	// existential endpoint cannot be composed through (second-order case).
	first := Transformation{Name: "F", Rules: []Rule{{
		Name:       "mk",
		Premise:    []schema.Atom{schema.At("u", "a", "v")},
		Conclusion: []ConclusionAtom{{From: "u", Label: "x", To: "e"}}, // e existential
	}}}
	second := Transformation{Name: "S", Rules: []Rule{{
		Name:       "use",
		Premise:    []schema.Atom{schema.At("u", "x", "v")},
		Conclusion: []ConclusionAtom{{From: "u", Label: "a", To: "v"}},
	}}}
	sigma, skipped := Compose(first, second)
	if len(sigma) != 0 || skipped == 0 {
		t.Errorf("sigma=%v skipped=%d; want empty and skipped>0", sigma, skipped)
	}
}

func TestSatisfiesSigmaStar(t *testing.T) {
	g := tinyDBLP()
	sigma, _ := Compose(dblp2sigm(), dblp2sigmInv())
	if !SatisfiesSigmaStar(g, sigma) {
		t.Error("σ* must hold on the constraint-satisfying instance")
	}
	// An instance with an edge of a label σ never concludes violates σ*.
	g2 := tinyDBLP()
	n := g2.AddNode("", "x")
	g2.AddEdge(n, "mystery", n)
	if SatisfiesSigmaStar(g2, sigma) {
		t.Error("σ* must reject labels never concluded")
	}
}

func TestInvertible(t *testing.T) {
	if !Invertible(tinyDBLP(), dblp2sigm(), dblp2sigmInv()) {
		t.Error("DBLP2SIGM with its inverse must be invertible on the tiny instance")
	}
}

// TestRewritePatternTheorem2 checks the heart of the paper: for every
// pattern p over S, the rewritten pattern p' over T has identical
// instance counts on the transformed database (Theorem 2).
func TestRewritePatternTheorem2(t *testing.T) {
	g := tinyDBLP()
	tx, inv := dblp2sigm(), dblp2sigmInv()
	h := tx.Apply(g)
	evS, evT := eval.New(g), eval.New(h)

	patterns := []string{
		"r-a",
		"p-in",
		"r-a.r-a-",
		"p-in-.r-a",
		"p-in-.r-a.r-a-.p-in",
		"w.p-in",
		"[r-a]",
		"<p-in-.r-a>",
		"r-a + p-in",
	}
	for _, in := range patterns {
		p := rre.MustParse(in)
		q, err := RewritePattern(p, inv)
		if err != nil {
			t.Errorf("rewrite %s: %v", in, err)
			continue
		}
		mS := evS.Commuting(p)
		mT := evT.Commuting(q)
		for u := 0; u < g.NumNodes(); u++ {
			for v := 0; v < g.NumNodes(); v++ {
				if mS.At(u, v) != mT.At(u, v) {
					t.Errorf("pattern %s (rewritten %s): count(%d,%d) %d != %d",
						in, q, u, v, mS.At(u, v), mT.At(u, v))
				}
			}
		}
	}
}

func TestRewritePatternUnknownLabel(t *testing.T) {
	if _, err := RewritePattern(rre.MustParse("nope"), dblp2sigmInv()); err == nil {
		t.Error("unknown label must fail to rewrite")
	}
}

func TestRewriteIdentityLabels(t *testing.T) {
	// Identity-copied labels rewrite to themselves.
	q, err := RewritePattern(rre.MustParse("w.p-in"), dblp2sigmInv())
	if err != nil {
		t.Fatal(err)
	}
	if q.String() != "w.p-in" {
		t.Errorf("identity labels changed: %s", q)
	}
}

func TestTargetLabels(t *testing.T) {
	ls := dblp2sigm().TargetLabels()
	want := []string{"p-in", "r-a", "w"}
	if len(ls) != len(want) {
		t.Fatalf("TargetLabels = %v", ls)
	}
	for i := range want {
		if ls[i] != want[i] {
			t.Fatalf("TargetLabels = %v, want %v", ls, want)
		}
	}
}

func TestRuleString(t *testing.T) {
	r := Identity("l")
	if r.String() == "" {
		t.Error("empty rule string")
	}
	if r.HasExistentials() {
		t.Error("identity rule has no existentials")
	}
}
