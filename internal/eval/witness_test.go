package eval_test

import (
	"math/rand"
	"slices"
	"testing"

	"relsim/internal/datasets"
	"relsim/internal/eval"
	"relsim/internal/graph"
	"relsim/internal/rre"
	"relsim/internal/sparse"
)

// leftFold is the reference witness evaluation: the §4.3 recursion over
// WitnessRing with no cache and every concatenation folded strictly left
// to right. The evaluator plans witness chains greedily, like integer
// ones; the two agree exactly because MulVia is associative.
func leftFold(g graph.View, p *rre.Pattern) *sparse.WitnessMatrix {
	subs := p.Subs()
	switch p.Kind() {
	case rre.KindEps:
		return sparse.GIdentity[sparse.Witness, sparse.WitnessRing](g.NumNodes())
	case rre.KindLabel:
		return sparse.Lift[sparse.Witness, sparse.WitnessRing](g.Adjacency(p.LabelName()))
	case rre.KindRev:
		return leftFold(g, subs[0]).Transpose()
	case rre.KindConcat:
		m := leftFold(g, subs[0])
		for _, s := range subs[1:] {
			m = m.Mul(leftFold(g, s))
		}
		return m
	case rre.KindAlt:
		m := leftFold(g, subs[0])
		for _, s := range subs[1:] {
			m = m.Add(leftFold(g, s))
		}
		return m
	case rre.KindStar:
		return leftFold(g, subs[0]).BooleanClosure()
	case rre.KindSkip:
		return leftFold(g, subs[0]).Boolean()
	case rre.KindNest:
		return leftFold(g, subs[0]).DiagMulBool()
	}
	panic("invalid pattern kind")
}

type witnessEntry struct {
	r, c int
	w    sparse.Witness
}

// flatten lists a witness matrix's entries in row-major order.
func flatten(m *sparse.WitnessMatrix) []witnessEntry {
	var out []witnessEntry
	m.Each(func(r, c int, w sparse.Witness) { out = append(out, witnessEntry{r, c, w}) })
	return out
}

// checkLeftFold asserts CommutingWitness(p) flattens identically to the
// left fold of the pattern the evaluator walks: p's canonical form when
// its canonicalization is exact, p itself otherwise.
func checkLeftFold(t *testing.T, g graph.View, p *rre.Pattern) {
	t.Helper()
	walked := p
	if c, exact := rre.CanonicalExact(p); exact {
		walked = c
	}
	got, want := eval.New(g).CommutingWitness(p), leftFold(g, walked)
	if got.Dim() != want.Dim() || !slices.Equal(flatten(got), flatten(want)) {
		t.Fatalf("%s: witness matrix differs from the left fold", p)
	}
}

// randomFactor is one factor of a random chain: a label step, or an
// alt, skip, nest, reversed sub-chain or star over smaller factors.
func randomFactor(rng *rand.Rand, labels []string, depth int) *rre.Pattern {
	leaf := func() *rre.Pattern {
		l := rre.Label(labels[rng.Intn(len(labels))])
		if rng.Intn(2) == 0 {
			return rre.Rev(l)
		}
		return l
	}
	if depth == 0 {
		return leaf()
	}
	sub := func() *rre.Pattern { return randomFactor(rng, labels, depth-1) }
	switch rng.Intn(9) {
	case 0:
		return rre.Alt(sub(), rre.Concat(sub(), sub()))
	case 1:
		return rre.Skip(rre.Concat(sub(), sub()))
	case 2:
		return rre.Nest(rre.Concat(sub(), sub()))
	case 3:
		return rre.Rev(rre.Concat(sub(), sub(), sub()))
	case 4:
		return rre.Star(sub())
	}
	return leaf()
}

// TestWitnessMatchesLeftFold: over 320 seeded random chains of 3–6
// factors — nested alternatives, skips, nests, reversals and stars,
// with derivations longer than sparse.MaxWitnessSteps — the evaluator's
// planned witness matrices equal the left fold entry for entry.
func TestWitnessMatchesLeftFold(t *testing.T) {
	labels := []string{"a", "b", "c"}
	rng := rand.New(rand.NewSource(2029))
	long := 0
	for trial := 0; trial < 320; trial++ {
		n := 6 + rng.Intn(14)
		g := graph.New()
		for i := 0; i < n; i++ {
			g.AddNode("", "")
		}
		for i := 0; i < 3*n; i++ {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if l := labels[rng.Intn(len(labels))]; !g.HasEdge(u, l, v) {
				g.AddEdge(u, l, v)
			}
		}
		factors := make([]*rre.Pattern, 3+rng.Intn(4))
		for i := range factors {
			factors[i] = randomFactor(rng, labels, 1+rng.Intn(2))
		}
		p := rre.Concat(factors...)
		checkLeftFold(t, g, p)
		for _, e := range flatten(leftFold(g, p)) {
			if e.w.Truncated() {
				long++
				break
			}
		}
	}
	if long < 100 {
		t.Fatalf("only %d of 320 chains had a derivation past %d steps", long, sparse.MaxWitnessSteps)
	}
}

// TestWitnessMatchesLeftFoldDBLP checks the same on dblp-small meta-paths.
func TestWitnessMatchesLeftFoldDBLP(t *testing.T) {
	ds, err := datasets.ByName("dblp-small")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{
		"p-in-.r-a.r-a-.p-in",
		"p-in-.w-.w.p-in",
		"p-in-.r-a.[p].r-a-.p-in",
		"p-in-.r-a.[r-a-.r-a].r-a-.p-in",
	} {
		checkLeftFold(t, ds.Graph, rre.MustParse(s))
	}
}
