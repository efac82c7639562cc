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
func leftFold(g *graph.Snapshot, p *rre.Pattern) *sparse.WitnessMatrix {
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
// its canonicalization is exact, p itself otherwise. Every row of p's
// witness push must equal that matrix's row too.
func checkLeftFold(t *testing.T, g *graph.Graph, p *rre.Pattern) {
	t.Helper()
	walked := p
	if c, exact := rre.CanonicalExact(p); exact {
		walked = c
	}
	got, want := eval.New(g).CommutingWitness(p), leftFold(g.Snapshot(), walked)
	if got.Dim() != want.Dim() || !slices.Equal(flatten(got), flatten(want)) {
		t.Fatalf("%s: witness matrix differs from the left fold", p)
	}
	checkWitnessRows(t, eval.New(g), p, got)
}

// checkWitnessRows asserts that every row ev.WitnessRow pushes through
// p equals the row of want, p's witness matrix.
func checkWitnessRows(t testing.TB, ev *eval.Evaluator, p *rre.Pattern, want *sparse.WitnessMatrix) {
	t.Helper()
	for u := 0; u < want.Dim(); u++ {
		row := ev.WitnessRow(p, graph.NodeID(u))
		cols, ws := want.RowView(u)
		for v, w := range row {
			if _, ok := want.Lookup(u, int(v)); !ok && w.Count != 0 {
				t.Fatalf("%s: pushed row %d holds a witness at %d, the matrix none", p, u, v)
			}
		}
		for i, v := range cols {
			if w, ok := row.At(graph.NodeID(v)); !ok || w != ws[i] {
				t.Fatalf("%s: pushed witness at (%d,%d) = %+v, the matrix has %+v", p, u, v, w, ws[i])
			}
		}
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
		for _, e := range flatten(leftFold(g.Snapshot(), p)) {
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

// checkIntRows asserts that the integer push of every e_u equals row u
// of want, p's commuting matrix: Pair's count at every (u,v), and its
// score that of want.
func checkIntRows(t testing.TB, ev *eval.Evaluator, p *rre.Pattern, want *sparse.Matrix) {
	t.Helper()
	for u := 0; u < want.Dim(); u++ {
		for v := 0; v < want.Dim(); v++ {
			x, y := graph.NodeID(u), graph.NodeID(v)
			count, score := ev.Pair(p, x, y)
			if count != want.At(u, v) || score != eval.PathSimScore(want, x, y) {
				t.Fatalf("%s: pushed (%d,%d) = %d, %v; the matrix has %d, %v",
					p, u, v, count, score, want.At(u, v), eval.PathSimScore(want, x, y))
			}
		}
	}
}

// FuzzWitnessRow holds the row push to the matrices: on a random graph
// with parallel edges and a random chain of randomFactor factors, at
// times the top-level alternation of two such chains, every row
// WitnessRow pushes equals CommutingWitness's row, and every integer
// push Commuting's row, entry for entry.
func FuzzWitnessRow(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 2029, -3} {
		f.Add(seed)
	}
	labels := []string{"a", "b", "c"}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(18)
		g := graph.New()
		for i := 0; i < n; i++ {
			g.AddNode("", "")
		}
		for i := 0; i < 3*n; i++ {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			g.AddEdge(u, labels[rng.Intn(len(labels))], v)
		}
		chain := func() *rre.Pattern {
			factors := make([]*rre.Pattern, 1+rng.Intn(6))
			for i := range factors {
				factors[i] = randomFactor(rng, labels, rng.Intn(3))
			}
			return rre.Concat(factors...)
		}
		p := chain()
		if rng.Intn(3) == 0 {
			p = rre.Alt(p, chain())
		}
		ev := eval.New(g)
		checkWitnessRows(t, ev, p, ev.CommutingWitness(p))
		checkIntRows(t, ev, p, ev.Commuting(p))
	})
}
