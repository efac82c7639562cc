package sim

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"relsim/internal/datasets"
	"relsim/internal/eval"
	"relsim/internal/graph"
	"relsim/internal/pattern"
	"relsim/internal/rre"
	"relsim/internal/sparse"
)

// referenceAggregate is RelSimAggregate as it was before scoring moved
// to the two halves, kept verbatim as the oracle of the differential
// tests below: it materializes every root M_p and reads it with three
// At binary searches per (pattern, candidate) into a score map. Its
// candidates are first reduced to the set ScoreCuts reads them as:
// repeats dropped, ids outside [0, n) ignored.
func referenceAggregate(ev *eval.Evaluator, patterns []*rre.Pattern, query graph.NodeID, candidates []graph.NodeID) Ranking {
	if candidates != nil {
		set, seen := []graph.NodeID{}, map[graph.NodeID]bool{}
		for _, v := range candidates {
			if v >= 0 && int(v) < ev.Graph().NumNodes() && !seen[v] {
				seen[v] = true
				set = append(set, v)
			}
		}
		candidates = set
	}
	scores := map[graph.NodeID]float64{}
	for _, p := range patterns {
		m := ev.Commuting(p)
		add := func(v graph.NodeID) {
			if v == query {
				return
			}
			if s := eval.PathSimScore(m, query, v); s > 0 {
				scores[v] += s
			}
		}
		if candidates != nil {
			for _, v := range candidates {
				add(v)
			}
		} else {
			for v := 0; v < ev.Graph().NumNodes(); v++ {
				add(graph.NodeID(v))
			}
		}
	}
	return rankScores(scores, query, candidates)
}

// sameRanking requires equal ids in equal order with bit-equal scores.
func sameRanking(t *testing.T, what string, got, want Ranking) {
	t.Helper()
	if len(got.IDs) != len(want.IDs) {
		t.Fatalf("%s: %d answers, want %d\n got %v\nwant %v", what, len(got.IDs), len(want.IDs), got, want)
	}
	for i := range want.IDs {
		if got.IDs[i] != want.IDs[i] || math.Float64bits(got.Scores[i]) != math.Float64bits(want.Scores[i]) {
			t.Fatalf("%s: answer %d is (%d, %v), want (%d, %v)", what, i, got.IDs[i], got.Scores[i], want.IDs[i], want.Scores[i])
		}
	}
}

var diffLabels = []string{"a", "b", "c"}

// typedGraph is a small random multigraph whose nodes carry one of three
// type tags; parallel edges make counts exceed one.
func typedGraph(rng *rand.Rand) *graph.Graph {
	g := graph.New()
	n := 4 + rng.Intn(9)
	for i := 0; i < n; i++ {
		g.AddNode("", fmt.Sprintf("t%d", rng.Intn(3)))
	}
	for i, m := 0, rng.Intn(4*n); i < m; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(n)), diffLabels[rng.Intn(3)], graph.NodeID(rng.Intn(n)))
	}
	return g
}

func randomRRE(rng *rand.Rand, depth int) *rre.Pattern {
	if depth <= 0 || rng.Intn(5) == 0 {
		if rng.Intn(8) == 0 {
			return rre.Eps()
		}
		l := rre.Label(diffLabels[rng.Intn(3)])
		if rng.Intn(2) == 0 {
			return rre.Rev(l)
		}
		return l
	}
	sub := func() *rre.Pattern { return randomRRE(rng, depth-1) }
	switch rng.Intn(8) {
	case 0:
		return rre.Alt(sub(), sub())
	case 1:
		return rre.Star(sub())
	case 2:
		return rre.Skip(sub())
	case 3:
		return rre.Nest(sub())
	case 4:
		return rre.Rev(sub())
	}
	fs := make([]*rre.Pattern, 2+rng.Intn(4))
	for i := range fs {
		fs[i] = sub()
	}
	return rre.Concat(fs...)
}

// differentialCase draws a typed graph, one to four random RREs over it,
// a query node, and the candidate sets scored for them: nil, one type's
// nodes, empty, and that type with the query inside and outside it.
func differentialCase(rng *rand.Rand) (*graph.Graph, []*rre.Pattern, graph.NodeID, map[string][]graph.NodeID) {
	g := typedGraph(rng)
	ps := make([]*rre.Pattern, 1+rng.Intn(4))
	for i := range ps {
		ps[i] = randomRRE(rng, 3)
	}
	query := graph.NodeID(rng.Intn(g.NumNodes()))
	typed := g.NodesOfType(fmt.Sprintf("t%d", rng.Intn(3)))
	if typed == nil {
		typed = []graph.NodeID{}
	}
	var outside []graph.NodeID
	for _, v := range typed {
		if v != query {
			outside = append(outside, v)
		}
	}
	inside := append([]graph.NodeID{query}, outside...)
	return g, ps, query, map[string][]graph.NodeID{
		"nil": nil, "typed": typed, "empty": {}, "inside": inside, "outside": outside,
	}
}

// checkAgainstReference requires RelSimAggregate to rank every candidate
// set exactly as the reference does, through an evaluator over the
// mutable graph and one over a snapshot.
func checkAgainstReference(t *testing.T, what string, g *graph.Graph, ps []*rre.Pattern, query graph.NodeID, sets map[string][]graph.NodeID) {
	t.Helper()
	raw := eval.New(g)
	canonical := eval.NewVersioned(g.Snapshot(), 0, eval.NewCache())
	ref := eval.New(g)
	for name, cands := range sets {
		want := referenceAggregate(ref, ps, query, cands)
		what := fmt.Sprintf("%s, %s candidates, %v", what, name, ps)
		sameRanking(t, what+" (raw keys)", RelSimAggregate(raw, ps, query, cands), want)
		sameRanking(t, what+" (canonical keys)", RelSimAggregate(canonical, ps, query, cands), want)
	}
}

// TestScoreFromHalvesMatchesReference: over seeded random RREs on small
// typed graphs, scoring from the halves returns the reference's ids,
// order and score bits — for roots of every kind, for nil, typed and
// empty candidates with the query inside and outside them, and under
// both evaluator bindings (over a mutable graph and over a snapshot).
func TestScoreFromHalvesMatchesReference(t *testing.T) {
	rootKinds := map[rre.Kind]int{}
	for seed := int64(0); seed < 600; seed++ {
		g, ps, query, sets := differentialCase(rand.New(rand.NewSource(seed)))
		for _, p := range ps {
			rootKinds[p.Kind()]++
		}
		checkAgainstReference(t, fmt.Sprintf("seed %d", seed), g, ps, query, sets)
		raw, ref := eval.New(g), eval.New(g)
		for _, v := range sets["inside"] {
			root := ref.Commuting(ps[0])
			count, got := raw.Pair(ps[0], query, v)
			if want := eval.PathSimScore(root, query, v); got != want || count != root.At(int(query), int(v)) {
				t.Fatalf("seed %d: Pair(%s, %d, %d) = %d, %v; want %d, %v", seed, ps[0], query, v, count, got, root.At(int(query), int(v)), want)
			}
		}
	}
	for _, k := range []rre.Kind{rre.KindEps, rre.KindLabel, rre.KindRev, rre.KindStar, rre.KindConcat, rre.KindAlt, rre.KindNest, rre.KindSkip} {
		if rootKinds[k] == 0 {
			t.Errorf("no root of kind %s was generated", k)
		}
	}
}

// TestInnerProductsWrapLikeTheKernel: scoring from the halves relies on
// ring arithmetic mod 2⁶⁴ — int64 products and sums wrap the same way
// in whatever order they are taken — so where the counts overflow, row
// u of A pushed through B and the inner product ⟨A[u,·], Bᵀ[v,·]⟩ are
// still the entries of A·B bit for bit, and the ranking still the
// reference's. On three nodes joined
// pairwise (and to themselves) by 2000 parallel edges every entry of
// M_{aᵏ} is 3ᵏ⁻¹·2000ᵏ: past int64 in the root for k = 8, and already
// in the halves for k = 12.
func TestInnerProductsWrapLikeTheKernel(t *testing.T) {
	g := graph.New()
	for i := 0; i < 3; i++ {
		g.AddNode("", "")
	}
	for u := graph.NodeID(0); u < 3; u++ {
		for v := graph.NodeID(0); v < 3; v++ {
			for k := 0; k < 2000; k++ {
				g.AddEdge(u, "a", v)
			}
		}
	}
	all := []graph.NodeID{0, 1, 2}
	for _, k := range []int{8, 12} {
		fs := make([]*rre.Pattern, k)
		for i := range fs {
			fs[i] = rre.Label("a")
		}
		p := rre.Concat(fs...)
		exact := new(big.Int).Mul(
			new(big.Int).Exp(big.NewInt(3), big.NewInt(int64(k-1)), nil),
			new(big.Int).Exp(big.NewInt(2000), big.NewInt(int64(k)), nil))
		if exact.IsInt64() {
			t.Fatalf("k=%d: the count %v fits int64, nothing wraps", k, exact)
		}
		wrapped := int64(new(big.Int).And(exact, new(big.Int).SetUint64(math.MaxUint64)).Uint64())

		ev := eval.New(g)
		a, bt := ev.Halves(eval.NewCut(p)[0])
		root := a.Mul(bt.Transpose())
		for _, u := range all {
			s := getScorer(3)
			ucols, uvals := a.RowView(int(u))
			s.begin()
			if s.push(ucols, uvals, bt.TransposeCached()); len(s.row) != len(all) {
				t.Fatalf("k=%d: pushing row %d reached %v, want all of %v", k, u, s.row, all)
			}
			for _, v := range all {
				if got := s.x[v]; got != root.At(int(u), int(v)) || got != wrapped {
					t.Errorf("k=%d: (A[%d,·]·B)[%d] = %d, A·B has %d, exact count mod 2⁶⁴ is %d", k, u, v, got, root.At(int(u), int(v)), wrapped)
				}
				if got := inner(a, int(u), bt, int(v)); got != root.At(int(u), int(v)) {
					t.Errorf("k=%d: ⟨A[%d,·],Bᵀ[%d,·]⟩ = %d, A·B has %d", k, u, v, got, root.At(int(u), int(v)))
				}
			}
			sameRanking(t, fmt.Sprintf("a^%d, query %d", k, u),
				RelSimAggregate(ev, []*rre.Pattern{p}, u, all), referenceAggregate(eval.New(g), []*rre.Pattern{p}, u, all))
		}
	}
}

// inner returns ⟨A[x,·], Bᵀ[y,·]⟩ = (A·B)(x,y), merging the two sorted
// rows.
func inner(a *sparse.Matrix, x int, bt *sparse.Matrix, y int) int64 {
	ac, av := a.RowView(x)
	bc, bv := bt.RowView(y)
	return sparse.Dot(ac, av, bc, bv)
}

// benchHeadline and benchSidePool are the patterns bench/workloads.go
// drives, with the type of their query node and candidates.
const benchHeadline = "p-in-.r-a.r-a-.p-in"

var benchSidePool = []struct{ pattern, typ string }{
	{"p-in-.w-.w.p-in", "proc"},
	{"w.w-", "author"},
	{"w.p-in.p-in-.w-", "author"},
	{"p-in.p-in-", "paper"},
	{"w-.w", "paper"},
	{"w.w-.w.w-", "author"},
	{"w-.w.w-.w", "paper"},
	{"w.(p-in.p-in- + w-.w).w-", "author"},
	{"(p-in.p-in- + w-.w)", "paper"},
	{"p-in-.(w-.w + p-in.p-in-).p-in", "proc"},
}

// benchPatterns is the pattern set the server and the bench oracle score
// for one request pattern: the Algorithm-1 expansion of a simple
// pattern, the pattern itself otherwise.
func benchPatterns(t testing.TB, ds datasets.Dataset, src string) []*rre.Pattern {
	p := rre.MustParse(src)
	if !p.IsSimple() {
		return []*rre.Pattern{p}
	}
	ps, err := pattern.Generate(ds.Schema, p, pattern.Default())
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// TestFullDBLPMatchesReference runs the benchmark's own patterns on
// FullDBLP through both bindings against the reference, and pins the
// counts the halves were sized by: what a cold headline read and a
// warm-up of the whole pool multiply and leave cached.
func TestFullDBLPMatchesReference(t *testing.T) {
	ds, err := datasets.ByName("dblp")
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	snap := g.Snapshot()
	ref := eval.New(g)
	raw := eval.New(g)
	canonical := eval.NewVersioned(snap, 0, eval.NewCache())
	var products int
	var madds int64
	canonical.SetMulHook(func(a, b *sparse.Matrix) {
		products++
		madds += a.MulFlops(b)
	})

	headline := benchPatterns(t, ds, benchHeadline)
	if len(headline) != 49 {
		t.Fatalf("headline expands to %d patterns, want 49", len(headline))
	}
	procs := snap.NodesOfType("proc")
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 20; i++ {
		q := procs[rng.Intn(len(procs))]
		want := referenceAggregate(ref, headline, q, procs)
		what := fmt.Sprintf("headline, query %d", q)
		sameRanking(t, what+" (raw keys)", RelSimAggregate(raw, headline, q, procs), want)
		sameRanking(t, what+" (canonical keys)", RelSimAggregate(canonical, headline, q, procs), want)
		if i == 0 {
			t.Logf("cold headline read: %d products, %d multiply-adds, %d cache entries", products, madds, canonical.CacheSize())
			if products != coldHeadlineProducts || madds != coldHeadlineMadds || canonical.CacheSize() != coldHeadlineEntries {
				t.Errorf("cold headline read: %d products, %d multiply-adds, %d entries; want %d, %d, %d",
					products, madds, canonical.CacheSize(), coldHeadlineProducts, coldHeadlineMadds, coldHeadlineEntries)
			}
		}
	}
	canonical.Cache().SetLimit(32)
	before := products
	RelSimAggregate(canonical, headline, procs[0], procs)
	if products != before {
		t.Errorf("a second headline read under SetLimit(32) performed %d products, want 0", products-before)
	}
	canonical.Cache().SetLimit(0)

	for _, side := range benchSidePool {
		ps := benchPatterns(t, ds, side.pattern)
		cands := snap.NodesOfType(side.typ)
		q := cands[rng.Intn(len(cands))]
		want := referenceAggregate(ref, ps, q, cands)
		what := fmt.Sprintf("%s, query %d", side.pattern, q)
		sameRanking(t, what+" (raw keys)", RelSimAggregate(raw, ps, q, cands), want)
		sameRanking(t, what+" (canonical keys)", RelSimAggregate(canonical, ps, q, cands), want)
	}
	t.Logf("whole pool: %d products, %d multiply-adds, %d cache entries", products, madds, canonical.CacheSize())
	if products != poolProducts || madds != poolMadds || canonical.CacheSize() != poolEntries {
		t.Errorf("warming the whole pool: %d products, %d multiply-adds, %d entries; want %d, %d, %d",
			products, madds, canonical.CacheSize(), poolProducts, poolMadds, poolEntries)
	}
}

// The counts a canonical evaluator with an unbounded cache reports on
// FullDBLP (ROADMAP rule ii: a count that repeats exactly changes only
// when a PR names its new value). Before the halves a cold headline read
// was 193 products, 2,951,213 multiply-adds and 63 entries, and the
// whole pool 211 products and 74 entries. With the pool's three
// alternation patterns cut whole, the pool took 18 products, 1,900,860
// multiply-adds and 25 entries; read as their terms (eval.NewCut) it
// takes 0.35× the multiply-adds, and never builds the 830,423-entry
// half w.(p-in.p-in- + w-.w). Read as the row sums of its chain (the
// column p-in.p-in-.#), the headline's nest [p-in.p-in-] no longer
// builds the 279,918-entry product p-in.p-in-: a cold headline read had
// taken 12 products, 434,166 multiply-adds and 16 entries, the whole
// pool 17, 660,866 and 23.
const (
	coldHeadlineProducts = 14
	coldHeadlineMadds    = 174536
	coldHeadlineEntries  = 17
	poolProducts         = 19
	poolMadds            = 401236
	poolEntries          = 24
)
