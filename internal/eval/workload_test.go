package eval

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"relsim/internal/rre"
	"relsim/internal/sparse"
)

func mustParseAll(t testing.TB, ss []string) []*rre.Pattern {
	t.Helper()
	ps := make([]*rre.Pattern, len(ss))
	for i, s := range ss {
		ps[i] = rre.MustParse(s)
	}
	return ps
}

// TestPlanWorkloadDedup pins down the walk over a workload's distinct
// sub-patterns: the distinct count, the sharing found across patterns,
// and the products a cold cache builds them with.
func TestPlanWorkloadDedup(t *testing.T) {
	cases := []struct {
		name     string
		patterns []string
		nodes    int
		deduped  int
		products int
	}{
		{
			name:     "single chain",
			patterns: []string{"a.b.c"},
			nodes:    4, // concat, a, b, c
			deduped:  0,
			products: 2,
		},
		{
			name:     "alt permutations collapse",
			patterns: []string{"a+b", "b+a"},
			nodes:    3, // alt, a, b
			deduped:  3, // the second pattern re-uses all three
			products: 0,
		},
		{
			name:     "shared disjunction block",
			patterns: []string{"(a.b + c).d", "e.(a.b + c)", "(c + a.b).d"},
			nodes:    9,  // a, b, a.b, c, a.b+c, d, root1, e, root2
			deduped:  12, // 7+7+7 per-pattern nodes vs 9 shared
			products: 3,  // a.b, root1, root2
		},
		{
			name:     "star body shared",
			patterns: []string{"(a.b)*", "a.b"},
			nodes:    4, // a, b, a.b, star
			deduped:  3,
			products: 2, // a.b once, star closure lower-bound 1
		},
		{
			name:     "nest reads its chain's row sums",
			patterns: []string{"[a.b]", "a.b"},
			nodes:    6, // [a.b], a.b.#, a, b, #, a.b
			deduped:  2, // a and b
			products: 3, // a.b.# twice, a.b once
		},
		{
			name:     "exact duplicates",
			patterns: []string{"a", "a"},
			nodes:    1,
			deduped:  1,
			products: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := walkDistinct(mustParseAll(t, tc.patterns), true)
			if st.Nodes != tc.nodes {
				t.Errorf("Nodes = %d, want %d", st.Nodes, tc.nodes)
			}
			if st.Deduped != tc.deduped {
				t.Errorf("Deduped = %d, want %d", st.Deduped, tc.deduped)
			}
			if st.Products != tc.products {
				t.Errorf("Products = %d, want %d", st.Products, tc.products)
			}
		})
	}
}

// TestPlanWorkloadUnplannable: a pattern whose canonicalization would
// collapse disjunction branches (changing counts) is walked, priced and
// evaluated in its raw form, sharing its sub-patterns by rendering with
// the rest of the workload, and still answers exactly like direct
// evaluation.
func TestPlanWorkloadUnplannable(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := randomGraph(rng, 8, 24, []string{"a", "b", "c"})
	collapse := rre.MustParse("(a + b).c + (b + a).c")
	ps := mustParseAll(t, []string{"(a + b).c + (b + a).c", "(a+b).c"})
	// The raw root, (a + b).c, (b + a).c, a + b, b + a, a, b and c; the
	// second pattern's canonical form is the raw (a + b).c.
	if st := walkDistinct(ps, true); st.Nodes != 8 || st.Products != 2 {
		t.Fatalf("Stats = %+v, want 8 nodes and 2 products", st)
	}

	ev := New(g)
	var products atomic.Int64
	ev.SetMulHook(func(_, _ *sparse.Matrix) { products.Add(1) })
	for _, p := range ps {
		ev.Commuting(p)
	}
	if got, want := products.Load(), int64(EstimateProducts(ps)); got != want {
		t.Errorf("evaluation performed %d products, EstimateProducts says %d", got, want)
	}
	direct := New(g)
	// The regression the differential review caught: the collapsing
	// pattern's count is double the collapsed form's, and canonical keys
	// must preserve it.
	if !ev.Commuting(collapse).Equal(direct.Commuting(collapse)) {
		t.Error("canonical keys changed the matrix of the collapsing pattern")
	}
	if ev.Commuting(collapse).Equal(direct.Commuting(rre.MustParse("(a+b).c"))) {
		t.Error("fixture too weak: collapse pattern indistinguishable from its canonical form")
	}
}

// TestEstimateProducts pins the admission-control cost surface: the
// products of the distinct sub-patterns, a raw pattern's included when
// its canonicalization is inexact, with sharing reflected and stars
// counted as one product (the static lower bound).
func TestEstimateProducts(t *testing.T) {
	cases := []struct {
		name     string
		patterns []string
		want     int
	}{
		{"empty", nil, 0},
		{"single label", []string{"a"}, 0},
		{"chain", []string{"a.b.c"}, 2},
		{"shared chains", []string{"a.b", "a.b"}, 1},
		{"star lower bound", []string{"a*"}, 1},
		{"long chain", []string{"a.b.a.b.a.b.a.b"}, 7},
		// The collapsing disjunction is unplannable: its isolated cost
		// (two concats, one product each) still counts toward the
		// estimate even though it runs outside the DAG.
		{"unplannable counted", []string{"(a + b).c + (b + a).c"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := EstimateProducts(mustParseAll(t, tc.patterns)); got != tc.want {
				t.Fatalf("EstimateProducts(%v) = %d, want %d", tc.patterns, got, tc.want)
			}
		})
	}
}

// TestNestPricedAsBuilt: a nested concatenation prices at the products
// each walk performs for it, the integer walk's chain through J
// (EstimateProducts) and the witness walk's chain alone
// (EstimateWitnessProducts).
func TestNestPricedAsBuilt(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(5)), 8, 24, []string{"a", "b", "c"})
	for _, tc := range []struct {
		pattern       string
		ints, witness int
	}{{"[a.b]", 2, 1}, {"[a.b-.c]", 3, 2}, {"a.[b.c].a-", 4, 3}} {
		ps := mustParseAll(t, []string{tc.pattern})
		if got := EstimateProducts(ps); got != tc.ints {
			t.Errorf("EstimateProducts(%s) = %d, want %d", tc.pattern, got, tc.ints)
		}
		if got := EstimateWitnessProducts(ps); got != tc.witness {
			t.Errorf("EstimateWitnessProducts(%s) = %d, want %d", tc.pattern, got, tc.witness)
		}
		for _, walk := range []struct {
			name string
			eval func(*Evaluator)
			want int
		}{
			{"Commuting", func(e *Evaluator) { e.Commuting(ps[0]) }, tc.ints},
			{"CommutingWitness", func(e *Evaluator) { e.CommutingWitness(ps[0]) }, tc.witness},
		} {
			ev := New(g)
			var products atomic.Int64
			ev.SetMulHook(func(_, _ *sparse.Matrix) { products.Add(1) })
			walk.eval(ev)
			if got := products.Load(); got != int64(walk.want) {
				t.Errorf("%s(%s) performed %d products, want %d", walk.name, tc.pattern, got, walk.want)
			}
		}
	}
}
