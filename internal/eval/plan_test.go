package eval

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"relsim/internal/graph"
	"relsim/internal/rre"
	"relsim/internal/sparse"
)

// TestChainPlanningPreservesResults: planned evaluation must produce
// the commuting matrix of a strict left-to-right fold over the step
// adjacencies (associativity).
func TestChainPlanningPreservesResults(t *testing.T) {
	labels := []string{"a", "b", "c"}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(5)
		g := randomGraph(rng, n, rng.Intn(14), labels)
		steps := make([]rre.Step, 3+rng.Intn(3))
		for i := range steps {
			steps[i] = rre.Step{Label: labels[rng.Intn(3)], Reverse: rng.Intn(2) == 1}
		}
		p := rre.FromSteps(steps)

		snap := g.Snapshot()
		var want *sparse.Matrix
		for _, st := range steps {
			f := snap.Adjacency(st.Label)
			if st.Reverse {
				f = f.Transpose()
			}
			if want == nil {
				want = f
			} else {
				want = want.Mul(f)
			}
		}
		if !New(g).Commuting(p).Equal(want) {
			t.Fatalf("trial %d: planning changed the result for %s", trial, p)
		}
	}
}

func TestMulCostEstimateExactForFirstProduct(t *testing.T) {
	// The planner's cost, MulFlops = Σ_k col_a(k)·row_b(k), counts
	// exactly the scalar multiplications of a·b; verify against a dense
	// count.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(6)
		var ta, tb []sparse.Triple
		for i := 0; i < rng.Intn(12); i++ {
			ta = append(ta, sparse.Triple{Row: rng.Intn(n), Col: rng.Intn(n), Val: 1})
			tb = append(tb, sparse.Triple{Row: rng.Intn(n), Col: rng.Intn(n), Val: 1})
		}
		a, b := sparse.New(n, ta), sparse.New(n, tb)
		var want int64
		a.Each(func(_, k int, _ int64) {
			b.Each(func(r, _ int, _ int64) {
				if r == k {
					want++
				}
			})
		})
		if got := a.MulFlops(b); got != want {
			t.Fatalf("trial %d: estimate %d, exact %d", trial, got, want)
		}
	}
}

func TestMulChainSingleFactor(t *testing.T) {
	m := sparse.Identity(3)
	if got := New(graph.New()).ints().chain([]*sparse.Matrix{m}); got != m {
		t.Error("single-factor chain must return the factor")
	}
}

func TestMulChainPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty chain must panic")
		}
	}()
	New(graph.New()).ints().chain(nil)
}

// chainFactors is the planner-overhead input: ten 2000×2000 factors of
// 4000 entries each.
func chainFactors() []*sparse.Matrix {
	rng := rand.New(rand.NewSource(11))
	const (
		n       = 2000
		factors = 10
		nnz     = 4000
	)
	ms := make([]*sparse.Matrix, factors)
	for i := range ms {
		ts := make([]sparse.Triple, nnz)
		for j := range ts {
			ts[j] = sparse.Triple{Row: rng.Intn(n), Col: rng.Intn(n), Val: 1}
		}
		ms[i] = sparse.New(n, ts)
	}
	return ms
}

// TestMulChainAllocationsConstant gates the planner's bookkeeping: what
// the chain allocates beyond its nine products' own allocations is a
// constant (the working copy of the factor list and the cost vector),
// not vectors of length n per factor and per intermediate product.
func TestMulChainAllocationsConstant(t *testing.T) {
	skipUnderRace(t)
	ms := chainFactors()
	ev := New(graph.New())
	var pairs [][2]*sparse.Matrix
	ev.SetMulHook(func(a, b *sparse.Matrix) { pairs = append(pairs, [2]*sparse.Matrix{a, b}) })
	ev.ints().chain(ms)
	ev.SetMulHook(nil)
	if len(pairs) != len(ms)-1 {
		t.Fatalf("chain of %d factors ran %d products", len(ms), len(pairs))
	}
	products := testing.AllocsPerRun(5, func() {
		for _, p := range pairs {
			p[0].Mul(p[1])
		}
	})
	chain := testing.AllocsPerRun(5, func() { ev.ints().chain(ms) })
	if extra := chain - products; extra > 4 {
		t.Errorf("the chain allocates %.0f times beyond its products' %.0f, want at most 4", extra, products)
	}
}

// BenchmarkChainPlanOverhead guards the chain planner's bookkeeping
// cost: a pair's cost is read off the operands' CSR and only the two
// costs next to a merged product are read again, so the greedy pair
// selection must stay cheap relative to the products themselves even on
// long chains of large factors. Regressions that reintroduce O(n)
// allocations per factor show up directly in ns/op and allocs/op here.
func BenchmarkChainPlanOverhead(b *testing.B) {
	ms := chainFactors()
	w := New(graph.New()).ints()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.chain(ms)
	}
}

// TestChainPlanningSkewedPattern sanity-checks that the planner picks
// the cheap association on a skewed chain: a dense hop times two thin
// hops.
func TestChainPlanningSkewedPattern(t *testing.T) {
	g := graph.New()
	// 30 "authors" all pairwise connected via label d (dense), plus a
	// thin chain via labels s and tl.
	n := 30
	ids := make([]graph.NodeID, n+2)
	for i := range ids {
		ids[i] = g.AddNode("", "")
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				g.AddEdge(ids[i], "d", ids[j])
			}
		}
	}
	g.AddEdge(ids[0], "s", ids[n])
	g.AddEdge(ids[n], "tl", ids[n+1])

	ev := New(g)
	p := rre.MustParse("d.s.tl")
	m := ev.Commuting(p)
	// All d-neighbors of ids[0]... the only s edge starts at ids[0], so
	// rows reaching ids[n+1] are the d-predecessors of ids[0].
	var nnz int
	m.Each(func(_, _ int, _ int64) { nnz++ })
	if nnz != n-1 {
		t.Errorf("nnz = %d, want %d", nnz, n-1)
	}
}

// skipUnderRace skips an allocation gate when the race detector is
// compiled in: its instrumentation allocates.
func skipUnderRace(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are inflated by the race detector")
			}
		}
	}
}
