package eval_test

import (
	"math"
	"math/rand"
	"testing"

	"relsim/internal/eval"
	"relsim/internal/graph"
	"relsim/internal/rre"
	"relsim/internal/sparse"
)

// FuzzDistributedCut holds NewCut's distribution to the pattern cut
// whole: on a random graph with parallel edges and a pattern with
// alternations, a chain of randomFactor factors, one of them at times a
// top-level alternation, or the alternation of two chains, the terms
// Scoring reads must sum to the wide cut's M_p in every row, and their
// diagonals to its diagonal; Pair must give the wide cut's count and
// score bits. The wide cut is Commuting's M_p, built whole on a
// separate evaluator. All of it bit for bit: at high edge
// multiplicities the counts pass int64 and wrap mod 2⁶⁴, alike in any
// order. A listed pattern replaces the random one.
func FuzzDistributedCut(f *testing.F) {
	f.Add(int64(0), uint16(0), "")
	f.Add(int64(1), uint16(1), "")
	f.Add(int64(7), uint16(0), "(a + a.b).(b + ())")           // a.b twice: equal terms count twice
	f.Add(int64(3), uint16(1999), "a.(b + a-).a.(a + c).a-.b") // 6 labels at 2000 edges a pair: every nonzero count wraps
	f.Add(int64(4), uint16(2), "a.(b + c)*.(a + b-)")
	f.Add(int64(5), uint16(0), "(a + b).(a + c).(b + c).(a- + b)") // 16 terms: cut whole
	labels := []string{"a", "b", "c"}
	f.Fuzz(func(t *testing.T, seed int64, parallel uint16, src string) {
		rng := rand.New(rand.NewSource(seed))
		var p *rre.Pattern
		if src != "" {
			var err error
			if p, err = rre.Parse(src); err != nil || len(src) > 48 || p.Size() > 24 {
				t.Skip("not a small pattern")
			}
		} else {
			chain := func() *rre.Pattern {
				factors := make([]*rre.Pattern, 1+rng.Intn(5))
				for i := range factors {
					factors[i] = randomFactor(rng, labels, rng.Intn(3))
				}
				if rng.Intn(2) == 0 {
					i := rng.Intn(len(factors))
					factors[i] = rre.Alt(factors[i], randomFactor(rng, labels, rng.Intn(2)))
				}
				return rre.Concat(factors...)
			}
			p = chain()
			if rng.Intn(3) == 0 {
				p = rre.Alt(p, chain())
			}
		}
		mult := 1 + int(parallel)%2048
		n := 2 + rng.Intn(14)
		if mult > 8 {
			n = 2 + rng.Intn(4)
		}
		g := graph.New()
		for i := 0; i < n; i++ {
			g.AddNode("", "")
		}
		for i := 0; i < 3*n; i++ {
			u, v, l := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), labels[rng.Intn(len(labels))]
			for k := 0; k < mult; k++ {
				g.AddEdge(u, l, v)
			}
		}

		ev := eval.New(g)
		wide := eval.New(g).Commuting(p) // built whole, from its undistributed cut
		wideDiag := func(v int) int64 { return wide.At(v, v) }

		sum, diag := make([]int64, n*n), make([]int64, n)
		terms := 0
		ev.Scoring([]eval.Cut{eval.NewCut(p)}, func(a, b *sparse.Matrix, d *sparse.Vector, _ bool) {
			terms++
			m := a
			if b != nil {
				m = a.Mul(b)
			}
			for u := 0; u < n; u++ {
				cols, vals := m.RowView(u)
				for i, v := range cols {
					sum[u*n+int(v)] += vals[i]
				}
				if d != nil {
					diag[u] += d.At(u)
				} else {
					diag[u] += a.At(u, u)
				}
			}
		})
		for u := 0; u < n; u++ {
			if diag[u] != wideDiag(u) {
				t.Fatalf("%s (%d terms): diagonal at %d sums to %d, the wide cut has %d", p, terms, u, diag[u], wideDiag(u))
			}
			for v := 0; v < n; v++ {
				want := wide.At(u, v)
				if got := sum[u*n+v]; got != want {
					t.Fatalf("%s (%d terms): row %d at %d sums to %d, the wide cut has %d", p, terms, u, v, got, want)
				}
				x, y := graph.NodeID(u), graph.NodeID(v)
				count, score := ev.Pair(p, x, y)
				wantScore := eval.Eq1(want, wideDiag(u)+wideDiag(v))
				if count != want || math.Float64bits(score) != math.Float64bits(wantScore) {
					t.Fatalf("%s (%d terms): Pair(%d, %d) = %d, %v; the wide cut has %d, %v", p, terms, u, v, count, score, want, wantScore)
				}
			}
		}
	})
}
