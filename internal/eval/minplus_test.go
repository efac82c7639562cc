package eval

import (
	"math"
	"math/rand"
	"testing"

	"relsim/internal/graph"
	"relsim/internal/rre"
)

// minPlus is the tropical semiring over walk lengths: ⊕ is min, ⊗ is +,
// zero is "no walk". Walked over it, M_p(u,v) is the edge count of a
// shortest walk from u to v matching p. It lives here, beside no
// evaluator code: a new ring needs only the walk.
type minPlus struct{}

const noWalk = math.MaxInt64

func (minPlus) Zero() int64            { return noWalk }
func (minPlus) One() int64             { return 0 }
func (minPlus) Add(a, b int64) int64   { return min(a, b) }
func (minPlus) IsZero(a int64) bool    { return a == noWalk }
func (minPlus) Truthy(a int64) bool    { return a != noWalk }
func (minPlus) Collapse(a int64) int64 { return a }
func (minPlus) Lift(int64) int64       { return 1 } // adjacency holds no zeros
func (minPlus) Name() string           { return "min-plus" }
func (minPlus) MulVia(a int64, _ int32, b int64) int64 {
	if a == noWalk || b == noWalk {
		return noWalk
	}
	return a + b
}

// shortestWalk is the brute-force reference, recursing over p.
func shortestWalk(g *graph.Graph, p *rre.Pattern, u, v graph.NodeID) int64 {
	subs, best := p.Subs(), int64(noWalk)
	switch p.Kind() {
	case rre.KindEps:
		if u == v {
			best = 0
		}
	case rre.KindLabel:
		if g.EdgeCount(u, p.LabelName(), v) > 0 {
			best = 1
		}
	case rre.KindRev:
		best = shortestWalk(g, subs[0], v, u)
	case rre.KindConcat:
		for w := graph.NodeID(0); int(w) < g.NumNodes(); w++ {
			best = min(best, minPlus{}.MulVia(shortestWalk(g, subs[0], u, w), 0,
				shortestWalk(g, rre.Concat(subs[1:]...), w, v)))
		}
	case rre.KindAlt:
		for _, s := range subs {
			best = min(best, shortestWalk(g, s, u, v))
		}
	}
	return best
}

// TestMinPlusRingThroughTheWalk checks a ring the evaluator never saw,
// entry by entry, on random graphs and eps/label/rev/concat/alt patterns.
func TestMinPlusRingThroughTheWalk(t *testing.T) {
	labels := []string{"a", "b", "c"}
	rng := rand.New(rand.NewSource(17))
	var pattern func(depth int) *rre.Pattern
	pattern = func(depth int) *rre.Pattern {
		switch k := rng.Intn(5); {
		case depth == 0 || k == 0:
			if rng.Intn(6) == 0 {
				return rre.Eps()
			}
			return rre.Label(labels[rng.Intn(len(labels))])
		case k == 1:
			return rre.Rev(pattern(depth - 1))
		case k == 2:
			return rre.Alt(pattern(depth-1), pattern(depth-1))
		}
		return rre.Concat(pattern(depth-1), pattern(depth-1))
	}
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(6)
		g := randomGraph(rng, n, rng.Intn(3*n), labels)
		p := pattern(1 + rng.Intn(2))
		m := walk[int64](New(g), minPlus{}).eval(p)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				got, ok := m.Lookup(u, v)
				if !ok {
					got = noWalk
				}
				if want := shortestWalk(g, p, graph.NodeID(u), graph.NodeID(v)); got != want {
					t.Fatalf("trial %d: %s at (%d,%d) = %d, brute force %d", trial, p, u, v, got, want)
				}
			}
		}
	}
}
