package mapping

import (
	"fmt"
	"math/rand"
	"testing"

	"relsim/internal/eval"
	"relsim/internal/graph"
	"relsim/internal/rre"
	"relsim/internal/schema"
)

// This file property-tests the paper's core machinery on randomly
// generated invertible transformations of the "derived label" family:
// the source schema has base labels plus one derived label whose edges
// are exactly the closed-world derivation of a random acyclic premise
// over the base labels; the transformation drops the derived label and
// its inverse re-derives it (the BioMedT shape, randomized).

// derivedSetup is one random scenario.
type derivedSetup struct {
	g        *graph.Graph
	fwd      Transformation
	inv      Transformation
	derived  string
	premise  []schema.Atom
	from, to schema.Var
	base     []string
}

// randomDerivedSetup builds a random instance over base labels a, b, c
// plus derived label "drv" with a random 2-3 atom chain premise.
func randomDerivedSetup(rng *rand.Rand) derivedSetup {
	base := []string{"a", "b", "c"}
	n := 4 + rng.Intn(5)
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("n%d", i), "")
	}
	for m := rng.Intn(3 * n); m > 0; m-- {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		l := base[rng.Intn(len(base))]
		if g.EdgeCount(u, l, v) == 0 {
			g.AddEdge(u, l, v)
		}
	}

	// Random chain premise x0 -l1- x1 -l2- x2 (-l3- x3), random
	// per-step orientation; conclusion (x0, drv, xk).
	steps := 2 + rng.Intn(2)
	var premise []schema.Atom
	for i := 0; i < steps; i++ {
		l := base[rng.Intn(len(base))]
		from := schema.Var(fmt.Sprintf("x%d", i))
		to := schema.Var(fmt.Sprintf("x%d", i+1))
		if rng.Intn(2) == 0 {
			premise = append(premise, schema.At(from, l, to))
		} else {
			premise = append(premise, schema.At(to, l, from))
		}
	}
	from, to := schema.Var("x0"), schema.Var(fmt.Sprintf("x%d", steps))

	// Materialize the derived edges exactly (closed world).
	ev := eval.New(g)
	type pair struct{ u, v graph.NodeID }
	seen := map[pair]bool{}
	schema.EnumerateBindings(ev, premise, func(b map[schema.Var]graph.NodeID) bool {
		k := pair{b[from], b[to]}
		if !seen[k] {
			seen[k] = true
		}
		return true
	})
	for k := range seen {
		g.AddEdge(k.u, "drv", k.v)
	}

	fwd := Transformation{Name: "dropDrv", Rules: Identities(base...)}
	inv := Transformation{
		Name: "deriveDrv",
		Rules: append(Identities(base...), Rule{
			Name:       "derive",
			Premise:    premise,
			Conclusion: []ConclusionAtom{{From: from, Label: "drv", To: to}},
		}),
	}
	return derivedSetup{g: g, fwd: fwd, inv: inv, derived: "drv", premise: premise, from: from, to: to, base: base}
}

func TestRandomDerivedTransformationsInvertible(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		s := randomDerivedSetup(rng)
		if !VerifyInverse(s.g, s.fwd, s.inv) {
			t.Fatalf("trial %d: derived-label transformation must round-trip", trial)
		}
		if !SatisfiesComposition(s.g, s.fwd, s.inv) {
			t.Fatalf("trial %d: I ⊭ Σ⁻¹∘Σ", trial)
		}
	}
}

// TestRandomDerivedTheorem2 checks RewritePattern count equality for
// random RRE patterns over random derived-label scenarios.
func TestRandomDerivedTheorem2(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	labels := []string{"a", "b", "c", "drv"}
	var genPattern func(depth int) *rre.Pattern
	genPattern = func(depth int) *rre.Pattern {
		if depth <= 0 {
			l := rre.Label(labels[rng.Intn(len(labels))])
			if rng.Intn(2) == 0 {
				return rre.Rev(l)
			}
			return l
		}
		switch rng.Intn(5) {
		case 0:
			return rre.Concat(genPattern(depth-1), genPattern(depth-1))
		case 1:
			return rre.Alt(genPattern(depth-1), genPattern(depth-1))
		case 2:
			return rre.Skip(genPattern(depth - 1))
		case 3:
			return rre.Nest(genPattern(depth - 1))
		default:
			return genPattern(0)
		}
	}

	for trial := 0; trial < 40; trial++ {
		s := randomDerivedSetup(rng)
		dst := s.fwd.Apply(s.g)
		evS, evT := eval.New(s.g), eval.New(dst)
		for k := 0; k < 4; k++ {
			p := genPattern(1 + rng.Intn(2))
			q, err := RewritePattern(p, s.inv)
			if err != nil {
				t.Fatalf("trial %d: rewrite %s: %v", trial, p, err)
			}
			mS := evS.Commuting(p)
			mT := evT.Commuting(q)
			if !mS.Equal(mT) {
				t.Fatalf("trial %d: pattern %s (rewritten %s): commuting matrices differ\nS:\n%s\nT:\n%s\npremise: %v",
					trial, p, q, mS, mT, s.premise)
			}
		}
	}
}

// TestRandomDerivedSigmaStar checks the Proposition 2 σ* direction on
// the random scenarios.
func TestRandomDerivedSigmaStar(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		s := randomDerivedSetup(rng)
		sigma, _ := Compose(s.fwd, s.inv)
		if !SatisfiesSigmaStar(s.g, sigma) {
			t.Fatalf("trial %d: σ* must hold on the closed-world instance", trial)
		}
	}
}
