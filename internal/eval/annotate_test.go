package eval

import (
	"sync/atomic"
	"testing"

	"relsim/internal/graph"
	"relsim/internal/rre"
	"relsim/internal/sparse"
)

func mustParse(t *testing.T, s string) *rre.Pattern {
	t.Helper()
	p, err := rre.Parse(s)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return p
}

// TestAnnotatedCountsMatchInteger checks the projection invariant on
// full pattern evaluations: annotated counts must equal the integer
// commuting matrix for every operator combination, and the witness
// PathSim score must equal the integer one.
func TestAnnotatedCountsMatchInteger(t *testing.T) {
	snap := fixtureSnap()
	patterns := []string{
		"a", "a-", "a.b", "a.b.c", "a + b", "(a.b)-", "<<a.b>>",
		"[a.b]", "(a)*", "a.(b + c)", "<<a>>.b",
	}
	ev := NewVersioned(snap, 0, NewCache())
	for _, ps := range patterns {
		p := mustParse(t, ps)
		want := ev.Commuting(p)
		wit := ev.CommutingWitness(p)
		if p.Kind() == rre.KindStar {
			// Star collapses to reachability; annotated closures agree on
			// support only (documented contract).
			continue
		}
		for r := 0; r < want.Dim(); r++ {
			for c := 0; c < want.Dim(); c++ {
				iv := want.At(r, c)
				wv, _ := wit.Lookup(r, c)
				if wv.Count != iv {
					t.Fatalf("%q at (%d,%d): int %d, witness %d", ps, r, c, iv, wv.Count)
				}
				if iv > 0 {
					is := PathSimScore(want, graph.NodeID(r), graph.NodeID(c))
					ws := WitnessPathSimScore(wit, graph.NodeID(r), graph.NodeID(c))
					if is != ws {
						t.Fatalf("%q at (%d,%d): PathSim %v vs witness %v", ps, r, c, is, ws)
					}
				}
			}
		}
	}
}

// TestWarmAnnotatedLookupMaterializesNothing is the projection
// guarantee at the evaluator level: once a witness matrix is cached,
// re-requesting it performs zero matrix products — the serving layer's
// warm /explain builds directly on this.
func TestWarmAnnotatedLookupMaterializesNothing(t *testing.T) {
	snap := fixtureSnap()
	cache := NewCache()
	ev := NewVersioned(snap, 0, cache)
	var products atomic.Int64
	ev.SetMulHook(func(_, _ *sparse.Matrix) { products.Add(1) })

	p := mustParse(t, "a.b.c")
	ev.CommutingWitness(p)
	if products.Load() == 0 {
		t.Fatal("cold annotated evaluation performed no products — hook broken")
	}

	products.Store(0)
	before := ev.Counters().Products.Load()
	m := ev.CommutingWitness(p)
	if products.Load() != 0 || ev.Counters().Products.Load() != before {
		t.Fatalf("warm annotated lookup performed %d products", products.Load())
	}
	if w, ok := m.Lookup(0, 0); !ok && w.Count != 0 {
		_ = w // reachable entries checked in the counts test; here we only care it served from cache
	}
}

// TestMaintainFallsBackForAnnotatedEntries is the guard for rings
// without subtraction: a commit must never patch a witness matrix
// forward. The touched witness entry is evicted (fallback), the
// untouched one is carried, and in both cases the cache contents after
// the commit equal a fresh recompute at the new version.
func TestMaintainFallsBackForAnnotatedEntries(t *testing.T) {
	snap := fixtureSnap()
	cache := NewCache()
	ev0 := NewVersioned(snap, 0, cache)

	touchedPat := mustParse(t, "a.b") // mentions label "a" — stale after the commit
	carriedPat := mustParse(t, "b.b") // does not mention "a" — carried across
	ev0.Commuting(touchedPat)
	ev0.CommutingWitness(touchedPat)
	ev0.CommutingWitness(carriedPat)

	next, d, touched, nodesChanged := applyBatch(snap, 0, []deltaOp{
		{op: "add-edge", u: 2, v: 4, label: "a"},
	})
	res := cache.Maintain(next, d, MaintainOptions{})
	if res.Fallbacks == 0 {
		t.Fatalf("Maintain = %+v, want the annotated root counted as a fallback", res)
	}
	if res.Maintained == 0 {
		t.Fatalf("Maintain = %+v, want the integer root maintained", res)
	}
	cache.Advance(0, 1, touched, nodesChanged, false)

	// The touched witness entry must be gone: a warm lookup at v1 would
	// otherwise serve a stale annotation.
	if cache.lookup(Key{Version: 1, Ring: RingWitness, Pattern: touchedPat.String()}) != nil {
		t.Fatal("stale witness entry survived the commit")
	}
	// The untouched witness entry rides along like any other entry.
	if cache.lookup(Key{Version: 1, Ring: RingWitness, Pattern: carriedPat.String()}) == nil {
		t.Fatal("untouched witness entry was not carried to the new version")
	}

	// Regression: after the commit, what annotated requests see at v1 —
	// recomputed or carried — equals a fresh recompute from the new
	// snapshot with a private cache.
	ev1 := NewVersioned(next, 1, cache)
	for _, p := range []*rre.Pattern{touchedPat, carriedPat} {
		got := ev1.CommutingWitness(p)
		want := NewVersioned(next, 1, NewCache()).CommutingWitness(p)
		if !got.Equal(want) {
			t.Fatalf("witness %q after commit diverges from fresh recompute", p)
		}
	}
	// And the maintained integer entry still matches its recompute.
	checkAgainstRecompute(t, cache, 1, next)
}

// TestEstimateProductsAnnotated pins the admission pricing: annotated
// requests cost the integer estimate plus the annotation surcharge.
func TestEstimateProductsAnnotated(t *testing.T) {
	ps := []*rre.Pattern{mustParse(t, "a.b.c"), mustParse(t, "a.b")}
	base := EstimateProducts(ps)
	if base <= 0 {
		t.Fatalf("EstimateProducts = %d, want > 0", base)
	}
	if got, want := EstimateProductsAnnotated(ps), base*(1+AnnotationCostFactor); got != want {
		t.Fatalf("EstimateProductsAnnotated = %d, want %d", got, want)
	}
}
