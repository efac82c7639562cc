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
// the pushed rows: for every operator combination, the witness counts
// WitnessRow pushes through a cut's witness halves and the counts Pair
// reads from its integer halves must equal the integer commuting
// matrix, and Pair's score must equal PathSimScore of that matrix.
func TestAnnotatedCountsMatchInteger(t *testing.T) {
	snap := fixtureSnap()
	patterns := []string{
		"a", "a-", "a.b", "a.b.c", "a + b", "(a.b)-", "<<a.b>>",
		"[a.b]", "(a)*", "a.(b + c)", "<<a>>.b",
	}
	ev := NewVersioned(snap, 0, NewCache())
	for _, ps := range patterns {
		p := mustParse(t, ps)
		if p.Kind() == rre.KindStar {
			// Star collapses to reachability; annotated closures agree on
			// support only (documented contract).
			continue
		}
		want := ev.Commuting(p)
		c := NewCut(p)
		for r := 0; r < want.Dim(); r++ {
			row := ev.WitnessRow(c, graph.NodeID(r))
			for col := 0; col < want.Dim(); col++ {
				u, v := graph.NodeID(r), graph.NodeID(col)
				iv := want.At(r, col)
				wv, _ := row.At(v)
				if wv.Count != iv {
					t.Fatalf("%q at (%d,%d): int %d, pushed witness %d", ps, r, col, iv, wv.Count)
				}
				count, score := ev.Pair(c, u, v)
				if count != iv {
					t.Fatalf("%q at (%d,%d): int %d, pair %d", ps, r, col, iv, count)
				}
				if is := PathSimScore(want, u, v); score != is {
					t.Fatalf("%q at (%d,%d): PathSim %v vs pair %v", ps, r, col, is, score)
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

	next, d := applyBatch(snap, 0, []deltaOp{
		{op: "add-edge", u: 2, v: 4, label: "a"},
	})
	res := cache.Commit(next, d, at(1))
	if res.Fallbacks == 0 {
		t.Fatalf("Commit = %+v, want the annotated root counted as a fallback", res)
	}
	if res.Maintained == 0 {
		t.Fatalf("Commit = %+v, want the integer root maintained", res)
	}

	// The touched witness entry must be gone: a warm lookup at v1 would
	// otherwise serve a stale annotation.
	if cache.cached(Key{Version: 1, Ring: RingWitness, Pattern: touchedPat.String()}) != nil {
		t.Fatal("stale witness entry survived the commit")
	}
	// The untouched witness entry rides along like any other entry.
	if cache.cached(Key{Version: 1, Ring: RingWitness, Pattern: carriedPat.String()}) == nil {
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
