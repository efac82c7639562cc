package eval

import (
	"testing"

	"relsim/internal/graph"
	"relsim/internal/rre"
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
// WitnessRow pushes over the witness ring and the counts Pair pushes
// over the integer ring must equal the integer commuting matrix, and
// Pair's score must equal PathSimScore of that matrix.
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
		for r := 0; r < want.Dim(); r++ {
			row := ev.WitnessRow(p, graph.NodeID(r))
			for col := 0; col < want.Dim(); col++ {
				u, v := graph.NodeID(r), graph.NodeID(col)
				iv := want.At(r, col)
				wv, _ := row.At(v)
				if wv.Count != iv {
					t.Fatalf("%q at (%d,%d): int %d, pushed witness %d", ps, r, col, iv, wv.Count)
				}
				count, score := ev.Pair(p, u, v)
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
