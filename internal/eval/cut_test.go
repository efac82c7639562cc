package eval

import (
	"testing"

	"relsim/internal/rre"
)

// TestCutKeepsTheLighterHalfRight: between equally balanced boundaries
// NewCut keeps the lighter half on the right, the half scoring reads in
// both orientations. The two alternation patterns of the benchmark pool
// thus keep the transpose of one label, not of the 830k-entry
// w.(p-in.p-in- + w-.w), and their halves are the same two matrices in
// swapped roles. A tie that weight cannot break (a nest weighs nothing)
// still cuts leftmost.
func TestCutKeepsTheLighterHalfRight(t *testing.T) {
	for _, tc := range []struct{ pattern, left, revRight string }{
		{"w.(p-in.p-in- + w-.w).w-", "w.(p-in.p-in- + w-.w)", "w"},
		{"p-in-.(w-.w + p-in.p-in-).p-in", "p-in-.(w-.w + p-in.p-in-)", "p-in-"},
		{"a.[b].c", "a", "c-.[b]"},
		{"a.b.c", "a.b", "c-"},
		{"a.b.c.d", "a.b", "d-.c-"},
	} {
		c := NewCut(rre.MustParse(tc.pattern))
		left, revRight := canonForm(rre.MustParse(tc.left)), canonForm(rre.MustParse(tc.revRight))
		if !c.Left.Equal(left) || c.RevRight == nil || !c.RevRight.Equal(revRight) {
			t.Errorf("NewCut(%s) = (%s, %v), want (%s, %s)", tc.pattern, c.Left, c.RevRight, left, revRight)
		}
	}
}
