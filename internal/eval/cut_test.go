package eval

import (
	"testing"

	"relsim/internal/rre"
)

// TestCutKeepsTheLighterHalfRight: between equally balanced boundaries
// NewCut keeps the lighter half on the right, the half scoring reads in
// both orientations; a tie that weight cannot break (a nest weighs
// nothing) still cuts leftmost. An alternation that is the pattern or a
// factor of its chain is distributed first, so the benchmark pool's
// alternation patterns read the halves of the chains they spell, never
// the 830k-entry w.(p-in.p-in- + w-.w). Equal terms stay two terms, and
// past the cap of 8 terms the pattern is cut whole.
func TestCutKeepsTheLighterHalfRight(t *testing.T) {
	for _, tc := range []struct {
		pattern string
		terms   [][2]string // left and reversed right; "" when the term is not a concatenation
	}{
		{"w.(p-in.p-in- + w-.w).w-", [][2]string{{"w.p-in", "w.p-in"}, {"w.w-", "w.w-"}}},
		{"p-in-.(w-.w + p-in.p-in-).p-in", [][2]string{{"p-in-.p-in", "p-in-.p-in"}, {"p-in-.w-", "p-in-.w-"}}},
		{"(p-in.p-in- + w-.w)", [][2]string{{"p-in", "p-in"}, {"w-", "w-"}}},
		{"(a + a.b).(b + ())", [][2]string{{"a", ""}, {"a", "b-"}, {"a", "b-"}, {"a.b", "b-"}}},
		{"a + [b]*", [][2]string{{"[b]*", ""}, {"a", ""}}},
		{"(a + b).(c + d).(e + f).(g + h)", [][2]string{{"(a + b).(c + d)", "(g- + h-).(e- + f-)"}}},
		{"a.[b + c].d", [][2]string{{"a", "d-.[b + c]"}}},
		{"a.[b].c", [][2]string{{"a", "c-.[b]"}}},
		{"a.b.c", [][2]string{{"a.b", "c-"}}},
		{"a.b.c.d", [][2]string{{"a.b", "d-.c-"}}},
	} {
		c := NewCut(rre.MustParse(tc.pattern))
		ok := len(c) == len(tc.terms)
		for i := 0; ok && i < len(c); i++ {
			ok = c[i].Left.Equal(canonForm(rre.MustParse(tc.terms[i][0])))
			if tc.terms[i][1] == "" {
				ok = ok && c[i].RevRight == nil
			} else {
				ok = ok && c[i].RevRight != nil && c[i].RevRight.Equal(canonForm(rre.MustParse(tc.terms[i][1])))
			}
		}
		if !ok {
			t.Errorf("NewCut(%s) = %v, want %v", tc.pattern, c, tc.terms)
		}
	}
}
