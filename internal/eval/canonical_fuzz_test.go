package eval

import (
	"math/rand"
	"testing"

	"relsim/internal/rre"
)

// FuzzCanonicalEquivalence is the semantic half of the canonicalization
// contract (the syntactic half is FuzzCanonical in internal/rre): over
// a fixed fixture graph,
//
//   - an evaluator always answers exactly like the walk over the
//     pattern as written (on a cache of its own: the walk never
//     canonicalizes), for every pattern — exact canonicalizations
//     evaluate the canonical form, inexact ones fall back to the raw
//     pattern;
//   - exact canonicalization preserves semantics: M_{Canonical(p)} = M_p
//     whenever CanonicalExact reports ok;
//   - equal canonical keys of two exactly-canonicalizable patterns
//     imply equal commuting matrices — the soundness of sharing one
//     cache entry between them.
func FuzzCanonicalEquivalence(f *testing.F) {
	for _, seed := range [][2]string{
		{"a", "a"},
		{"b+a", "a+b"},
		{"c + b + a", "(a+b)+c"},
		{"(a.b + c).a", "(c + a.b).a"},
		{"(a.b)-", "b-.a-"},
		{"<b+a>*", "(a+b)*"},
		{"[c.(b+a)]", "[c.(a+b)]"},
		{"a.b.c", "a.(b.c)"},
		{"a*", "a**"},
		{"a+a", "a"},
		// Inexact canonicalization: the two branches collapse onto one
		// canonical form, halving counts — the evaluator must fall back.
		{"(a + b).c + (b + a).c", "(a + b).c"},
		{"(b+a) + (a+b)", "a+b"},
	} {
		f.Add(seed[0], seed[1])
	}
	rng := rand.New(rand.NewSource(41))
	g := randomGraph(rng, 8, 22, []string{"a", "b", "c"})

	f.Fuzz(func(t *testing.T, inA, inB string) {
		if len(inA) > 48 || len(inB) > 48 {
			t.Skip("oversized input")
		}
		pa, err := rre.Parse(inA)
		if err != nil {
			t.Skip("not a pattern")
		}
		pb, err := rre.Parse(inB)
		if err != nil {
			t.Skip("not a pattern")
		}
		if pa.Size() > 32 || pb.Size() > 32 {
			t.Skip("oversized pattern")
		}

		raw := New(g).ints()
		ev := New(g)
		exact := make(map[*rre.Pattern]bool)
		for _, p := range []*rre.Pattern{pa, pb} {
			direct := raw.eval(p)
			c, ok := rre.CanonicalExact(p)
			exact[p] = ok
			if ok && !direct.Equal(raw.eval(c)) {
				t.Fatalf("exact canonicalization changed the matrix of %s", p)
			}
			if !direct.Equal(ev.Commuting(p)) {
				t.Fatalf("canonical-key evaluation changed the matrix of %s", p)
			}
		}
		if exact[pa] && exact[pb] && rre.CanonicalKey(pa) == rre.CanonicalKey(pb) {
			if !raw.eval(pa).Equal(raw.eval(pb)) {
				t.Fatalf("equal canonical keys but different matrices: %s vs %s", pa, pb)
			}
		}
	})
}
