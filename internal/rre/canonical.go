package rre

import "sort"

// Canonicalization. Two patterns can render differently yet have the
// same commuting matrix: disjunction is commutative (matrix Add is
// commutative and associative over int64), concatenation and
// disjunction are associative (the constructors already flatten), and
// the constructors simplify reversal, star and skip. The canonical form
// is the fixpoint of those rewrites with disjunction branches sorted by
// their canonical rendering, so semantically interchangeable workload
// patterns collapse onto one representative — the key of the versioned
// commuting-matrix cache, which builds each one once.
//
// Canonical forms are closed under the constructors: every subtree of a
// canonical pattern is itself canonical, which is what lets an evaluator
// canonicalize once, at the root, and key every subexpression canonically.

// Interner canonicalizes patterns with hash-consing: canonical
// subexpressions are shared by rendering, so two patterns canonicalized
// through one Interner return pointer-identical nodes exactly when
// their canonical forms are equal. An Interner is not safe for
// concurrent use; it is a per-workload scratch structure.
type Interner struct {
	byKey map[string]*Pattern
}

// NewInterner returns an empty interner.
func NewInterner() *Interner { return &Interner{byKey: make(map[string]*Pattern)} }

// Canon returns the canonical, hash-consed form of p. See CanonExact
// for the count-exactness caveat.
func (in *Interner) Canon(p *Pattern) *Pattern {
	c, _ := in.canon(p)
	return c
}

// CanonExact returns the canonical form of p and whether it is
// count-exact. Every canonicalization rewrite preserves the commuting
// matrix entry-for-entry — flattening, reversal pushing, star/skip
// simplification and branch sorting are exact matrix identities — with
// one exception: disjunction branches that were structurally distinct
// but become equal after canonicalization (e.g. "(a+b).c + (b+a).c")
// are deduplicated, which counts their shared instances once where the
// original evaluation counts them per branch. CanonExact reports
// ok=false in that case; callers keying matrix caches by the canonical
// rendering must then fall back to the raw pattern, as
// Evaluator.Commuting and eval.EstimateProducts do.
func (in *Interner) CanonExact(p *Pattern) (*Pattern, bool) {
	return in.canon(p)
}

func (in *Interner) canon(p *Pattern) (*Pattern, bool) {
	exact := true
	var subs []*Pattern
	if len(p.subs) > 0 {
		subs = make([]*Pattern, len(p.subs))
		for i, s := range p.subs {
			c, e := in.canon(s)
			subs[i] = c
			exact = exact && e
		}
	}
	var c *Pattern
	switch p.kind {
	case KindEps, KindLabel:
		c = p
	case KindRev:
		// Rev pushes reversal through composites, so on a canonical child
		// this either collapses (double reversal) or wraps a label.
		c = Rev(subs[0])
	case KindStar:
		c = Star(subs[0])
	case KindConcat:
		c = Concat(subs...)
	case KindAlt:
		// Branch order is semantics-free (Add commutes); sort by canonical
		// rendering so every permutation shares one representative. Alt
		// dedupes equal branches — p's subs were structurally distinct (the
		// constructor invariant), so branches that are equal now became so
		// through canonicalization, and collapsing them drops counts:
		// mark the result inexact. Interned pointers make the check cheap.
		sorted := append([]*Pattern(nil), subs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].String() < sorted[j].String() })
		for i := 1; i < len(sorted); i++ {
			if sorted[i] == sorted[i-1] {
				exact = false
				break
			}
		}
		c = Alt(sorted...)
	case KindNest:
		c = Nest(subs[0])
	case KindSkip:
		c = Skip(subs[0])
	default:
		panic("rre: invalid pattern kind")
	}
	return in.intern(c), exact
}

// intern returns the canonical shared node for c, keyed by rendering.
func (in *Interner) intern(c *Pattern) *Pattern {
	key := c.String()
	if shared, ok := in.byKey[key]; ok {
		return shared
	}
	in.byKey[key] = c
	return c
}

// Canonical returns the canonical form of p: associativity flattened,
// reversal pushed onto labels, star/skip simplifications applied, and
// disjunction branches sorted and deduplicated. Canonical is
// idempotent; it preserves the commuting matrix exactly when
// CanonicalExact reports ok — always, except when structurally distinct
// disjunction branches collapse onto one canonical form.
func Canonical(p *Pattern) *Pattern { return NewInterner().Canon(p) }

// CanonicalExact is Canonical plus the count-exactness verdict; see
// Interner.CanonExact.
func CanonicalExact(p *Pattern) (*Pattern, bool) { return NewInterner().CanonExact(p) }

// CanonicalKey returns the canonical rendering of p — the cache key
// under which a canonical-key evaluator builds p (when the
// canonicalization is exact; inexact patterns keep their raw key).
func CanonicalKey(p *Pattern) string { return Canonical(p).String() }
