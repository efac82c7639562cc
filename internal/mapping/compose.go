package mapping

import (
	"fmt"

	"relsim/internal/eval"
	"relsim/internal/graph"
	"relsim/internal/rre"
	"relsim/internal/schema"
)

// Compose computes σ = Σ_TS ∘ Σ_ST as a set of tgd constraints over the
// source schema S (Proposition 1). Each rule of the second transformation
// (premise over T) has every premise atom (x, l_T, y) replaced by the
// premise of a first-transformation rule whose conclusion produces l_T;
// when several rules produce l_T the replacements multiply out. The
// resulting constraints are what Proposition 1 says every source database
// must satisfy for the transformation to be invertible.
//
// Atoms whose label is produced only with existential endpoints require
// second-order tgds (§3.2.2); Compose skips those combinations and they
// are reported via the second return value so callers can decide whether
// the composition is complete.
func Compose(first, second Transformation) (sigma []schema.Constraint, skipped int) {
	// Index the first transformation's rules by concluded label.
	type producer struct {
		rule Rule
		atom ConclusionAtom
	}
	byLabel := map[string][]producer{}
	for _, r := range first.Rules {
		pv := r.premiseVars()
		for _, c := range r.Conclusion {
			if !pv[c.From] || !pv[c.To] {
				// Existential endpoint: composing through it needs
				// second-order logic; handled by the caller via `skipped`.
				continue
			}
			byLabel[c.Label] = append(byLabel[c.Label], producer{rule: r, atom: c})
		}
	}

	freshID := 0
	for _, r := range second.Rules {
		norm := normalizeRulePremise(r)
		// Each choice assigns one producer to each premise atom.
		var atoms []normAtom
		atoms = norm
		var build func(i int, acc []schema.Atom, ok bool)
		build = func(i int, acc []schema.Atom, ok bool) {
			if !ok {
				skipped++
				return
			}
			if i == len(atoms) {
				for _, c := range r.Conclusion {
					sigma = append(sigma, schema.Constraint{
						Name:       fmt.Sprintf("%s∘%s/%s→%s", second.Name, first.Name, r.Name, c.Label),
						Premise:    append([]schema.Atom(nil), acc...),
						Conclusion: schema.Atom{From: c.From, Path: rre.Label(c.Label), To: c.To},
					})
				}
				return
			}
			a := atoms[i]
			prods := byLabel[a.label]
			if len(prods) == 0 {
				build(i+1, acc, false)
				return
			}
			for _, p := range prods {
				freshID++
				sub := substitutePremise(p.rule.Premise, map[schema.Var]schema.Var{
					p.atom.From: a.from,
					p.atom.To:   a.to,
				}, fmt.Sprintf("c%d", freshID))
				build(i+1, append(acc, sub...), true)
			}
		}
		build(0, nil, true)
	}
	return sigma, skipped
}

// normAtom is a premise atom reduced to a single forward label.
type normAtom struct {
	from, to schema.Var
	label    string
}

// normalizeRulePremise splits concatenations and flips reversed labels so
// every premise atom is a single forward label.
func normalizeRulePremise(r Rule) []normAtom {
	c := schema.Constraint{Name: r.Name, Premise: r.Premise,
		Conclusion: schema.Atom{From: "x", Path: rre.Label("_"), To: "y"}}
	n := c.NormalizePremise()
	out := make([]normAtom, 0, len(n.Premise))
	for _, a := range n.Premise {
		p := a.Path
		switch p.Kind() {
		case rre.KindLabel:
			out = append(out, normAtom{from: a.From, to: a.To, label: p.LabelName()})
		case rre.KindRev:
			out = append(out, normAtom{from: a.To, to: a.From, label: p.Subs()[0].LabelName()})
		default:
			panic(fmt.Sprintf("mapping: premise atom %s is not a single-label RPQ after normalization", a))
		}
	}
	return out
}

// substitutePremise renames the variables of a rule premise: variables in
// ren map to their images, all others get fresh names with the given
// suffix (so premises substituted for different atoms never collide).
func substitutePremise(premise []schema.Atom, ren map[schema.Var]schema.Var, suffix string) []schema.Atom {
	renameVar := func(v schema.Var) schema.Var {
		if img, ok := ren[v]; ok {
			return img
		}
		return schema.Var(fmt.Sprintf("%s_%s", v, suffix))
	}
	out := make([]schema.Atom, len(premise))
	for i, a := range premise {
		out[i] = schema.Atom{From: renameVar(a.From), Path: a.Path, To: renameVar(a.To)}
	}
	return out
}

// SatisfiesComposition reports whether I ⊨ σ for σ = inv ∘ t, the
// necessary condition of Proposition 1 for Σ to be invertible on I.
func SatisfiesComposition(g *graph.Graph, t, inv Transformation) bool {
	sigma, _ := Compose(t, inv)
	ev := eval.New(g)
	for _, c := range sigma {
		if len(schema.CheckConstraint(ev, c, 1)) > 0 {
			return false
		}
	}
	return true
}

// SatisfiesSigmaStar reports whether I ⊨ σ* (Proposition 2): for every
// edge (u, l, v) of I where l is concluded by some constraint of σ, at
// least one of the premises χ_i concluding l must hold with (u, v); and
// no edge may carry a label that σ never concludes.
func SatisfiesSigmaStar(g *graph.Graph, sigma []schema.Constraint) bool {
	ev := eval.New(g)
	byLabel := map[string][]schema.Constraint{}
	for _, c := range sigma {
		l, ok := c.ConclusionLabel()
		if !ok {
			return false
		}
		// Canonicalize reversed conclusions (x, l⁻, y) to (y, l, x) by
		// swapping the conclusion variables (σ* construction, §3.2.2).
		if c.Conclusion.Path.Kind() == rre.KindRev {
			c.Conclusion = schema.Atom{From: c.Conclusion.To, Path: rre.Label(l), To: c.Conclusion.From}
		}
		byLabel[l] = append(byLabel[l], c)
	}
	ok := true
	g.Snapshot().EachEdge(func(e graph.Edge) {
		if !ok {
			return
		}
		cs := byLabel[e.Label]
		if len(cs) == 0 {
			ok = false // (x, l', y) → FALSE for labels σ never concludes
			return
		}
		for _, c := range cs {
			if premiseHoldsAt(ev, c, e.From, e.To) {
				return
			}
		}
		ok = false
	})
	return ok
}

// premiseHoldsAt reports whether the premise of c admits a binding with
// the conclusion variables fixed to (u, v).
func premiseHoldsAt(ev *eval.Evaluator, c schema.Constraint, u, v graph.NodeID) bool {
	initial := map[schema.Var]graph.NodeID{c.Conclusion.From: u, c.Conclusion.To: v}
	if c.Conclusion.From == c.Conclusion.To && u != v {
		return false
	}
	found := false
	schema.EnumerateBindingsWith(ev, c.Premise, initial, func(map[schema.Var]graph.NodeID) bool {
		found = true
		return false
	})
	return found
}

// Invertible reports whether t is invertible on instance g with the
// candidate inverse inv, combining the Proposition 2 characterization
// (I ⊨ σ ∧ σ*) with the constructive round-trip check.
func Invertible(g *graph.Graph, t, inv Transformation) bool {
	sigma, _ := Compose(t, inv)
	if !SatisfiesComposition(g, t, inv) {
		return false
	}
	if !SatisfiesSigmaStar(g, sigma) {
		return false
	}
	return VerifyInverse(g, t, inv)
}
