// Package mapping implements schema mappings / transformations (paper §3).
//
// A transformation Σ_ST from schema S to schema T is a finite set of
// rules φ_S(x̄) → ψ_T(ȳ) where the premise is a conjunctive RPQ over S
// and the conclusion is a conjunction of single-label atoms over T whose
// variables are either universally quantified (from the premise) or
// existential. Applying a transformation uses the closed-world semantics
// of §3.2.1: the output contains exactly the edges derivable from the
// rules. Existential variables mint fresh nodes, one per distinct binding
// of the universal variables that appear in the conclusion, making Apply
// deterministic.
//
// The package also implements rule composition into source-schema tgds
// (Proposition 1: I ⊨ Σ⁻¹ ∘ Σ), the σ* construction and check of
// Proposition 2, a constructive invertibility verification (round trip
// Σ⁻¹(Σ(I)) = I), and the Theorem 2 pattern rewriting M that maps a
// pattern over S to an instance-count-equivalent pattern over T.
package mapping

import (
	"fmt"
	"sort"
	"strings"

	"relsim/internal/eval"
	"relsim/internal/graph"
	"relsim/internal/schema"
)

// ConclusionAtom is a single concluded edge (From, Label, To). Variables
// that do not occur in the rule premise are existential.
type ConclusionAtom struct {
	From  schema.Var
	Label string
	To    schema.Var
}

func (a ConclusionAtom) String() string {
	return fmt.Sprintf("(%s, %s, %s)", a.From, a.Label, a.To)
}

// Rule is one mapping rule φ_S(x̄) → ψ_T(ȳ).
type Rule struct {
	Name       string
	Premise    []schema.Atom
	Conclusion []ConclusionAtom
}

// premiseVars returns the set of universally quantified variables.
func (r Rule) premiseVars() map[schema.Var]bool {
	vs := map[schema.Var]bool{}
	for _, a := range r.Premise {
		vs[a.From] = true
		vs[a.To] = true
	}
	return vs
}

// ExistentialVars returns the sorted conclusion variables that do not
// appear in the premise.
func (r Rule) ExistentialVars() []schema.Var {
	pv := r.premiseVars()
	set := map[schema.Var]bool{}
	for _, c := range r.Conclusion {
		if !pv[c.From] {
			set[c.From] = true
		}
		if !pv[c.To] {
			set[c.To] = true
		}
	}
	out := make([]schema.Var, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HasExistentials reports whether the rule mints fresh nodes.
func (r Rule) HasExistentials() bool { return len(r.ExistentialVars()) > 0 }

func (r Rule) String() string {
	ps := make([]string, len(r.Premise))
	for i, a := range r.Premise {
		ps[i] = a.String()
	}
	cs := make([]string, len(r.Conclusion))
	for i, a := range r.Conclusion {
		cs[i] = a.String()
	}
	return fmt.Sprintf("%s: %s -> %s", r.Name, strings.Join(ps, " ∧ "), strings.Join(cs, " ∧ "))
}

// Transformation is a named set of mapping rules.
type Transformation struct {
	Name  string
	Rules []Rule
}

// Identity returns the rule (x, l, y) → (x, l, y) that copies label l.
func Identity(l string) Rule {
	return Rule{
		Name:       "copy-" + l,
		Premise:    []schema.Atom{schema.At("x", l, "y")},
		Conclusion: []ConclusionAtom{{From: "x", Label: l, To: "y"}},
	}
}

// Identities returns copy rules for each label.
func Identities(labels ...string) []Rule {
	rs := make([]Rule, len(labels))
	for i, l := range labels {
		rs[i] = Identity(l)
	}
	return rs
}

// TargetLabels returns the sorted set of labels produced by the rules.
func (t Transformation) TargetLabels() []string {
	set := map[string]bool{}
	for _, r := range t.Rules {
		for _, c := range r.Conclusion {
			set[c.Label] = true
		}
	}
	ls := make([]string, 0, len(set))
	for l := range set {
		ls = append(ls, l)
	}
	sort.Strings(ls)
	return ls
}

// Apply materializes the transformed database Σ(I) under closed-world
// semantics. All source nodes keep their ids and metadata in the output
// (Theorem 2 assumes node ids persist across a transformation); fresh
// nodes for existential variables are appended after them, one per rule
// per distinct binding of the universal variables occurring in the
// rule's conclusion. Edges are produced with set semantics: applying two
// bindings that conclude the same (u, l, v) yields a single edge,
// matching the paper's definition of E ⊆ V × L × V.
func (t Transformation) Apply(src *graph.Graph) *graph.Graph {
	ev := eval.New(src)
	out := graph.New()
	for i := 0; i < src.NumNodes(); i++ {
		n := src.Node(graph.NodeID(i))
		out.AddNode(n.Name, n.Type)
	}

	type edgeKey struct {
		u graph.NodeID
		l string
		v graph.NodeID
	}
	edgeSet := map[edgeKey]bool{}
	addEdge := func(u graph.NodeID, l string, v graph.NodeID) {
		k := edgeKey{u, l, v}
		if edgeSet[k] {
			return
		}
		edgeSet[k] = true
		out.AddEdge(u, l, v)
	}

	for _, r := range t.Rules {
		exVars := r.ExistentialVars()
		// Universal variables appearing in the conclusion determine the
		// identity of minted nodes: one fresh node per existential variable
		// per distinct tuple of those universals.
		var keyVars []schema.Var
		pv := r.premiseVars()
		seenKV := map[schema.Var]bool{}
		for _, c := range r.Conclusion {
			for _, v := range []schema.Var{c.From, c.To} {
				if pv[v] && !seenKV[v] {
					seenKV[v] = true
					keyVars = append(keyVars, v)
				}
			}
		}
		sort.Slice(keyVars, func(i, j int) bool { return keyVars[i] < keyVars[j] })

		// Collect bindings first and sort them so fresh-node ids are
		// deterministic regardless of map iteration order.
		var bindings []map[schema.Var]graph.NodeID
		schema.EnumerateBindings(ev, r.Premise, func(b map[schema.Var]graph.NodeID) bool {
			c := make(map[schema.Var]graph.NodeID, len(b))
			for k, v := range b {
				c[k] = v
			}
			bindings = append(bindings, c)
			return true
		})
		sort.Slice(bindings, func(i, j int) bool {
			for _, v := range keyVars {
				if bindings[i][v] != bindings[j][v] {
					return bindings[i][v] < bindings[j][v]
				}
			}
			// Fall back to full-variable comparison for stability.
			return bindingLess(bindings[i], bindings[j])
		})

		fresh := map[string]graph.NodeID{}
		for _, b := range bindings {
			full := make(map[schema.Var]graph.NodeID, len(b)+len(exVars))
			for k, v := range b {
				full[k] = v
			}
			if len(exVars) > 0 {
				key := bindingKey(b, keyVars)
				for _, xv := range exVars {
					fk := string(xv) + "|" + key
					id, ok := fresh[fk]
					if !ok {
						id = out.AddNode("", "∃"+string(xv))
						fresh[fk] = id
					}
					full[xv] = id
				}
			}
			for _, c := range r.Conclusion {
				u, uok := full[c.From]
				v, vok := full[c.To]
				if !uok || !vok {
					panic(fmt.Sprintf("mapping: rule %s conclusion uses unbound variable", r.Name))
				}
				addEdge(u, c.Label, v)
			}
		}
	}
	return out
}

func bindingKey(b map[schema.Var]graph.NodeID, vars []schema.Var) string {
	parts := make([]string, len(vars))
	for i, v := range vars {
		parts[i] = fmt.Sprintf("%s=%d", v, b[v])
	}
	return strings.Join(parts, ",")
}

func bindingLess(a, b map[schema.Var]graph.NodeID) bool {
	ks := make([]string, 0, len(a))
	for k := range a {
		ks = append(ks, string(k))
	}
	sort.Strings(ks)
	for _, k := range ks {
		av, bv := a[schema.Var(k)], b[schema.Var(k)]
		if av != bv {
			return av < bv
		}
	}
	return false
}

// VerifyInverse checks constructively that inv is an inverse of t on the
// instance src: Σ⁻¹(Σ(src)) must contain exactly the edges of src over
// the original node ids (fresh nodes minted by Σ carry no edges back).
// This is the operational meaning of Definition 1's invertibility on a
// single database.
func VerifyInverse(src *graph.Graph, t, inv Transformation) bool {
	s, k := src.Snapshot(), inv.Apply(t.Apply(src)).Snapshot()
	// k has at least s.NumNodes() nodes (ids preserved), possibly plus
	// fresh nodes from Σ(src) that survived as isolated nodes. Compare
	// the edge multisets over the original id range.
	if k.NumEdges() != s.NumEdges() {
		return false
	}
	equal := true
	k.EachEdge(func(e graph.Edge) {
		if !s.HasEdge(e.From, e.Label, e.To) {
			equal = false
		}
	})
	if !equal {
		return false
	}
	s.EachEdge(func(e graph.Edge) {
		if !k.HasEdge(e.From, e.Label, e.To) {
			equal = false
		}
	})
	return equal
}
