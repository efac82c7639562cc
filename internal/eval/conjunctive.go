package eval

import (
	"fmt"
	"sort"
	"strings"

	"relsim/internal/graph"
	"relsim/internal/rre"
)

// ConjunctivePattern is the conjunctive RRE extension sketched in §4.2:
// a conjunction of RRE atoms over shared variables with two designated
// endpoint variables. The paper notes that cyclic tgd premises cannot be
// rewritten into a single RRE — the shared variable must be named — and
// that Theorem 2 extends to general tgds once conjunction is added to
// the relationship language. A ConjunctivePattern relates the bindings
// of From and To; its instance count for a node pair (u, v) is the
// number of bindings of the remaining variables under which every atom
// has at least one instance, weighted by the product of the atoms'
// instance counts.
type ConjunctivePattern struct {
	// Atoms are the conjuncts (z, p, z') with RRE paths.
	Atoms []ConjAtom
	// From and To are the designated endpoint variables.
	From, To string
}

// ConjAtom is one conjunct of a conjunctive RRE.
type ConjAtom struct {
	From string
	Path *rre.Pattern
	To   string
}

// String renders the conjunctive pattern.
func (c ConjunctivePattern) String() string {
	parts := make([]string, len(c.Atoms))
	for i, a := range c.Atoms {
		parts[i] = fmt.Sprintf("(%s, %s, %s)", a.From, a.Path, a.To)
	}
	return fmt.Sprintf("%s ⇒ (%s,%s)", strings.Join(parts, " ∧ "), c.From, c.To)
}

// Vars returns the sorted variable names used by the pattern.
func (c ConjunctivePattern) Vars() []string {
	set := map[string]bool{c.From: true, c.To: true}
	for _, a := range c.Atoms {
		set[a.From] = true
		set[a.To] = true
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Validate reports an error if the pattern is malformed (no atoms, or an
// endpoint variable not used by any atom).
func (c ConjunctivePattern) Validate() error {
	if len(c.Atoms) == 0 {
		return fmt.Errorf("eval: conjunctive pattern has no atoms")
	}
	used := map[string]bool{}
	for _, a := range c.Atoms {
		if a.Path == nil {
			return fmt.Errorf("eval: conjunctive atom (%s,·,%s) has nil path", a.From, a.To)
		}
		used[a.From] = true
		used[a.To] = true
	}
	if !used[c.From] || !used[c.To] {
		return fmt.Errorf("eval: endpoint variables %s/%s must occur in an atom", c.From, c.To)
	}
	return nil
}

// ConjunctiveCount returns the instance count of the conjunctive pattern
// between u and v: Σ over bindings b with b[From]=u, b[To]=v of
// Π_atoms |I^{b(z),b(z')}(p)|. For a single chain of atoms this
// coincides with the concatenation count of Proposition 3(3).
func (e *Evaluator) ConjunctiveCount(c ConjunctivePattern, u, v graph.NodeID) (int64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	return e.conjCount(c, u, v), nil
}

func (e *Evaluator) conjCount(c ConjunctivePattern, u, v graph.NodeID) int64 {
	// Order atoms so each extends the bound frontier when possible.
	atoms := append([]ConjAtom(nil), c.Atoms...)
	ordered := make([]ConjAtom, 0, len(atoms))
	bound := map[string]bool{c.From: true, c.To: true}
	used := make([]bool, len(atoms))
	for len(ordered) < len(atoms) {
		pick := -1
		for i, a := range atoms {
			if used[i] {
				continue
			}
			if bound[a.From] || bound[a.To] {
				pick = i
				break
			}
		}
		if pick == -1 {
			for i := range atoms {
				if !used[i] {
					pick = i
					break
				}
			}
		}
		used[pick] = true
		ordered = append(ordered, atoms[pick])
		bound[atoms[pick].From] = true
		bound[atoms[pick].To] = true
	}

	binding := map[string]graph.NodeID{c.From: u, c.To: v}
	n := e.g.NumNodes()
	var rec func(k int) int64
	rec = func(k int) int64 {
		if k == len(ordered) {
			return 1
		}
		a := ordered[k]
		m := e.Commuting(a.Path)
		fv, fok := binding[a.From]
		tv, tok := binding[a.To]
		if a.From == a.To {
			// A self-loop atom constrains one variable: both endpoints
			// share its binding.
			if fok {
				tv, tok = fv, true
			}
		}
		switch {
		case fok && tok:
			cnt := m.At(int(fv), int(tv))
			if cnt == 0 {
				return 0
			}
			return cnt * rec(k+1)
		case fok:
			var total int64
			m.Row(int(fv), func(col int, val int64) {
				if val <= 0 {
					return
				}
				if a.From == a.To && graph.NodeID(col) != fv {
					return
				}
				binding[a.To] = graph.NodeID(col)
				total += val * rec(k+1)
				delete(binding, a.To)
			})
			return total
		case tok:
			var total int64
			// Column access via the transpose of the commuting matrix.
			mt := e.Commuting(rre.Rev(a.Path))
			mt.Row(int(tv), func(col int, val int64) {
				if val <= 0 {
					return
				}
				binding[a.From] = graph.NodeID(col)
				total += val * rec(k+1)
				delete(binding, a.From)
			})
			return total
		default:
			var total int64
			for w := 0; w < n; w++ {
				binding[a.From] = graph.NodeID(w)
				m.Row(w, func(col int, val int64) {
					if val <= 0 {
						return
					}
					if a.From == a.To && col != w {
						return
					}
					binding[a.To] = graph.NodeID(col)
					total += val * rec(k+1)
					delete(binding, a.To)
				})
				delete(binding, a.From)
			}
			return total
		}
	}
	return rec(0)
}

// ConjunctivePathSim scores Equation 1 over a conjunctive pattern:
// 2·c(u,v) / (c(u,u) + c(v,v)).
func (e *Evaluator) ConjunctivePathSim(c ConjunctivePattern, u, v graph.NodeID) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	den := e.conjCount(c, u, u) + e.conjCount(c, v, v)
	if den == 0 {
		return 0, nil // Eq1's answer, without counting the numerator
	}
	return Eq1(e.conjCount(c, u, v), den), nil
}
