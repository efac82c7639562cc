// Package rre implements the relationship pattern languages of the paper:
// regular path queries (RPQ, §2), nested regular expressions (NRE) and
// the paper's extension, rich-relationship expressions (RRE, §4.2):
//
//	p := ε | a | p⁻ | p* | p·p | p + p | [p] | ⌈⌈p⌋⌋
//
// where a is an edge label, ⁻ reverses a traversal, · concatenates,
// + is disjunction, * is Kleene star, [p] is the nested operation and
// ⌈⌈p⌋⌋ is the skip operation.
//
// The ASCII concrete syntax used by Parse:
//
//	ε            ()
//	label        p-in       (identifiers; '-' joins ident chars)
//	reverse      p-in-      (postfix '-'; binds tightest)
//	star         p*         (postfix)
//	concat       a.b        (dot)
//	disjunction  a + b      ('+' or '|')
//	nested       [p]
//	skip         <p>
//	grouping     (p)
//
// A trailing '-' is a reverse operator; a '-' followed by an identifier
// character is part of the label, so "published-in-" parses as the
// reverse of label "published-in", matching the paper's notation.
package rre

import (
	"sort"
	"strings"
	"sync/atomic"
)

// Kind discriminates AST node types.
type Kind int

// The AST node kinds, one per production of the RRE grammar.
const (
	KindEps Kind = iota
	KindLabel
	KindRev
	KindStar
	KindConcat
	KindAlt
	KindNest
	KindSkip
)

func (k Kind) String() string {
	switch k {
	case KindEps:
		return "eps"
	case KindLabel:
		return "label"
	case KindRev:
		return "rev"
	case KindStar:
		return "star"
	case KindConcat:
		return "concat"
	case KindAlt:
		return "alt"
	case KindNest:
		return "nest"
	case KindSkip:
		return "skip"
	}
	return "invalid"
}

// Pattern is an immutable RRE AST node. Construct patterns with the
// constructor functions (Eps, Label, Rev, ...) or Parse; do not build
// Pattern values directly.
type Pattern struct {
	kind  Kind
	label string                 // KindLabel only
	subs  []*Pattern             // children: 1 for Rev/Star/Nest/Skip, ≥2 for Concat/Alt
	str   atomic.Pointer[string] // String's rendering, set on its first call
}

// Kind returns the node kind.
func (p *Pattern) Kind() Kind { return p.kind }

// LabelName returns the edge label of a KindLabel node and "" otherwise.
func (p *Pattern) LabelName() string { return p.label }

// Subs returns the children of composite nodes. The returned slice must
// not be modified.
func (p *Pattern) Subs() []*Pattern { return p.subs }

// Eps returns the empty pattern ε.
func Eps() *Pattern { return &Pattern{kind: KindEps} }

// Label returns the single-label pattern a. It panics on an empty label.
func Label(a string) *Pattern {
	if a == "" {
		panic("rre: empty label")
	}
	return &Pattern{kind: KindLabel, label: a}
}

// Rev returns p⁻, simplifying double reversal and pushing reversal
// through composites so that the canonical form has reversal only on
// labels: (p1·p2)⁻ = p2⁻·p1⁻, (p1+p2)⁻ = p1⁻+p2⁻, (p*)⁻ = (p⁻)*,
// ⌈⌈p⌋⌋⁻ = ⌈⌈p⁻⌋⌋, ε⁻ = ε. Nested patterns [p] are self-inverse
// (they relate u to u), so [p]⁻ = [p].
func Rev(p *Pattern) *Pattern {
	switch p.kind {
	case KindEps:
		return p
	case KindRev:
		return p.subs[0]
	case KindConcat:
		rs := make([]*Pattern, len(p.subs))
		for i, s := range p.subs {
			rs[len(p.subs)-1-i] = Rev(s)
		}
		return Concat(rs...)
	case KindAlt:
		rs := make([]*Pattern, len(p.subs))
		for i, s := range p.subs {
			rs[i] = Rev(s)
		}
		return Alt(rs...)
	case KindStar:
		return Star(Rev(p.subs[0]))
	case KindSkip:
		return Skip(Rev(p.subs[0]))
	case KindNest:
		return p
	}
	return &Pattern{kind: KindRev, subs: []*Pattern{p}}
}

// Star returns p*. Star of ε or of a star collapses.
func Star(p *Pattern) *Pattern {
	if p.kind == KindEps || p.kind == KindStar {
		if p.kind == KindEps {
			return p
		}
		return p
	}
	return &Pattern{kind: KindStar, subs: []*Pattern{p}}
}

// Concat returns p1·p2·…·pk, flattening nested concatenations and
// dropping ε factors. Concat() is ε.
func Concat(ps ...*Pattern) *Pattern {
	flat := make([]*Pattern, 0, len(ps))
	for _, p := range ps {
		if p == nil {
			panic("rre: nil pattern in Concat")
		}
		switch p.kind {
		case KindEps:
			// identity element
		case KindConcat:
			flat = append(flat, p.subs...)
		default:
			flat = append(flat, p)
		}
	}
	switch len(flat) {
	case 0:
		return Eps()
	case 1:
		return flat[0]
	}
	return &Pattern{kind: KindConcat, subs: flat}
}

// Alt returns p1 + p2 + … + pk, flattening nested disjunctions and
// deduplicating structurally equal alternatives (the paper's commuting
// matrix rule treats p+p as p). Alt() panics; a disjunction needs at
// least one branch.
func Alt(ps ...*Pattern) *Pattern {
	flat := make([]*Pattern, 0, len(ps))
	for _, p := range ps {
		if p == nil {
			panic("rre: nil pattern in Alt")
		}
		if p.kind == KindAlt {
			flat = append(flat, p.subs...)
		} else {
			flat = append(flat, p)
		}
	}
	if len(flat) == 0 {
		panic("rre: empty Alt")
	}
	uniq := flat[:0]
	for _, p := range flat {
		dup := false
		for _, q := range uniq {
			if p.Equal(q) {
				dup = true
				break
			}
		}
		if !dup {
			uniq = append(uniq, p)
		}
	}
	if len(uniq) == 1 {
		return uniq[0]
	}
	return &Pattern{kind: KindAlt, subs: uniq}
}

// Nest returns the nested pattern [p].
func Nest(p *Pattern) *Pattern {
	return &Pattern{kind: KindNest, subs: []*Pattern{p}}
}

// Skip returns the skip pattern ⌈⌈p⌋⌋. Skip of a skip collapses; skip of
// a bare label is the label itself (Proposition 3(2)).
func Skip(p *Pattern) *Pattern {
	switch p.kind {
	case KindSkip:
		return p
	case KindLabel, KindEps:
		return p
	case KindRev:
		if p.subs[0].kind == KindLabel {
			return p
		}
	}
	return &Pattern{kind: KindSkip, subs: []*Pattern{p}}
}

// Equal reports structural equality.
func (p *Pattern) Equal(q *Pattern) bool {
	if p == q {
		return true
	}
	if p == nil || q == nil || p.kind != q.kind || p.label != q.label || len(p.subs) != len(q.subs) {
		return false
	}
	for i := range p.subs {
		if !p.subs[i].Equal(q.subs[i]) {
			return false
		}
	}
	return true
}

// Labels returns the sorted set of distinct edge labels mentioned in p.
func (p *Pattern) Labels() []string {
	set := map[string]bool{}
	p.walk(func(n *Pattern) {
		if n.kind == KindLabel {
			set[n.label] = true
		}
	})
	ls := make([]string, 0, len(set))
	for l := range set {
		ls = append(ls, l)
	}
	sort.Strings(ls)
	return ls
}

func (p *Pattern) walk(fn func(*Pattern)) {
	fn(p)
	for _, s := range p.subs {
		s.walk(fn)
	}
}

// IsSimple reports whether p is a simple pattern in the paper's sense
// (§5): a concatenation of labels and reversed labels only — the
// meta-path fragment accepted by PathSim and by Algorithm 1.
func (p *Pattern) IsSimple() bool {
	switch p.kind {
	case KindLabel:
		return true
	case KindRev:
		return p.subs[0].kind == KindLabel
	case KindConcat:
		for _, s := range p.subs {
			if !s.IsSimple() {
				return false
			}
		}
		return true
	}
	return false
}

// SimpleSteps decomposes a simple pattern into its sequence of steps,
// each a label plus a direction. It returns ok=false if p is not simple.
type Step struct {
	Label   string
	Reverse bool
}

// Steps returns the step sequence of a simple pattern.
func (p *Pattern) Steps() ([]Step, bool) {
	if !p.IsSimple() {
		return nil, false
	}
	var steps []Step
	var emit func(q *Pattern)
	emit = func(q *Pattern) {
		switch q.kind {
		case KindLabel:
			steps = append(steps, Step{Label: q.label})
		case KindRev:
			steps = append(steps, Step{Label: q.subs[0].label, Reverse: true})
		case KindConcat:
			for _, s := range q.subs {
				emit(s)
			}
		}
	}
	emit(p)
	return steps, true
}

// FromSteps builds a simple pattern from a step sequence.
func FromSteps(steps []Step) *Pattern {
	ps := make([]*Pattern, len(steps))
	for i, s := range steps {
		ps[i] = Label(s.Label)
		if s.Reverse {
			ps[i] = Rev(ps[i])
		}
	}
	return Concat(ps...)
}

// StripSkips returns p̃: the pattern with all skip operators removed
// (used by the instance semantics of ⌈⌈p⌋⌋, where the recorded entry is
// the string of p with ⌈⌈ ⌋⌋ erased).
func (p *Pattern) StripSkips() *Pattern {
	switch p.kind {
	case KindEps, KindLabel:
		return p
	case KindSkip:
		return p.subs[0].StripSkips()
	}
	subs := make([]*Pattern, len(p.subs))
	for i, s := range p.subs {
		subs[i] = s.StripSkips()
	}
	// Rebuild through the constructors so flattening and simplification
	// invariants hold on the result.
	switch p.kind {
	case KindRev:
		return Rev(subs[0])
	case KindStar:
		return Star(subs[0])
	case KindConcat:
		return Concat(subs...)
	case KindAlt:
		return Alt(subs...)
	case KindNest:
		return Nest(subs[0])
	}
	return &Pattern{kind: p.kind, label: p.label, subs: subs}
}

// Size returns the number of AST nodes, a proxy for pattern complexity
// used by the Figure-5 scalability experiment.
func (p *Pattern) Size() int {
	n := 1
	for _, s := range p.subs {
		n += s.Size()
	}
	return n
}

// Length returns the number of label occurrences in p (the paper's
// "length of the input pattern" for simple patterns).
func (p *Pattern) Length() int {
	n := 0
	p.walk(func(q *Pattern) {
		if q.kind == KindLabel {
			n++
		}
	})
	return n
}

// String renders p in the ASCII concrete syntax accepted by Parse. The
// node is immutable, so the rendering is made once and kept: a cache
// key is rendered on the first lookup, not on every one.
func (p *Pattern) String() string {
	if s := p.str.Load(); s != nil {
		return *s
	}
	var b strings.Builder
	p.format(&b, 0)
	s := b.String()
	p.str.Store(&s)
	return s
}

// precedence levels: 0 alt, 1 concat, 2 postfix (star/rev), 3 atom
func (p *Pattern) prec() int {
	switch p.kind {
	case KindAlt:
		return 0
	case KindConcat:
		return 1
	case KindStar, KindRev:
		return 2
	}
	return 3
}

func (p *Pattern) format(b *strings.Builder, parentPrec int) {
	wrap := p.prec() < parentPrec
	if wrap {
		b.WriteByte('(')
	}
	switch p.kind {
	case KindEps:
		b.WriteString("()")
	case KindLabel:
		b.WriteString(p.label)
	case KindRev:
		p.subs[0].format(b, 2)
		b.WriteByte('-')
	case KindStar:
		p.subs[0].format(b, 2)
		b.WriteByte('*')
	case KindConcat:
		for i, s := range p.subs {
			if i > 0 {
				b.WriteByte('.')
			}
			s.format(b, 2)
		}
	case KindAlt:
		for i, s := range p.subs {
			if i > 0 {
				b.WriteString(" + ")
			}
			s.format(b, 1)
		}
	case KindNest:
		b.WriteByte('[')
		p.subs[0].format(b, 0)
		b.WriteByte(']')
	case KindSkip:
		b.WriteByte('<')
		p.subs[0].format(b, 0)
		b.WriteByte('>')
	}
	if wrap {
		b.WriteByte(')')
	}
}
