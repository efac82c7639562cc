package eval

import (
	"fmt"
	"strconv"
	"strings"

	"relsim/internal/graph"
	"relsim/internal/rre"
)

// Instance is one recorded RRE traversal (u, v, s) per the paper's §4.2
// instance semantics: the sequence alternates node ids with edge labels,
// pattern strings (for skip steps), or the "↩" marker for the jump back
// at the end of a nested traversal.
type Instance struct {
	From, To graph.NodeID
	Seq      []string
}

// String renders the instance sequence, e.g. "0 -a→ 3 -<b.c>→ 5".
func (in Instance) String() string {
	return strings.Join(in.Seq, " ")
}

// Render renders the instance for display, substituting node names for
// node-id entries where available. An entry is a node id only if the
// whole token parses as an integer — "12x" is a label, not node 12.
func (in Instance) Render(g *graph.Snapshot) string {
	parts := make([]string, len(in.Seq))
	for i, s := range in.Seq {
		parts[i] = s
		if id, err := strconv.ParseInt(s, 10, 32); err == nil && g.Has(graph.NodeID(id)) {
			if name := g.Node(graph.NodeID(id)).Name; name != "" {
				parts[i] = name
			}
		}
	}
	return strings.Join(parts, " → ")
}

// Instances enumerates up to limit instances of p from u to v,
// materializing the recorded traversal sequences. It is the "explain"
// counterpart of CountInstances: for star-free patterns the number of
// enumerated instances equals the instance count (Kleene star collapses
// to a single reachability witness, matching the boolean semantics of
// Commuting). A non-positive limit enumerates everything; a positive one
// bounds the work, not only the answer: Instances(p, u, v, L) is the
// first L of Instances(p, u, v, 0), and no factor of a product is
// enumerated past the room the limit leaves.
func (e *Evaluator) Instances(p *rre.Pattern, u, v graph.NodeID, limit int) []Instance {
	en := &instanceEnum{e: e, limit: limit}
	seqs := en.enum(p, u, v)
	out := make([]Instance, len(seqs))
	for i, s := range seqs {
		out[i] = Instance{From: u, To: v, Seq: s}
	}
	return out
}

type instanceEnum struct {
	e     *Evaluator
	limit int
	count int
}

// full reports whether the limit leaves no room once pending instances
// not yet taken are.
func (en *instanceEnum) full(pending int) bool {
	return en.limit > 0 && en.count+pending >= en.limit
}

// factor enumerates the instances of one factor of a product that has
// pending instances not yet taken. No factor contributes more instances
// to the product than the room the limit leaves, so it enumerates no
// more than that; without a limit it enumerates everything. Its count
// is its own: the product is charged when it is taken.
func (en *instanceEnum) factor(p *rre.Pattern, u, v graph.NodeID, pending int) [][]string {
	sub := &instanceEnum{e: en.e}
	if en.limit > 0 {
		sub.limit = en.limit - en.count - pending
	}
	return sub.enum(p, u, v)
}

func (en *instanceEnum) take(seqs [][]string) [][]string {
	if en.limit <= 0 {
		en.count += len(seqs)
		return seqs
	}
	room := en.limit - en.count
	if room <= 0 {
		return nil
	}
	if len(seqs) > room {
		seqs = seqs[:room]
	}
	en.count += len(seqs)
	return seqs
}

func node(id graph.NodeID) string { return fmt.Sprintf("%d", id) }

func (en *instanceEnum) enum(p *rre.Pattern, u, v graph.NodeID) [][]string {
	if en.full(0) {
		return nil
	}
	g := en.e.Graph()
	switch p.Kind() {
	case rre.KindEps:
		if u == v {
			return en.take([][]string{{node(u)}})
		}
		return nil
	case rre.KindLabel:
		n := g.EdgeCount(u, p.LabelName(), v)
		var out [][]string
		for i := 0; i < n; i++ {
			out = append(out, []string{node(u), p.LabelName(), node(v)})
		}
		return en.take(out)
	case rre.KindRev:
		saved := en.count
		inner := en.enum(p.Subs()[0], v, u)
		en.count = saved
		var out [][]string
		for _, s := range inner {
			out = append(out, reverseSeq(s))
		}
		return en.take(out)
	case rre.KindConcat:
		subs := p.Subs()
		head, tail := subs[0], rre.Concat(subs[1:]...)
		var out [][]string
		// The commuting matrix's row u lists the midpoints w with an
		// instance of head from u, ascending.
		ws, _ := en.e.Commuting(head).RowView(int(u))
		for _, w := range ws {
			if en.full(len(out)) {
				break
			}
			hs := en.factor(head, u, graph.NodeID(w), len(out))
			ts := en.factor(tail, graph.NodeID(w), v, len(out))
		product:
			for _, h := range hs {
				for _, t := range ts {
					if en.full(len(out)) {
						break product
					}
					out = append(out, joinSeq(h, t))
				}
			}
		}
		return en.take(out)
	case rre.KindAlt:
		var out [][]string
		for _, s := range p.Subs() {
			out = append(out, en.enum(s, u, v)...)
		}
		return out
	case rre.KindStar:
		if en.e.Commuting(p).At(int(u), int(v)) > 0 {
			return en.take([][]string{{node(u), p.String(), node(v)}})
		}
		return nil
	case rre.KindSkip:
		if en.e.Commuting(p).At(int(u), int(v)) > 0 {
			return en.take([][]string{{node(u), p.StripSkips().String(), node(v)}})
		}
		return nil
	case rre.KindNest:
		if u != v {
			return nil
		}
		inner := p.Subs()[0]
		var out [][]string
		ws, _ := en.e.Commuting(inner).RowView(int(u))
		for _, w := range ws {
			if en.full(len(out)) {
				break
			}
			for _, s := range en.factor(inner, u, graph.NodeID(w), len(out)) {
				out = append(out, append(append([]string{}, s...), "↩", node(u)))
			}
		}
		return en.take(out)
	}
	return nil
}

// joinSeq implements the paper's s • t: defined when the last entry of s
// equals the first of t; the shared node appears once.
func joinSeq(s, t []string) []string {
	out := make([]string, 0, len(s)+len(t)-1)
	out = append(out, s...)
	out = append(out, t[1:]...)
	return out
}

// reverseSeq implements the paper's s̄: entries reversed, labels marked
// with the reversal suffix, nodes unchanged.
func reverseSeq(s []string) []string {
	out := make([]string, len(s))
	for i := range s {
		e := s[len(s)-1-i]
		if i%2 == 1 { // label positions in the alternating sequence
			if strings.HasSuffix(e, "-") {
				e = strings.TrimSuffix(e, "-")
			} else {
				e += "-"
			}
		}
		out[i] = e
	}
	return out
}
