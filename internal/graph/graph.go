// Package graph implements the labeled directed multigraph database of
// paper §2: a database D over a finite label set L is a directed graph
// (V, E) with V a finite set of node ids and E ⊆ V × L × V.
//
// Nodes carry an optional human-readable name and a type tag (used by the
// dataset generators and examples; the algorithms only see ids and edge
// labels). A Graph is built and mutated; evaluation reads a Snapshot, an
// immutable version of it. Edges are stored per label in both
// directions, so a snapshot lets pattern evaluation traverse a and a⁻
// in O(degree).
package graph

import (
	"fmt"
	"sort"
)

// NodeID identifies a node. IDs are dense: a graph with n nodes uses ids
// 0..n-1, which lets commuting matrices index directly by id.
type NodeID int32

// Edge is a single labeled edge (u, label, v).
type Edge struct {
	From  NodeID
	Label string
	To    NodeID
}

// Node is the public view of a stored node.
type Node struct {
	ID   NodeID
	Name string // optional display name, e.g. "VLDB"
	Type string // optional entity type, e.g. "proc"
}

// Graph is a mutable labeled directed multigraph. The zero value is not
// usable; call New.
type Graph struct {
	nodes []Node
	// out[label][u] and in[label][v] hold neighbor lists. Parallel edges
	// are represented by repeated entries, matching the multigraph
	// semantics of adjacency matrices with counts > 1.
	out map[string][][]NodeID
	in  map[string][][]NodeID

	byName map[string]NodeID
	types  typeIndex
	edges  int
	// perLabel counts edges per label so removing the last edge of a
	// label can drop it from Labels in O(1) instead of scanning the
	// adjacency.
	perLabel map[string]int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		out:      make(map[string][][]NodeID),
		in:       make(map[string][][]NodeID),
		byName:   make(map[string]NodeID),
		types:    newTypeIndex(),
		perLabel: make(map[string]int),
	}
}

// AddNode adds a node with the given name and type and returns its id.
// Names need not be unique; only the first node with a given non-empty
// name is recorded for NodeByName lookup.
func (g *Graph) AddNode(name, typ string) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Name: name, Type: typ})
	g.types.add(id, typ)
	if name != "" {
		if _, dup := g.byName[name]; !dup {
			g.byName[name] = id
		}
	}
	return id
}

// AddEdge adds the edge (u, label, v). It panics if either endpoint does
// not exist or label is empty.
func (g *Graph) AddEdge(u NodeID, label string, v NodeID) {
	if !g.Has(u) || !g.Has(v) {
		panic(fmt.Sprintf("graph: AddEdge(%d,%q,%d) endpoint out of range (n=%d)", u, label, v, len(g.nodes)))
	}
	if label == "" {
		panic("graph: empty edge label")
	}
	o := g.out[label]
	if o == nil {
		o = make([][]NodeID, 0)
	}
	for int(u) >= len(o) {
		o = append(o, nil)
	}
	o[u] = append(o[u], v)
	g.out[label] = o
	g.perLabel[label]++

	in := g.in[label]
	if in == nil {
		in = make([][]NodeID, 0)
	}
	for int(v) >= len(in) {
		in = append(in, nil)
	}
	in[v] = append(in[v], u)
	g.in[label] = in
	g.edges++
}

// RemoveEdge removes one (u, label, v) edge and reports whether an edge
// was removed. Parallel edges are removed one occurrence at a time. When
// the last edge of a label is removed the label disappears from Labels.
func (g *Graph) RemoveEdge(u NodeID, label string, v NodeID) bool {
	if !g.Has(u) || !g.Has(v) {
		return false
	}
	o := g.out[label]
	if int(u) >= len(o) {
		return false
	}
	idx := -1
	for i, w := range o[u] {
		if w == v {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	o[u] = append(o[u][:idx], o[u][idx+1:]...)
	in := g.in[label]
	for i, w := range in[v] {
		if w == u {
			in[v] = append(in[v][:i], in[v][i+1:]...)
			break
		}
	}
	g.edges--
	g.perLabel[label]--
	if g.perLabel[label] <= 0 {
		delete(g.out, label)
		delete(g.in, label)
		delete(g.perLabel, label)
	}
	return true
}

// Has reports whether id is a node of the graph.
func (g *Graph) Has(id NodeID) bool { return id >= 0 && int(id) < len(g.nodes) }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of edges (counting parallel edges).
func (g *Graph) NumEdges() int { return g.edges }

// Node returns the node with the given id. It panics if id is invalid.
func (g *Graph) Node(id NodeID) Node {
	if !g.Has(id) {
		panic(fmt.Sprintf("graph: Node(%d) out of range (n=%d)", id, len(g.nodes)))
	}
	return g.nodes[id]
}

// NodeByName returns the first node added with the given name.
func (g *Graph) NodeByName(name string) (Node, bool) {
	id, ok := g.byName[name]
	if !ok {
		return Node{}, false
	}
	return g.nodes[id], true
}

// Labels returns the sorted set of edge labels present in the graph.
func (g *Graph) Labels() []string {
	ls := make([]string, 0, len(g.out))
	for l := range g.out {
		ls = append(ls, l)
	}
	sort.Strings(ls)
	return ls
}

// HasLabel reports whether any edge with the given label exists.
func (g *Graph) HasLabel(label string) bool { return len(g.out[label]) > 0 }

// Out returns the out-neighbors of u via label (repeated for parallel
// edges). The returned slice must not be modified.
func (g *Graph) Out(u NodeID, label string) []NodeID {
	o := g.out[label]
	if int(u) >= len(o) {
		return nil
	}
	return o[u]
}

// HasEdge reports whether at least one (u, label, v) edge exists.
func (g *Graph) HasEdge(u NodeID, label string, v NodeID) bool {
	for _, w := range g.Out(u, label) {
		if w == v {
			return true
		}
	}
	return false
}

// EdgeCount returns the number of parallel (u, label, v) edges.
func (g *Graph) EdgeCount(u NodeID, label string, v NodeID) int {
	n := 0
	for _, w := range g.Out(u, label) {
		if w == v {
			n++
		}
	}
	return n
}

// Edges returns all edges in a deterministic order (label, from, to).
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.edges)
	for _, l := range g.Labels() {
		o := g.out[l]
		for u := range o {
			for _, v := range o[u] {
				es = append(es, Edge{From: NodeID(u), Label: l, To: v})
			}
		}
	}
	return es
}

// EachEdge calls fn for every edge, grouped by label then source node.
func (g *Graph) EachEdge(fn func(e Edge)) {
	for _, l := range g.Labels() {
		o := g.out[l]
		for u := range o {
			for _, v := range o[u] {
				fn(Edge{From: NodeID(u), Label: l, To: v})
			}
		}
	}
}

// Degree returns the total degree (in + out, across all labels) of u.
func (g *Graph) Degree(u NodeID) int {
	d := 0
	for _, o := range g.out {
		if int(u) < len(o) {
			d += len(o[u])
		}
	}
	for _, in := range g.in {
		if int(u) < len(in) {
			d += len(in[u])
		}
	}
	return d
}

// NodesOfType returns the ids of all nodes with the given type tag, in
// ascending id order. The slice is the graph's own index: read-only.
func (g *Graph) NodesOfType(typ string) []NodeID { return g.types.nodes[typ] }

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New()
	c.nodes = append([]Node(nil), g.nodes...)
	for name, id := range g.byName {
		c.byName[name] = id
	}
	c.types = g.types.forWrite()
	for l, o := range g.out {
		co := make([][]NodeID, len(o))
		for u := range o {
			co[u] = append([]NodeID(nil), o[u]...)
		}
		c.out[l] = co
	}
	for l, in := range g.in {
		ci := make([][]NodeID, len(in))
		for v := range in {
			ci[v] = append([]NodeID(nil), in[v]...)
		}
		c.in[l] = ci
	}
	c.edges = g.edges
	for l, n := range g.perLabel {
		c.perLabel[l] = n
	}
	return c
}

// Equal reports whether g and o have identical node sets (ids, names,
// types) and identical edge multisets.
func (g *Graph) Equal(o *Graph) bool {
	if len(g.nodes) != len(o.nodes) || g.edges != o.edges {
		return false
	}
	for i := range g.nodes {
		if g.nodes[i] != o.nodes[i] {
			return false
		}
	}
	return edgeMultisetEqual(g, o)
}

// EqualEdges reports whether g and o have the same node count and the
// same edge multiset, ignoring node names and types. This is the notion
// of database equality used by invertibility round-trip checks, where a
// reconstructed database preserves ids but not display metadata.
func (g *Graph) EqualEdges(o *Graph) bool {
	if len(g.nodes) != len(o.nodes) || g.edges != o.edges {
		return false
	}
	return edgeMultisetEqual(g, o)
}

func edgeMultisetEqual(g, o *Graph) bool {
	if len(g.out) != len(o.out) {
		// Labels with zero edges are never stored, so map sizes must match.
		gl, ol := 0, 0
		for _, adj := range g.out {
			for _, ns := range adj {
				gl += len(ns)
			}
		}
		for _, adj := range o.out {
			for _, ns := range adj {
				ol += len(ns)
			}
		}
		if gl != ol {
			return false
		}
	}
	for l, adj := range g.out {
		oAdj := o.out[l]
		for u := range adj {
			var ov []NodeID
			if u < len(oAdj) {
				ov = oAdj[u]
			}
			if !sameMultiset(adj[u], ov) {
				return false
			}
		}
	}
	for l, adj := range o.out {
		gAdj := g.out[l]
		for u := range adj {
			var gv []NodeID
			if u < len(gAdj) {
				gv = gAdj[u]
			}
			if !sameMultiset(adj[u], gv) {
				return false
			}
		}
	}
	return true
}

func sameMultiset(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]NodeID(nil), a...)
	bs := append([]NodeID(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// Stats summarizes a graph for logging and the bench harness.
type Stats struct {
	Nodes, Edges int
	Labels       []string
}

// Stats returns the graph's summary statistics.
func (g *Graph) Stats() Stats {
	return Stats{Nodes: g.NumNodes(), Edges: g.NumEdges(), Labels: g.Labels()}
}

// String implements fmt.Stringer with a short summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{nodes=%d edges=%d labels=%d}", g.NumNodes(), g.NumEdges(), len(g.out))
}
