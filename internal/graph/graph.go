// Package graph implements the labeled directed multigraph database of
// paper §2: a database D over a finite label set L is a directed graph
// (V, E) with V a finite set of node ids and E ⊆ V × L × V.
//
// Nodes carry an optional human-readable name and a type tag (used by the
// dataset generators and examples; the algorithms only see ids and edge
// labels). A Snapshot is one immutable version of a database, and the
// only one evaluation reads: edges are stored per label in both
// directions, so pattern evaluation traverses a and a⁻ in O(degree). A
// Builder derives the next version from one copy-on-write, and a Graph
// is a database under construction: its latest version and a Builder
// holding the writes since.
package graph

import (
	"slices"
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

// Graph is a labeled directed multigraph under construction: the
// snapshot last built and a Builder holding the writes since. Snapshot
// builds the pending writes and caches the version until the next
// write, so a write costs what Builder.Build costs, and loading a
// database is one build over the empty snapshot. The zero value is not
// usable; call New.
//
// A Graph is single-writer state. Snapshot, and every read that goes
// through it, builds the pending writes, so it counts as a write while
// any are pending; with none pending, every read is safe to share.
type Graph struct {
	snap *Snapshot
	b    *Builder // the writes since snap; nil when there are none
}

// New returns an empty graph.
func New() *Graph { return &Graph{snap: emptySnapshot()} }

func (g *Graph) builder() *Builder {
	if g.b == nil {
		g.b = NewBuilder(g.snap)
	}
	return g.b
}

// AddNode adds a node with the given name and type and returns its id.
// Names need not be unique; only the first node with a given non-empty
// name is recorded for NodeByName lookup.
func (g *Graph) AddNode(name, typ string) NodeID { return g.builder().AddNode(name, typ) }

// AddEdge adds the edge (u, label, v). It panics if either endpoint does
// not exist or label is empty.
func (g *Graph) AddEdge(u NodeID, label string, v NodeID) {
	if err := g.builder().AddEdge(u, label, v); err != nil {
		panic(err.Error())
	}
}

// RemoveEdge removes one (u, label, v) edge and reports whether an edge
// was removed. Parallel edges are removed one occurrence at a time. When
// the last edge of a label is removed the label disappears from the
// next snapshot's Labels.
func (g *Graph) RemoveEdge(u NodeID, label string, v NodeID) bool {
	return g.builder().RemoveEdge(u, label, v)
}

// Snapshot returns the graph's current version, building the pending
// writes first. The graph may keep changing afterwards; the snapshot is
// unaffected.
func (g *Graph) Snapshot() *Snapshot {
	if g.b != nil {
		g.snap, g.b = g.b.Build(), nil
	}
	return g.snap
}

// Has, NumNodes, NodeByName and EdgeCount are the reads a writer makes
// between writes: they see the pending writes without building them.

// Has reports whether id is a node of the graph.
func (g *Graph) Has(id NodeID) bool { return id >= 0 && int(id) < g.NumNodes() }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int {
	if g.b != nil {
		return g.b.NumNodes()
	}
	return g.snap.NumNodes()
}

// NodeByName returns the first node added with the given name.
func (g *Graph) NodeByName(name string) (Node, bool) {
	if g.b != nil {
		return g.b.NodeByName(name)
	}
	return g.snap.NodeByName(name)
}

// EdgeCount returns the number of parallel (u, label, v) edges.
func (g *Graph) EdgeCount(u NodeID, label string, v NodeID) int {
	if g.b != nil {
		return g.b.EdgeCount(u, label, v)
	}
	return g.snap.EdgeCount(u, label, v)
}

// Node returns the node with the given id from the current snapshot. It
// panics if id is invalid.
func (g *Graph) Node(id NodeID) Node { return g.Snapshot().Node(id) }

// NodesOfType returns the ids of all nodes with the given type tag, in
// ascending id order, from the current snapshot: read-only.
func (g *Graph) NodesOfType(typ string) []NodeID { return g.Snapshot().NodesOfType(typ) }

// Equal reports whether g and o have identical node sets (ids, names,
// types) and identical edge multisets.
func (g *Graph) Equal(o *Graph) bool {
	s, t := g.Snapshot(), o.Snapshot()
	return slices.Equal(s.nodes, t.nodes) && s.sameEdges(t)
}

// EqualEdges reports whether g and o have the same node count and the
// same edge multiset, ignoring node names and types. This is the notion
// of database equality used by invertibility round-trip checks, where a
// reconstructed database preserves ids but not display metadata.
func (g *Graph) EqualEdges(o *Graph) bool {
	s, t := g.Snapshot(), o.Snapshot()
	return s.NumNodes() == t.NumNodes() && s.sameEdges(t)
}
