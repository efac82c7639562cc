package graph

import "relsim/internal/sparse"

// View is the read-only graph interface shared by the mutable *Graph
// and the immutable *Snapshot. Evaluation, similarity scoring and
// request handling are written against View, so the same code serves
// both the offline pipeline (one mutable graph, no concurrency) and the
// MVCC serving path (per-request immutable snapshots).
type View interface {
	// NumNodes returns the number of nodes.
	NumNodes() int
	// NumEdges returns the number of edges (counting parallel edges).
	NumEdges() int
	// Has reports whether id is a node.
	Has(id NodeID) bool
	// Node returns the node with the given id; it panics if id is invalid.
	Node(id NodeID) Node
	// NodeByName returns the first node added with the given name.
	NodeByName(name string) (Node, bool)
	// Labels returns the sorted set of edge labels present.
	Labels() []string
	// HasLabel reports whether any edge with the given label exists.
	HasLabel(label string) bool
	// Out returns the out-neighbors of u via label. Read-only.
	Out(u NodeID, label string) []NodeID
	// In returns the in-neighbors of v via label. Read-only.
	In(v NodeID, label string) []NodeID
	// HasEdge reports whether at least one (u, label, v) edge exists.
	HasEdge(u NodeID, label string, v NodeID) bool
	// EdgeCount returns the number of parallel (u, label, v) edges.
	EdgeCount(u NodeID, label string, v NodeID) int
	// Degree returns the total degree (in + out, all labels) of u.
	Degree(u NodeID) int
	// NodesOfType returns the ids of all nodes with the given type tag.
	NodesOfType(typ string) []NodeID
	// TypeDomain returns the domain of the nodes with the given type
	// tag, which tests a node in O(1); no node when none has the tag.
	TypeDomain(typ string) Domain
	// Adjacency returns the n×n adjacency matrix of the label.
	Adjacency(label string) *sparse.Matrix
	// Stats returns summary statistics.
	Stats() Stats
}

var (
	_ View = (*Graph)(nil)
	_ View = (*Snapshot)(nil)
)
