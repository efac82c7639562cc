package graph

import (
	"fmt"
	"maps"
	"sort"

	"relsim/internal/sparse"
)

// Snapshot is an immutable view of a graph version. Snapshots are the
// unit of MVCC serving: a reader that holds a snapshot sees one frozen
// graph forever, with no locks, while writers derive new snapshots
// copy-on-write.
//
// Adjacency is stored per label in CSR form, in both directions.
// Versions share structure: deriving a snapshot through a Builder
// copies only the node table, its type column and the name index's
// small overlay (when nodes were added), the id list of each type that
// gained a node, and the adjacency of the labels the write touched;
// every other type's ids and label's CSR arrays are shared by pointer
// with the parent version.
type Snapshot struct {
	nodes  []Node
	byName nameIndex
	types  typeIndex
	out    map[string]*adjacency
	in     map[string]*adjacency
	edges  int
}

// nameIndex resolves a display name to the first node added with it. A
// node-adding commit must not copy every name the graph holds, so the
// index is two maps: base, shared by pointer with the parent version
// and never written once a snapshot holds it, and overlay, the names
// added since base was made, which alone is copied per commit. A name
// in base is older than any in overlay, so base wins a lookup.
type nameIndex struct {
	base    map[string]NodeID
	overlay map[string]NodeID
}

// nameOverlayMax bounds what a node-adding commit copies: an overlay
// that has reached it is folded into a fresh base first.
const nameOverlayMax = 1024

func (x nameIndex) lookup(name string) (NodeID, bool) {
	if id, ok := x.base[name]; ok {
		return id, true
	}
	id, ok := x.overlay[name]
	return id, ok
}

// forWrite returns an index equal to x whose overlay the caller may add
// to: x's own maps are left as they are.
func (x nameIndex) forWrite() nameIndex {
	if len(x.overlay) < nameOverlayMax {
		return nameIndex{base: x.base, overlay: maps.Clone(x.overlay)}
	}
	base := make(map[string]NodeID, len(x.base)+len(x.overlay))
	maps.Copy(base, x.base)
	maps.Copy(base, x.overlay)
	return nameIndex{base: base}
}

// add records name → id unless the name is already taken.
func (x *nameIndex) add(name string, id NodeID) {
	if _, dup := x.lookup(name); dup {
		return
	}
	if x.overlay == nil {
		x.overlay = make(map[string]NodeID)
	}
	x.overlay[name] = id
}

// adjacency is one direction of one label's edges in CSR form. rowPtr
// has len rows+1 with rows <= NumNodes; nodes beyond rows have no
// edges with this label. Neighbor lists keep insertion order and repeat
// entries for parallel edges, matching the mutable Graph representation.
type adjacency struct {
	rowPtr []int32
	nbr    []NodeID
}

func (a *adjacency) rows() int {
	if a == nil {
		return 0
	}
	return len(a.rowPtr) - 1
}

func (a *adjacency) row(u NodeID) []NodeID {
	if a == nil || int(u) >= a.rows() || u < 0 {
		return nil
	}
	return a.nbr[a.rowPtr[u]:a.rowPtr[u+1]]
}

func (a *adjacency) nnz() int {
	if a == nil {
		return 0
	}
	return len(a.nbr)
}

// compileAdjacency builds a CSR from ragged per-node neighbor lists.
func compileAdjacency(lists [][]NodeID) *adjacency {
	a := &adjacency{rowPtr: make([]int32, len(lists)+1)}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	a.nbr = make([]NodeID, 0, total)
	for u, l := range lists {
		a.nbr = append(a.nbr, l...)
		a.rowPtr[u+1] = int32(len(a.nbr))
	}
	return a
}

// Snapshot freezes the graph's current state into an immutable
// snapshot. The graph may keep mutating afterwards; the snapshot is
// unaffected (node table and adjacency are copied, not aliased).
func (g *Graph) Snapshot() *Snapshot {
	s := &Snapshot{
		nodes:  append([]Node(nil), g.nodes...),
		byName: nameIndex{base: maps.Clone(g.byName)},
		types:  g.types.forWrite(),
		out:    make(map[string]*adjacency, len(g.out)),
		in:     make(map[string]*adjacency, len(g.in)),
		edges:  g.edges,
	}
	for l, lists := range g.out {
		s.out[l] = compileAdjacency(lists)
	}
	for l, lists := range g.in {
		s.in[l] = compileAdjacency(lists)
	}
	return s
}

// Has reports whether id is a node of the snapshot.
func (s *Snapshot) Has(id NodeID) bool { return id >= 0 && int(id) < len(s.nodes) }

// NumNodes returns the number of nodes.
func (s *Snapshot) NumNodes() int { return len(s.nodes) }

// NumEdges returns the number of edges (counting parallel edges).
func (s *Snapshot) NumEdges() int { return s.edges }

// Node returns the node with the given id. It panics if id is invalid.
func (s *Snapshot) Node(id NodeID) Node {
	if !s.Has(id) {
		panic(fmt.Sprintf("graph: Node(%d) out of range (n=%d)", id, len(s.nodes)))
	}
	return s.nodes[id]
}

// NodeByName returns the first node added with the given name.
func (s *Snapshot) NodeByName(name string) (Node, bool) {
	id, ok := s.byName.lookup(name)
	if !ok {
		return Node{}, false
	}
	return s.nodes[id], true
}

// Labels returns the sorted set of edge labels present in the snapshot.
func (s *Snapshot) Labels() []string {
	ls := make([]string, 0, len(s.out))
	for l := range s.out {
		ls = append(ls, l)
	}
	sort.Strings(ls)
	return ls
}

// HasLabel reports whether any edge with the given label exists.
func (s *Snapshot) HasLabel(label string) bool { return s.out[label].nnz() > 0 }

// Out returns the out-neighbors of u via label (repeated for parallel
// edges). The returned slice is shared and must not be modified.
func (s *Snapshot) Out(u NodeID, label string) []NodeID { return s.out[label].row(u) }

// In returns the in-neighbors of v via label. The returned slice is
// shared and must not be modified.
func (s *Snapshot) In(v NodeID, label string) []NodeID { return s.in[label].row(v) }

// HasEdge reports whether at least one (u, label, v) edge exists.
func (s *Snapshot) HasEdge(u NodeID, label string, v NodeID) bool {
	for _, w := range s.Out(u, label) {
		if w == v {
			return true
		}
	}
	return false
}

// EdgeCount returns the number of parallel (u, label, v) edges.
func (s *Snapshot) EdgeCount(u NodeID, label string, v NodeID) int {
	n := 0
	for _, w := range s.Out(u, label) {
		if w == v {
			n++
		}
	}
	return n
}

// Degree returns the total degree (in + out, across all labels) of u.
func (s *Snapshot) Degree(u NodeID) int {
	d := 0
	for _, a := range s.out {
		d += len(a.row(u))
	}
	for _, a := range s.in {
		d += len(a.row(u))
	}
	return d
}

// Edges returns all edges in a deterministic order (label, from, to).
func (s *Snapshot) Edges() []Edge {
	es := make([]Edge, 0, s.edges)
	s.EachEdge(func(e Edge) { es = append(es, e) })
	return es
}

// EachEdge calls fn for every edge, grouped by label then source node.
func (s *Snapshot) EachEdge(fn func(e Edge)) {
	for _, l := range s.Labels() {
		a := s.out[l]
		for u := 0; u < a.rows(); u++ {
			for _, v := range a.row(NodeID(u)) {
				fn(Edge{From: NodeID(u), Label: l, To: v})
			}
		}
	}
}

// Adjacency returns the n×n adjacency matrix A_label where entry (u,v)
// counts the (u, label, v) edges.
func (s *Snapshot) Adjacency(label string) *sparse.Matrix {
	a := s.out[label]
	triples := make([]sparse.Triple, 0, a.nnz())
	for u := 0; u < a.rows(); u++ {
		for _, v := range a.row(NodeID(u)) {
			triples = append(triples, sparse.Triple{Row: u, Col: int(v), Val: 1})
		}
	}
	return sparse.New(len(s.nodes), triples)
}

// NodesOfType returns the ids of all nodes with the given type tag, in
// ascending id order. The slice is the snapshot's own index, shared
// with the versions derived from it: read-only.
func (s *Snapshot) NodesOfType(typ string) []NodeID { return s.types.nodes[typ] }

// TypeDomain returns the domain of the nodes with the given type tag,
// tested against the snapshot's type column: no node when none has the
// tag.
func (s *Snapshot) TypeDomain(typ string) Domain { return s.types.domain(typ) }

// Materialize converts the snapshot back into a mutable Graph (a full
// copy; the snapshot is unaffected). Used when offline tooling needs a
// *Graph from a served version.
func (s *Snapshot) Materialize() *Graph {
	g := New()
	for _, nd := range s.nodes {
		g.AddNode(nd.Name, nd.Type)
	}
	s.EachEdge(func(e Edge) { g.AddEdge(e.From, e.Label, e.To) })
	return g
}

// String implements fmt.Stringer with a short summary.
func (s *Snapshot) String() string {
	return fmt.Sprintf("snapshot{nodes=%d edges=%d labels=%d}", s.NumNodes(), s.NumEdges(), len(s.out))
}
