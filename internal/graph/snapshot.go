package graph

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"relsim/internal/sparse"
)

// Snapshot is an immutable view of a graph version. Snapshots are the
// unit of MVCC serving: a reader that holds a snapshot sees one frozen
// graph forever, with no locks, while writers derive new snapshots
// copy-on-write.
//
// Adjacency is stored per label, in both directions, as a directory of
// chunks of blockRows rows (see adjacency). Versions share structure:
// deriving a snapshot through a Builder copies the directories of the
// labels the write touched and rebuilds only the chunks holding a
// touched row; every other chunk, and every untouched label's
// adjacency, is shared by pointer with the parent version.
//
// The node table, type column, type id lists and name index only grow,
// and readers read up to their own version's length, so a builder may
// append to its base's in place. tail is the claim on that, shared by
// the versions sharing the node table: the first builder to take it
// appends in place, and any other (a fork, or a retry after a
// rolled-back builder took it) copies.
//
// A snapshot's checkpoint text is a sequence of blocks (Blocks): one per
// blockRows nodes (the full ones appended in place like the node table,
// the partial last one apart), and one per chunk of each label's
// out-direction adjacency, which is that chunk's own. Each is encoded
// when first written (a version no checkpoint writes fills none), and a
// derived version shares every block its write did not touch, so a
// checkpoint encodes only what changed since one of an ancestor.
type Snapshot struct {
	nodes      []Node
	byName     nameIndex
	types      typeIndex
	tail       *atomic.Bool
	nodeBlocks []*BlockID // the full blocks of nodes, growing like nodes
	nodeTail   *BlockID   // the last, partial block; nil when there is none
	out        map[string]*adjacency
	in         map[string]*adjacency
	edges      int
}

// nameIndex resolves a display name to the first node added with it. A
// node-adding commit must cost the names it adds, so the index is two
// maps: base, shared by pointer with the parent version and never
// written once a snapshot holds it, and overlay, the names added since
// base was made. The overlay is shared by the versions sharing a node
// table and grows with it, as the table does: the builder holding the
// tail claim adds its names in place, while readers of earlier versions
// look names up, so it is a sync.Map, and a version reads only ids
// below its own node count, so names added after it are invisible to
// it. size counts the overlay's names a version reads. A name in base
// is older than any in overlay, so base wins a lookup. A build that
// would leave the overlay as large as base folds both into a fresh
// base, so the copies cost what the names added since cost.
type nameIndex struct {
	base    map[string]NodeID
	overlay *sync.Map
	size    int
}

// lookup returns the first node named name among the first n nodes.
func (x nameIndex) lookup(name string, n int) (NodeID, bool) {
	if id, ok := x.base[name]; ok {
		return id, true
	}
	if x.overlay == nil {
		return 0, false
	}
	v, ok := x.overlay.Load(name)
	if !ok {
		return 0, false
	}
	id := v.(NodeID)
	return id, int(id) < n
}

// with returns x, the index of a version of n nodes, with the names
// added since, which no version reads yet: in x's own overlay when
// inPlace (the caller holds the tail claim), in a copy of what x reads
// of it when not, or folded into a fresh base. A fork copies even when
// it adds no name: x's overlay may hold names another lineage stored at
// the ids the fork's own nodes take.
func (x nameIndex) with(added map[string]NodeID, n int, inPlace bool) nameIndex {
	if len(added) == 0 && (inPlace || x.overlay == nil) {
		return x
	}
	visible := func(yield func(string, NodeID)) {
		if x.overlay != nil {
			x.overlay.Range(func(name, id any) bool {
				if int(id.(NodeID)) < n {
					yield(name.(string), id.(NodeID))
				}
				return true
			})
		}
	}
	if x.size+len(added) >= len(x.base) {
		if len(x.base) == 0 && x.size == 0 {
			return nameIndex{base: added}
		}
		base := make(map[string]NodeID, len(x.base)+x.size+len(added))
		maps.Copy(base, x.base)
		visible(func(name string, id NodeID) { base[name] = id })
		maps.Copy(base, added)
		return nameIndex{base: base}
	}
	c := nameIndex{base: x.base, overlay: x.overlay, size: x.size + len(added)}
	if !inPlace || c.overlay == nil {
		c.overlay = new(sync.Map)
		visible(func(name string, id NodeID) { c.overlay.Store(name, id) })
	}
	for name, id := range added {
		c.overlay.Store(name, id)
	}
	return c
}

// adjacency is one direction of one label's edges: a directory of
// chunks, chunk k holding rows [k·blockRows, (k+1)·blockRows). A nil
// chunk, and any row past the directory, has no edges with this label.
// Neighbor lists keep insertion order and repeat entries for parallel
// edges; an in-direction row lists its sources in ascending order, as a
// checkpoint round trip does.
type adjacency struct {
	chunks []*chunk
	nnz    int
}

// chunk holds blockRows rows of an adjacency: local row i's neighbours
// are nbr[off[i]:off[i+1]]. Only an out-direction chunk's text is
// filled: it is the checkpoint block of its rows.
type chunk struct {
	off  [blockRows + 1]int32
	nbr  []NodeID
	text BlockID
}

func (c *chunk) row(i int) []NodeID {
	if c == nil {
		return nil
	}
	return c.nbr[c.off[i]:c.off[i+1]]
}

// rows bounds the rows that have edges: none at or past it does.
func (a *adjacency) rows() int {
	if a == nil {
		return 0
	}
	return len(a.chunks) * blockRows
}

func (a *adjacency) row(u NodeID) []NodeID {
	if a == nil || u < 0 || int(u) >= a.rows() {
		return nil
	}
	return a.chunks[u/blockRows].row(int(u % blockRows))
}

func (a *adjacency) edgeCount() int {
	if a == nil {
		return 0
	}
	return a.nnz
}

// emptySnapshot returns the version with no node and no edge, the base
// every loaded or generated database is built over.
func emptySnapshot() *Snapshot {
	return &Snapshot{types: newTypeIndex(), tail: new(atomic.Bool)}
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
	id, ok := s.byName.lookup(name, len(s.nodes))
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
	triples := make([]sparse.Triple, 0, a.edgeCount())
	for u := 0; u < a.rows(); u++ {
		for _, v := range a.row(NodeID(u)) {
			triples = append(triples, sparse.Triple{Row: u, Col: int(v), Val: 1})
		}
	}
	return sparse.New(len(s.nodes), triples)
}

// NodesOfType returns the ids of all nodes with the given type tag, in
// ascending id order. The slice is the snapshot's own index, shared with
// its derived versions: read-only, and clipped, so an append copies it.
func (s *Snapshot) NodesOfType(typ string) []NodeID { return slices.Clip(s.types.nodes[typ]) }

// TypeDomain returns the domain of the nodes with the given type tag,
// tested against the snapshot's type column: no node when none has the
// tag.
func (s *Snapshot) TypeDomain(typ string) Domain { return s.types.domain(typ) }

// sameEdges reports whether s and o hold the same edge multiset: per
// label and source, the same targets in any order.
func (s *Snapshot) sameEdges(o *Snapshot) bool {
	if s.edges != o.edges || len(s.out) != len(o.out) {
		return false
	}
	for l, a := range s.out {
		b := o.out[l]
		for u := range max(a.rows(), b.rows()) {
			x, y := a.row(NodeID(u)), b.row(NodeID(u))
			if !slices.Equal(x, y) && !slices.Equal(slices.Sorted(slices.Values(x)), slices.Sorted(slices.Values(y))) {
				return false
			}
		}
	}
	return true
}

// String implements fmt.Stringer with a short summary.
func (s *Snapshot) String() string {
	return fmt.Sprintf("graph{nodes=%d edges=%d labels=%d}", s.NumNodes(), s.NumEdges(), len(s.out))
}
