package graph

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sync/atomic"
)

// Builder accumulates mutations against a base snapshot and derives the
// next version copy-on-write. It is the write half of MVCC: the base
// snapshot is never modified, and Build produces a new snapshot that
// shares every untouched label's adjacency (and, for edge-only writes,
// the node table) with the base by pointer. A write that adds nodes
// copies the name index's overlay, never the map of every name, and
// extends the node table and type index in place when it takes the
// base's tail claim (see Snapshot), or copies them.
//
// A Builder is single-writer state; it must not be used concurrently.
// Reads through the Builder (Has, NodeByName, EdgeCount) see the
// pending mutations — read-your-writes within a transaction. A pending
// edge is found by a scan of its label's added edges, so such reads
// suit a transaction's few writes or a load's rare checks.
type Builder struct {
	base *Snapshot

	// nodes stays nil (and byName unset) until the first AddNode; Build
	// then reuses the base's table unchanged. inPlace: the builder holds
	// the base's tail claim and extends its arrays in place.
	nodes   []Node
	byName  nameIndex
	inPlace bool

	// adds[label] holds the label's added edges in the order they came;
	// dels[label][u][v] counts removed (u,label,v) base occurrences.
	// Only labels present in these maps are rebuilt by Build.
	adds map[string][]arc
	dels map[string]map[NodeID]map[NodeID]int

	addCnt, delCnt int
}

// arc is one edge of a known label, from u to v.
type arc struct{ u, v NodeID }

// NewBuilder starts a builder over base. A nil base builds from the
// empty graph.
func NewBuilder(base *Snapshot) *Builder {
	if base == nil {
		base = emptySnapshot()
	}
	return &Builder{base: base}
}

// NumNodes returns the node count including pending additions.
func (b *Builder) NumNodes() int {
	if b.nodes != nil {
		return len(b.nodes)
	}
	return b.base.NumNodes()
}

// Has reports whether id is a node, including pending additions.
func (b *Builder) Has(id NodeID) bool { return id >= 0 && int(id) < b.NumNodes() }

// NodeByName resolves a display name, seeing pending additions.
func (b *Builder) NodeByName(name string) (Node, bool) {
	if b.nodes == nil {
		return b.base.NodeByName(name)
	}
	id, ok := b.byName.lookup(name)
	if !ok {
		return Node{}, false
	}
	return b.nodes[id], true
}

// AddNode appends a node and returns its id. The first node addition
// appends to the base's table in place if it takes the tail claim, and
// to a copy if not; edge-only transactions never touch the table.
func (b *Builder) AddNode(name, typ string) NodeID {
	if b.nodes == nil {
		b.inPlace = b.base.tail.CompareAndSwap(false, true)
		b.nodes = b.base.nodes
		if !b.inPlace {
			b.nodes = slices.Clip(b.nodes)
		}
		b.byName = b.base.byName.forWrite()
	}
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{ID: id, Name: name, Type: typ})
	if name != "" {
		b.byName.add(name, id)
	}
	return id
}

// EdgeCount returns the number of (u, label, v) edges including pending
// mutations.
func (b *Builder) EdgeCount(u NodeID, label string, v NodeID) int {
	n := b.base.EdgeCount(u, label, v) - b.dels[label][u][v]
	for _, a := range b.adds[label] {
		if a == (arc{u, v}) {
			n++
		}
	}
	return n
}

// AddEdge records the edge (u, label, v).
func (b *Builder) AddEdge(u NodeID, label string, v NodeID) error {
	if !b.Has(u) || !b.Has(v) {
		return fmt.Errorf("graph: add edge (%d,%q,%d): endpoint does not exist (n=%d)", u, label, v, b.NumNodes())
	}
	if label == "" {
		return fmt.Errorf("graph: add edge (%d,,%d): empty label", u, v)
	}
	if b.adds == nil {
		b.adds = make(map[string][]arc)
	}
	b.adds[label] = append(b.adds[label], arc{u, v})
	b.addCnt++
	return nil
}

// RemoveEdge removes one (u, label, v) occurrence and reports whether
// an edge was removed. The edge added last in the same builder is
// cancelled; otherwise a removal of a base edge is recorded.
func (b *Builder) RemoveEdge(u NodeID, label string, v NodeID) bool {
	la := b.adds[label]
	for i := len(la) - 1; i >= 0; i-- {
		if la[i] == (arc{u, v}) {
			b.adds[label] = slices.Delete(la, i, i+1)
			b.addCnt--
			return true
		}
	}
	if b.base.EdgeCount(u, label, v)-b.dels[label][u][v] <= 0 {
		return false
	}
	if b.dels == nil {
		b.dels = make(map[string]map[NodeID]map[NodeID]int)
	}
	ld := b.dels[label]
	if ld == nil {
		ld = make(map[NodeID]map[NodeID]int)
		b.dels[label] = ld
	}
	if ld[u] == nil {
		ld[u] = make(map[NodeID]int)
	}
	ld[u][v]++
	b.delCnt++
	return true
}

// Build derives the next snapshot. The base is unchanged; the result
// shares the base's CSR arrays for every label the builder did not
// touch, its node table and type index when no node was added, and its
// checkpoint blocks holding no added node or touched row. More than
// nameOverlayMax added names go to the new version's base name map, so
// no later commit copies them. The in-direction rows Build rewrites
// list their sources in ascending order, whatever order the edges came
// in. Build may be called once; reusing the builder afterwards is not
// supported.
func (b *Builder) Build() *Snapshot {
	if b.nodes == nil && b.addCnt == 0 && b.delCnt == 0 {
		return b.base
	}
	s := &Snapshot{
		nodes:      b.base.nodes,
		byName:     b.base.byName,
		types:      b.base.types,
		tail:       b.base.tail,
		nodeBlocks: b.base.nodeBlocks,
		out:        b.base.out,
		in:         b.base.in,
		edges:      b.base.NumEdges() + b.addCnt - b.delCnt,
	}
	if b.nodes != nil {
		s.nodes = b.nodes
		s.byName = b.byName
		if len(s.byName.overlay) > nameOverlayMax {
			s.byName = s.byName.folded()
		}
		s.tail = new(atomic.Bool)
		s.nodeBlocks = carryBlocks(b.base.nodeBlocks, len(b.nodes), nil, len(b.base.nodes))
		s.types = b.base.types.forWrite(b.inPlace)
		for _, nd := range b.nodes[len(b.base.nodes):] {
			s.types.add(nd.ID, nd.Type)
		}
	}
	var touched []string
	for l, adds := range b.adds {
		if len(adds) > 0 {
			touched = append(touched, l)
		}
	}
	for l := range b.dels {
		if len(b.adds[l]) == 0 {
			touched = append(touched, l)
		}
	}
	if len(touched) == 0 {
		return s
	}
	s.out = make(map[string]*adjacency, len(b.base.out)+len(touched))
	s.in = make(map[string]*adjacency, len(b.base.in)+len(touched))
	maps.Copy(s.out, b.base.out)
	maps.Copy(s.in, b.base.in)
	for _, l := range touched {
		adds := byRow(b.adds[l])
		out, rows := rebuildAdjacency(b.base.out[l], adds, b.dels[l])
		if out.nnz() == 0 {
			delete(s.out, l)
			delete(s.in, l)
			continue
		}
		var carried []*block
		if base := b.base.out[l]; base != nil {
			carried = base.blocks
		}
		out.blocks = carryBlocks(carried, out.rows(), rows, out.rows())
		s.out[l] = out
		// The in-direction takes the same deltas reversed. adds lists
		// its sources in ascending order and byRow keeps that order
		// within a target, so an in-row needs sorting only where its
		// new sources interleave with its base row.
		rev := make([]arc, len(adds))
		for i, a := range adds {
			rev[i] = arc{a.v, a.u}
		}
		var revDels map[NodeID]map[NodeID]int
		for u, vd := range b.dels[l] {
			for v, n := range vd {
				if revDels == nil {
					revDels = make(map[NodeID]map[NodeID]int)
				}
				if revDels[v] == nil {
					revDels[v] = make(map[NodeID]int)
				}
				revDels[v][u] += n
			}
		}
		in, inRows := rebuildAdjacency(b.base.in[l], byRow(rev), revDels)
		for _, v := range inRows {
			slices.Sort(in.row(v))
		}
		s.in[l] = in
	}
	return s
}

// byRow orders arcs by source, keeping their order within a source:
// by counting when they are many for the rows they span, as when a
// database is loaded, and by a stable sort in place otherwise.
func byRow(arcs []arc) []arc {
	rows := 0
	for _, a := range arcs {
		rows = max(rows, int(a.u)+1)
	}
	if len(arcs)*8 < rows {
		slices.SortStableFunc(arcs, func(a, b arc) int { return cmp.Compare(a.u, b.u) })
		return arcs
	}
	next := make([]int, rows+1)
	for _, a := range arcs {
		next[a.u+1]++
	}
	for u := range rows {
		next[u+1] += next[u]
	}
	sorted := make([]arc, len(arcs))
	for _, a := range arcs {
		sorted[next[a.u]] = a
		next[a.u]++
	}
	return sorted
}

// rebuildAdjacency applies additions, ordered by row, and per-occurrence
// removals to a base CSR, producing a fresh CSR and the touched rows in
// ascending order. base may be nil (new label). Only the touched rows
// are rebuilt entry by entry; the runs of rows between them are copied
// whole, their offsets shifted.
func rebuildAdjacency(base *adjacency, adds []arc, dels map[NodeID]map[NodeID]int) (*adjacency, []NodeID) {
	rows := base.rows()
	if len(adds) > 0 {
		rows = max(rows, int(adds[len(adds)-1].u)+1)
	}
	touched := make([]NodeID, 0, len(dels))
	for i, a := range adds {
		if i == 0 || a.u != adds[i-1].u {
			touched = append(touched, a.u)
		}
	}
	if len(dels) > 0 {
		for u := range dels {
			touched = append(touched, u)
		}
		slices.Sort(touched)
		touched = slices.Compact(touched)
	}
	a := &adjacency{
		rowPtr: make([]int32, rows+1),
		nbr:    make([]NodeID, 0, base.nnz()+len(adds)),
	}
	// copyRows carries base rows [lo, hi) over unchanged; rows the base
	// does not have are empty.
	copyRows := func(lo, hi int) {
		if kept := min(hi, base.rows()); lo < kept {
			shift := int32(len(a.nbr)) - base.rowPtr[lo]
			a.nbr = append(a.nbr, base.nbr[base.rowPtr[lo]:base.rowPtr[kept]]...)
			for u := lo; u < kept; u++ {
				a.rowPtr[u+1] = base.rowPtr[u+1] + shift
			}
			lo = kept
		}
		for u := lo; u < hi; u++ {
			a.rowPtr[u+1] = int32(len(a.nbr))
		}
	}
	next := 0
	for _, u := range touched {
		copyRows(next, int(u))
		left := maps.Clone(dels[u])
		for _, v := range base.row(u) {
			if left[v] > 0 {
				left[v]--
				continue
			}
			a.nbr = append(a.nbr, v)
		}
		for ; len(adds) > 0 && adds[0].u == u; adds = adds[1:] {
			a.nbr = append(a.nbr, adds[0].v)
		}
		a.rowPtr[u+1] = int32(len(a.nbr))
		next = int(u) + 1
	}
	copyRows(next, rows)
	return a, touched
}
