package graph

import (
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
// pending mutations — read-your-writes within a transaction.
type Builder struct {
	base *Snapshot

	// nodes stays nil (and byName unset) until the first AddNode; Build
	// then reuses the base's table unchanged. inPlace: the builder holds
	// the base's tail claim and extends its arrays in place.
	nodes   []Node
	byName  nameIndex
	inPlace bool

	// adds[label][u] holds appended out-neighbors; dels[label][u][v]
	// counts removed (u,label,v) occurrences. Only labels present in
	// these maps are rebuilt by Build.
	adds map[string]map[NodeID][]NodeID
	dels map[string]map[NodeID]map[NodeID]int

	addCnt, delCnt int
}

// NewBuilder starts a builder over base. A nil base builds from the
// empty graph.
func NewBuilder(base *Snapshot) *Builder {
	if base == nil {
		base = New().Snapshot()
	}
	return &Builder{base: base}
}

// Base returns the snapshot the builder derives from.
func (b *Builder) Base() *Snapshot { return b.base }

// Changed reports whether any mutation is pending.
func (b *Builder) Changed() bool {
	return b.nodes != nil || b.addCnt > 0 || b.delCnt > 0
}

// NumNodes returns the node count including pending additions.
func (b *Builder) NumNodes() int {
	if b.nodes != nil {
		return len(b.nodes)
	}
	return b.base.NumNodes()
}

// NumEdges returns the edge count including pending mutations.
func (b *Builder) NumEdges() int { return b.base.NumEdges() + b.addCnt - b.delCnt }

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
	n := b.base.EdgeCount(u, label, v)
	if la := b.adds[label]; la != nil {
		for _, w := range la[u] {
			if w == v {
				n++
			}
		}
	}
	if ld := b.dels[label]; ld != nil {
		n -= ld[u][v]
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
		b.adds = make(map[string]map[NodeID][]NodeID)
	}
	la := b.adds[label]
	if la == nil {
		la = make(map[NodeID][]NodeID)
		b.adds[label] = la
	}
	la[u] = append(la[u], v)
	b.addCnt++
	return nil
}

// RemoveEdge removes one (u, label, v) occurrence and reports whether
// an edge was removed. An edge added earlier in the same builder is
// cancelled in place; otherwise a removal of a base edge is recorded.
func (b *Builder) RemoveEdge(u NodeID, label string, v NodeID) bool {
	if la := b.adds[label]; la != nil {
		vs := la[u]
		for i := len(vs) - 1; i >= 0; i-- {
			if vs[i] == v {
				la[u] = append(vs[:i:i], vs[i+1:]...)
				b.addCnt--
				return true
			}
		}
	}
	removed := 0
	if ld := b.dels[label]; ld != nil {
		removed = ld[u][v]
	}
	if b.base.EdgeCount(u, label, v)-removed <= 0 {
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

// TouchedLabels returns the labels whose adjacency the pending
// mutations modify, in no particular order.
func (b *Builder) TouchedLabels() []string {
	seen := make(map[string]bool, len(b.adds)+len(b.dels))
	for l, la := range b.adds {
		for _, vs := range la {
			if len(vs) > 0 {
				seen[l] = true
				break
			}
		}
	}
	for l, ld := range b.dels {
		if seen[l] {
			continue
		}
		for _, vd := range ld {
			for _, n := range vd {
				if n > 0 {
					seen[l] = true
					break
				}
			}
			if seen[l] {
				break
			}
		}
	}
	ls := make([]string, 0, len(seen))
	for l := range seen {
		ls = append(ls, l)
	}
	return ls
}

// NodesAdded reports whether the builder added nodes (the next
// snapshot's matrix dimension differs from the base's).
func (b *Builder) NodesAdded() bool { return b.nodes != nil && len(b.nodes) > len(b.base.nodes) }

// Build derives the next snapshot. The base is unchanged; the result
// shares the base's CSR arrays for every label the builder did not
// touch, its node table and type index when no node was added, and its
// checkpoint blocks holding no added node or touched row. Build may be
// called once; reusing the builder afterwards is not supported.
func (b *Builder) Build() *Snapshot {
	if !b.Changed() {
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
		s.tail = new(atomic.Bool)
		s.nodeBlocks = carryBlocks(b.base.nodeBlocks, len(b.nodes), nil, len(b.base.nodes))
		s.types = b.base.types.forWrite(b.inPlace)
		for _, nd := range b.nodes[len(b.base.nodes):] {
			s.types.add(nd.ID, nd.Type)
		}
	}
	touched := b.TouchedLabels()
	if len(touched) == 0 {
		return s
	}
	s.out = make(map[string]*adjacency, len(b.base.out)+len(touched))
	s.in = make(map[string]*adjacency, len(b.base.in)+len(touched))
	for l, a := range b.base.out {
		s.out[l] = a
	}
	for l, a := range b.base.in {
		s.in[l] = a
	}
	for _, l := range touched {
		// Reverse the per-label deltas for the in-direction rebuild.
		var revAdds map[NodeID][]NodeID
		for u, vs := range b.adds[l] {
			for _, v := range vs {
				if revAdds == nil {
					revAdds = make(map[NodeID][]NodeID)
				}
				revAdds[v] = append(revAdds[v], u)
			}
		}
		var revDels map[NodeID]map[NodeID]int
		for u, vd := range b.dels[l] {
			for v, n := range vd {
				if n == 0 {
					continue
				}
				if revDels == nil {
					revDels = make(map[NodeID]map[NodeID]int)
				}
				if revDels[v] == nil {
					revDels[v] = make(map[NodeID]int)
				}
				revDels[v][u] += n
			}
		}
		out, touchedRows := rebuildAdjacency(b.base.out[l], b.adds[l], b.dels[l])
		if out.nnz() == 0 {
			delete(s.out, l)
			delete(s.in, l)
			continue
		}
		var carried []*block
		if base := b.base.out[l]; base != nil {
			carried = base.blocks
		}
		out.blocks = carryBlocks(carried, out.rows(), touchedRows, out.rows())
		s.out[l] = out
		s.in[l], _ = rebuildAdjacency(b.base.in[l], revAdds, revDels)
	}
	return s
}

// rebuildAdjacency applies per-row additions and per-occurrence
// removals to a base CSR, producing a fresh CSR and the touched rows in
// ascending order. base may be nil (new label). Only the touched rows
// are rebuilt entry by entry; the runs of rows between them are copied
// whole, their offsets shifted.
func rebuildAdjacency(base *adjacency, adds map[NodeID][]NodeID, dels map[NodeID]map[NodeID]int) (*adjacency, []NodeID) {
	rows := base.rows()
	touched := make([]NodeID, 0, len(adds)+len(dels))
	addTotal := 0
	for u, vs := range adds {
		touched = append(touched, u)
		addTotal += len(vs)
		rows = max(rows, int(u)+1)
	}
	for u := range dels {
		if _, both := adds[u]; !both {
			touched = append(touched, u)
		}
	}
	slices.Sort(touched)
	a := &adjacency{
		rowPtr: make([]int32, rows+1),
		nbr:    make([]NodeID, 0, base.nnz()+addTotal),
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
		a.nbr = append(a.nbr, adds[u]...)
		a.rowPtr[u+1] = int32(len(a.nbr))
		next = int(u) + 1
	}
	copyRows(next, rows)
	return a, touched
}
