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
// shares every untouched label's adjacency, every untouched chunk of a
// touched one (and, for edge-only writes, the node table) with the base
// by pointer. A write that adds nodes extends the node table, type index
// and name index in place when it takes the base's tail claim (see
// Snapshot), or copies them.
//
// A Builder is single-writer state; it must not be used concurrently.
// Reads through the Builder (Has, NodeByName, EdgeCount) see the
// pending mutations — read-your-writes within a transaction. A pending
// edge is found by a scan of its label's added edges, so such reads
// suit a transaction's few writes or a load's rare checks.
type Builder struct {
	base *Snapshot

	// nodes stays nil (and names unset) until the first AddNode; Build
	// then reuses the base's table unchanged. names holds the names the
	// builder added. inPlace: the builder holds the base's tail claim and
	// extends its arrays in place.
	nodes   []Node
	names   map[string]NodeID
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
	if nd, ok := b.base.NodeByName(name); ok {
		return nd, true
	}
	id, ok := b.names[name]
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
		b.names = make(map[string]NodeID)
	}
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{ID: id, Name: name, Type: typ})
	if name != "" {
		if _, taken := b.NodeByName(name); !taken {
			b.names[name] = id
		}
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
// shares the base's adjacency for every label the builder did not touch,
// and every chunk of a touched label holding no touched row; its node
// table, type index and name index when no node was added; and its node
// blocks holding no added node. A load is a Build over the empty
// snapshot, which fills every chunk. The in-direction rows Build
// rewrites list their sources in ascending order, whatever order the
// edges came in. Build may be called once; reusing the builder
// afterwards is not supported.
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
		nodeTail:   b.base.nodeTail,
		out:        b.base.out,
		in:         b.base.in,
		edges:      b.base.NumEdges() + b.addCnt - b.delCnt,
	}
	if b.nodes != nil {
		s.nodes = b.nodes
		s.byName = b.base.byName.with(b.names, len(b.base.nodes), b.inPlace)
		s.tail = new(atomic.Bool)
		if !b.inPlace {
			s.nodeBlocks = slices.Clip(s.nodeBlocks)
		}
		for len(s.nodeBlocks) < len(b.nodes)/blockRows {
			s.nodeBlocks = append(s.nodeBlocks, new(BlockID))
		}
		s.nodeTail = nil
		if len(b.nodes)%blockRows != 0 {
			s.nodeTail = new(BlockID)
		}
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
		out := b.base.out[l].patched(adds, b.dels[l], false)
		if out.edgeCount() == 0 {
			delete(s.out, l)
			delete(s.in, l)
			continue
		}
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
		s.in[l] = b.base.in[l].patched(byRow(rev), revDels, true)
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

// patched applies additions, ordered by row, and per-occurrence removals
// to a, which may be nil (a new label), and returns the result. It
// copies a's directory and rebuilds only the chunks holding a touched
// row; every other chunk is shared with a. With sorted, a rebuilt row
// that gained neighbours is sorted.
func (a *adjacency) patched(adds []arc, dels map[NodeID]map[NodeID]int, sorted bool) *adjacency {
	var base []*chunk
	if a != nil {
		base = a.chunks
	}
	touched := make([]int, 0, len(dels)+1)
	for i, e := range adds {
		if k := int(e.u) / blockRows; i == 0 || k != touched[len(touched)-1] {
			touched = append(touched, k)
		}
	}
	if len(dels) > 0 {
		for u := range dels {
			touched = append(touched, int(u)/blockRows)
		}
		slices.Sort(touched)
		touched = slices.Compact(touched)
	}
	n := len(base)
	if len(touched) > 0 {
		n = max(n, touched[len(touched)-1]+1)
	}
	p := &adjacency{chunks: make([]*chunk, n), nnz: a.edgeCount()}
	copy(p.chunks, base)
	for _, k := range touched {
		lo := k * blockRows
		in := 0
		for in < len(adds) && int(adds[in].u) < lo+blockRows {
			in++
		}
		old := p.chunks[k]
		p.chunks[k] = old.patched(NodeID(lo), adds[:in], dels, sorted)
		adds = adds[in:]
		p.nnz += p.chunks[k].edges() - old.edges()
	}
	for len(p.chunks) > 0 && p.chunks[len(p.chunks)-1] == nil {
		p.chunks = p.chunks[:len(p.chunks)-1]
	}
	return p
}

// patched returns c, the chunk of rows [lo, lo+blockRows) (nil when
// none of them has an edge), with adds, all in those rows and ordered by
// row, appended to their rows and the removals dels names taken out.
// It returns nil when no edge is left.
func (c *chunk) patched(lo NodeID, adds []arc, dels map[NodeID]map[NodeID]int, sorted bool) *chunk {
	p := &chunk{nbr: make([]NodeID, 0, c.edges()+len(adds))}
	for i := range blockRows {
		u := lo + NodeID(i)
		row := c.row(i)
		if left := dels[u]; left != nil {
			left = maps.Clone(left)
			for _, v := range row {
				if left[v] > 0 {
					left[v]--
					continue
				}
				p.nbr = append(p.nbr, v)
			}
		} else {
			p.nbr = append(p.nbr, row...)
		}
		if len(adds) > 0 && adds[0].u == u {
			start := int(p.off[i])
			for ; len(adds) > 0 && adds[0].u == u; adds = adds[1:] {
				p.nbr = append(p.nbr, adds[0].v)
			}
			if sorted {
				slices.Sort(p.nbr[start:])
			}
		}
		p.off[i+1] = int32(len(p.nbr))
	}
	if len(p.nbr) == 0 {
		return nil
	}
	return p
}

// edges returns the number of edges c holds.
func (c *chunk) edges() int {
	if c == nil {
		return 0
	}
	return len(c.nbr)
}
