package graph

import (
	"maps"
	"slices"
)

// typeIndex indexes a node table by type tag, two ways: each tag's node
// ids (NodesOfType), and a dense column holding each node's tag id, which
// tests a node's type in O(1) (TypeDomain). It is carried with the node
// table: a version that adds no node shares it, and one that adds nodes
// appends them to an index forWrite made, never recomputing a node's id.
type typeIndex struct {
	nodes map[string][]NodeID // tag → ids, ascending
	ids   map[string]uint32   // tag → its id, dense from 0
	col   []uint32            // node → its tag's id
}

func newTypeIndex() typeIndex {
	return typeIndex{nodes: make(map[string][]NodeID), ids: make(map[string]uint32)}
}

// forWrite returns an index equal to x that add may extend, with maps
// of its own. In place, add appends into the slices' spare capacity,
// past every length x reads: only the holder of the node table's tail
// claim may ask for that. Otherwise every slice has len == cap, so its
// first append copies it and x never sees the node.
func (x typeIndex) forWrite(inPlace bool) typeIndex {
	c := typeIndex{nodes: maps.Clone(x.nodes), ids: maps.Clone(x.ids), col: x.col}
	if !inPlace {
		c.col = slices.Clip(c.col)
		for typ, ids := range c.nodes {
			c.nodes[typ] = slices.Clip(ids)
		}
	}
	return c
}

// add records node id, the next in the table, with tag typ.
func (x *typeIndex) add(id NodeID, typ string) {
	t, ok := x.ids[typ]
	if !ok {
		t = uint32(len(x.ids))
		x.ids[typ] = t
	}
	x.col = append(x.col, t)
	x.nodes[typ] = append(x.nodes[typ], id)
}

// domain returns the domain of the nodes tagged typ: none when no node
// is.
func (x typeIndex) domain(typ string) Domain {
	t, ok := x.ids[typ]
	if !ok {
		return Domain{}
	}
	return Domain{col: x.col, id: t}
}

// Domain is an answer domain: the nodes of one type tag, tested in O(1)
// against the type column of the view it was taken from, or every node
// (AllNodes). Its zero value holds no node. A domain is a value and
// reads its view's column without copying it.
type Domain struct {
	col []uint32
	id  uint32
	all bool
}

// AllNodes is the domain of every node.
var AllNodes = Domain{all: true}

// Has reports whether v is in the domain.
func (d Domain) Has(v NodeID) bool {
	return d.all || uint(v) < uint(len(d.col)) && d.col[v] == d.id
}
