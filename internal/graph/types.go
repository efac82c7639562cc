package graph

import "maps"

// typeIndex indexes a node table by type tag, two ways: each tag's node
// ids (NodesOfType), and a dense column holding each node's tag id, which
// tests a node's type in O(1) (TypeDomain). It is carried with the node
// table: a version that adds no node shares it, and one that adds nodes
// appends them to a copy made by forWrite, never recomputing a node's id.
// In an index forWrite made, every slice has len == cap, so its first
// append copies it and the index it was made from never sees the node.
type typeIndex struct {
	nodes map[string][]NodeID // tag → ids, ascending
	ids   map[string]uint32   // tag → its id, dense from 0
	col   []uint32            // node → its tag's id
}

func newTypeIndex() typeIndex {
	return typeIndex{nodes: make(map[string][]NodeID), ids: make(map[string]uint32)}
}

// forWrite returns an index equal to x that add may extend: x, and every
// version that shares it, is left as it is.
func (x typeIndex) forWrite() typeIndex {
	c := typeIndex{nodes: make(map[string][]NodeID, len(x.nodes)), ids: maps.Clone(x.ids), col: x.col[:len(x.col):len(x.col)]}
	for typ, ids := range x.nodes {
		c.nodes[typ] = ids[:len(ids):len(ids)]
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
