package graph

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// edgeModel is a database as a plain edge multiset: count[label][u][v]
// is the number of (u, label, v) edges.
type edgeModel struct {
	nodes []Node
	count map[string]map[NodeID]map[NodeID]int
}

func (m *edgeModel) clone() *edgeModel {
	c := &edgeModel{nodes: slices.Clone(m.nodes), count: make(map[string]map[NodeID]map[NodeID]int)}
	for l, rows := range m.count {
		c.count[l] = make(map[NodeID]map[NodeID]int)
		for u, row := range rows {
			c.count[l][u] = maps.Clone(row)
		}
	}
	return c
}

func (m *edgeModel) add(u NodeID, l string, v NodeID) {
	if m.count[l] == nil {
		m.count[l] = make(map[NodeID]map[NodeID]int)
	}
	if m.count[l][u] == nil {
		m.count[l][u] = make(map[NodeID]int)
	}
	m.count[l][u][v]++
}

func (m *edgeModel) remove(u NodeID, l string, v NodeID) bool {
	if m.count[l][u][v] == 0 {
		return false
	}
	if m.count[l][u][v]--; m.count[l][u][v] == 0 {
		delete(m.count[l][u], v)
		if len(m.count[l][u]) == 0 {
			delete(m.count[l], u)
		}
		if len(m.count[l]) == 0 {
			delete(m.count, l)
		}
	}
	return true
}

// check holds s to m: sizes, labels, both directions of every row
// (out as a multiset, in in ascending source order), every edge count,
// the name index (first node added wins) and the type lists.
func (m *edgeModel) check(t *testing.T, what string, s *Snapshot) {
	t.Helper()
	edges := 0
	for _, rows := range m.count {
		for _, row := range rows {
			for _, c := range row {
				edges += c
			}
		}
	}
	if s.NumNodes() != len(m.nodes) || s.NumEdges() != edges {
		t.Fatalf("%s: %d nodes, %d edges; model has %d, %d", what, s.NumNodes(), s.NumEdges(), len(m.nodes), edges)
	}
	if got, want := s.Labels(), slices.Sorted(maps.Keys(m.count)); !slices.Equal(got, want) {
		t.Fatalf("%s: labels %v, model has %v", what, got, want)
	}
	for _, l := range []string{"a", "b", "c"} {
		for u := range NodeID(len(m.nodes)) {
			var out, in []NodeID
			for v := range NodeID(len(m.nodes)) {
				if got, want := s.EdgeCount(u, l, v), m.count[l][u][v]; got != want {
					t.Fatalf("%s: EdgeCount(%d,%s,%d) = %d, model has %d", what, u, l, v, got, want)
				}
				for range m.count[l][u][v] {
					out = append(out, v)
				}
				for range m.count[l][v][u] {
					in = append(in, v)
				}
			}
			if got := slices.Sorted(slices.Values(s.Out(u, l))); !slices.Equal(got, out) {
				t.Fatalf("%s: Out(%d,%s) = %v, model has %v", what, u, l, s.Out(u, l), out)
			}
			if got := s.In(u, l); !slices.Equal(got, in) {
				t.Fatalf("%s: In(%d,%s) = %v, model has %v in ascending order", what, u, l, got, in)
			}
		}
	}
	byName, byType := map[string]NodeID{}, map[string][]NodeID{}
	for _, nd := range m.nodes {
		if s.Node(nd.ID) != nd {
			t.Fatalf("%s: Node(%d) = %+v, model has %+v", what, nd.ID, s.Node(nd.ID), nd)
		}
		if _, dup := byName[nd.Name]; !dup && nd.Name != "" {
			byName[nd.Name] = nd.ID
		}
		byType[nd.Type] = append(byType[nd.Type], nd.ID)
	}
	for _, name := range modelNames {
		nd, ok := s.NodeByName(name)
		if id, want := byName[name]; ok != want || ok && nd.ID != id {
			t.Fatalf("%s: NodeByName(%q) = %d, %v; model has %d, %v", what, name, nd.ID, ok, id, want)
		}
	}
	for _, typ := range modelTypes {
		if got := s.NodesOfType(typ); !slices.Equal(got, byType[typ]) {
			t.Fatalf("%s: NodesOfType(%q) = %v, model has %v", what, typ, got, byType[typ])
		}
	}
}

var (
	modelNames = []string{"", "p", "q", "r", "s"}
	modelTypes = []string{"", "t", "u"}
)

// TestGraphMatchesEdgeModel runs random write sequences through a
// Graph — node additions, edge additions with parallel edges, removals
// of pending, committed and absent edges — with Snapshot calls between
// them, and holds every snapshot to a plain edge-multiset model, and
// every earlier snapshot to the model of its own time.
func TestGraphMatchesEdgeModel(t *testing.T) {
	labels := []string{"a", "b", "c"}
	for seed := range int64(60) {
		rng := rand.New(rand.NewSource(seed))
		g, m := New(), &edgeModel{count: map[string]map[NodeID]map[NodeID]int{}}
		type version struct {
			s *Snapshot
			m *edgeModel
		}
		var versions []version
		var pending []Edge // added since the last Snapshot
		for op := 0; op < 150; op++ {
			n := NodeID(len(m.nodes))
			switch r := rng.Intn(10); {
			case r < 2 || n == 0:
				nd := Node{ID: n, Name: modelNames[rng.Intn(len(modelNames))], Type: modelTypes[rng.Intn(len(modelTypes))]}
				if id := g.AddNode(nd.Name, nd.Type); id != nd.ID {
					t.Fatalf("seed %d: AddNode = %d, want %d", seed, id, nd.ID)
				}
				m.nodes = append(m.nodes, nd)
			case r < 6:
				e := Edge{From: NodeID(rng.Intn(int(n))), Label: labels[rng.Intn(len(labels))], To: NodeID(rng.Intn(int(n)))}
				if len(pending) > 0 && rng.Intn(4) == 0 {
					e = pending[rng.Intn(len(pending))] // a parallel edge
				}
				g.AddEdge(e.From, e.Label, e.To)
				m.add(e.From, e.Label, e.To)
				pending = append(pending, e)
			case r < 9:
				var e Edge
				switch last := g.snap; {
				case len(pending) > 0 && rng.Intn(2) == 0:
					e = pending[rng.Intn(len(pending))]
				case last.NumEdges() > 0 && rng.Intn(2) == 0: // a committed edge
					all := last.Edges()
					e = all[rng.Intn(len(all))]
				default: // most likely absent
					e = Edge{From: NodeID(rng.Intn(int(n) + 1)), Label: labels[rng.Intn(len(labels))], To: NodeID(rng.Intn(int(n)))}
				}
				if got, want := g.RemoveEdge(e.From, e.Label, e.To), m.remove(e.From, e.Label, e.To); got != want {
					t.Fatalf("seed %d op %d: RemoveEdge(%v) = %v, model says %v", seed, op, e, got, want)
				}
			default:
				s := g.Snapshot()
				m.check(t, fmt.Sprintf("seed %d op %d", seed, op), s)
				versions = append(versions, version{s, m.clone()})
				pending = nil
				for i, v := range versions {
					v.m.check(t, fmt.Sprintf("seed %d op %d: version %d", seed, op, i), v.s)
				}
			}
			// The reads a writer makes see the pending writes.
			if g.NumNodes() != len(m.nodes) || g.Has(NodeID(len(m.nodes))) || len(m.nodes) > 0 && !g.Has(NodeID(len(m.nodes)-1)) {
				t.Fatalf("seed %d op %d: NumNodes %d, model has %d", seed, op, g.NumNodes(), len(m.nodes))
			}
			for _, e := range pending {
				if got, want := g.EdgeCount(e.From, e.Label, e.To), m.count[e.Label][e.From][e.To]; got != want {
					t.Fatalf("seed %d op %d: pending EdgeCount(%v) = %d, model has %d", seed, op, e, got, want)
				}
			}
			for _, name := range modelNames[1:] {
				nd, ok := g.NodeByName(name)
				i := slices.IndexFunc(m.nodes, func(nd Node) bool { return nd.Name == name })
				if ok != (i >= 0) || ok && nd != m.nodes[i] {
					t.Fatalf("seed %d op %d: NodeByName(%q) = %+v, %v; model has node %d", seed, op, name, nd, ok, i)
				}
			}
		}
		m.check(t, fmt.Sprintf("seed %d: last snapshot", seed), g.Snapshot())
	}
}

// TestInRowsAscending: Build lists each in-row's sources in ascending
// order, so two builds of one batch agree row for row, and so does a
// snapshot with its checkpoint round trip.
func TestInRowsAscending(t *testing.T) {
	g := New()
	for i := range 64 {
		g.AddNode(fmt.Sprintf("n%d", i), "t")
	}
	for u := NodeID(1); u < 64; u += 2 {
		g.AddEdge(u, "x", 0)
	}
	base := g.Snapshot()
	build := func() *Snapshot {
		b := NewBuilder(base)
		for u := NodeID(62); u > 0; u -= 3 { // 21 new sources of node 0, descending
			if err := b.AddEdge(u, "x", 0); err != nil {
				t.Fatal(err)
			}
		}
		for u := NodeID(0); u < 64; u += 5 {
			if err := b.AddEdge(u, "y", 1); err != nil {
				t.Fatal(err)
			}
		}
		b.RemoveEdge(7, "x", 0)
		return b.Build()
	}
	var buf bytes.Buffer
	s1, s2 := build(), build()
	if _, err := WriteView(&buf, s1); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s3 := back.Snapshot()
	for _, l := range s1.Labels() {
		for v := range NodeID(s1.NumNodes()) {
			row := s1.In(v, l)
			if !slices.IsSorted(row) || !slices.Equal(row, s2.In(v, l)) || !slices.Equal(row, s3.In(v, l)) {
				t.Fatalf("In(%d,%s): %v, a second build %v, a round trip %v; want one ascending row",
					v, l, row, s2.In(v, l), s3.In(v, l))
			}
		}
	}
}
