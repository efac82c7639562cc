package graph

import (
	"fmt"
	"reflect"
	"testing"

	"relsim/internal/sparse"
)

func snapTestGraph() *Graph {
	g := New()
	a := g.AddNode("a", "t")
	b := g.AddNode("b", "t")
	c := g.AddNode("c", "u")
	g.AddEdge(a, "x", b)
	g.AddEdge(a, "x", b) // parallel edge
	g.AddEdge(b, "x", c)
	g.AddEdge(a, "y", c)
	return g
}

// TestSnapshotMirrorsGraph checks every read method agrees between a
// graph and its snapshot.
func TestSnapshotMirrorsGraph(t *testing.T) {
	g := snapTestGraph()
	s := g.Snapshot()

	if s.NumNodes() != g.NumNodes() || s.NumEdges() != g.NumEdges() {
		t.Fatalf("size: snapshot %d/%d, graph %d/%d", s.NumNodes(), s.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	if !reflect.DeepEqual(s.Labels(), g.Labels()) {
		t.Errorf("labels: %v vs %v", s.Labels(), g.Labels())
	}
	for id := NodeID(0); int(id) < g.NumNodes(); id++ {
		if s.Node(id) != g.Node(id) {
			t.Errorf("node %d: %+v vs %+v", id, s.Node(id), g.Node(id))
		}
		if s.Degree(id) != g.Degree(id) {
			t.Errorf("degree %d: %d vs %d", id, s.Degree(id), g.Degree(id))
		}
		for _, l := range g.Labels() {
			if !reflect.DeepEqual(append([]NodeID{}, s.Out(id, l)...), append([]NodeID{}, g.Out(id, l)...)) {
				t.Errorf("out(%d,%s): %v vs %v", id, l, s.Out(id, l), g.Out(id, l))
			}
			var in []NodeID
			if int(id) < len(g.in[l]) {
				in = g.in[l][id]
			}
			if !reflect.DeepEqual(append([]NodeID{}, s.In(id, l)...), append([]NodeID{}, in...)) {
				t.Errorf("in(%d,%s): %v vs %v", id, l, s.In(id, l), in)
			}
		}
	}
	if n, ok := s.NodeByName("b"); !ok || n.ID != 1 {
		t.Errorf("NodeByName(b) = %+v, %v", n, ok)
	}
	if got := s.EdgeCount(0, "x", 1); got != 2 {
		t.Errorf("EdgeCount parallel = %d, want 2", got)
	}
	if !reflect.DeepEqual(s.NodesOfType("t"), g.NodesOfType("t")) {
		t.Errorf("NodesOfType: %v vs %v", s.NodesOfType("t"), g.NodesOfType("t"))
	}
	for _, l := range g.Labels() {
		a := s.Adjacency(l)
		for u := 0; u < g.NumNodes(); u++ {
			for v := 0; v < g.NumNodes(); v++ {
				if got, want := a.At(u, v), int64(g.EdgeCount(NodeID(u), l, NodeID(v))); got != want {
					t.Errorf("adjacency %q (%d,%d) = %d, graph has %d edges", l, u, v, got, want)
				}
			}
		}
	}
	if !reflect.DeepEqual(s.Edges(), g.Edges()) {
		t.Errorf("edges: %v vs %v", s.Edges(), g.Edges())
	}
}

// TestSnapshotIsImmutable mutates the source graph after snapshotting;
// the snapshot must be unaffected.
func TestSnapshotIsImmutable(t *testing.T) {
	g := snapTestGraph()
	s := g.Snapshot()
	nodes, edges := s.NumNodes(), s.NumEdges()
	g.AddEdge(0, "x", 2)
	g.AddNode("d", "t")
	g.RemoveEdge(0, "y", 2)
	if s.NumNodes() != nodes || s.NumEdges() != edges {
		t.Errorf("snapshot changed: %d/%d, want %d/%d", s.NumNodes(), s.NumEdges(), nodes, edges)
	}
	if got := s.EdgeCount(0, "y", 2); got != 1 {
		t.Errorf("removed base edge leaked into snapshot: count = %d, want 1", got)
	}
}

// TestBuilderCopyOnWrite verifies structural sharing: an edge write
// copies only the touched label's adjacency; untouched labels and the
// node table are shared by pointer with the base.
func TestBuilderCopyOnWrite(t *testing.T) {
	base := snapTestGraph().Snapshot()
	b := NewBuilder(base)
	if err := b.AddEdge(2, "x", 0); err != nil {
		t.Fatal(err)
	}
	next := b.Build()

	if next == base {
		t.Fatal("Build returned the base despite a mutation")
	}
	if &next.nodes[0] != &base.nodes[0] {
		t.Error("edge-only write copied the node table")
	}
	if next.out["y"] != base.out["y"] || next.in["y"] != base.in["y"] {
		t.Error("untouched label y was copied")
	}
	if next.out["x"] == base.out["x"] {
		t.Error("touched label x still shares adjacency with the base")
	}
	if got, want := next.NumEdges(), base.NumEdges()+1; got != want {
		t.Errorf("edges = %d, want %d", got, want)
	}
	if !next.HasEdge(2, "x", 0) {
		t.Error("new edge missing")
	}
	if base.HasEdge(2, "x", 0) {
		t.Error("base snapshot gained the new edge")
	}
}

// TestBuilderNodeTableCOW: adding a node copies the node table but
// shares all adjacency.
func TestBuilderNodeTableCOW(t *testing.T) {
	base := snapTestGraph().Snapshot()
	b := NewBuilder(base)
	id := b.AddNode("d", "t")
	if id != 3 {
		t.Fatalf("new node id = %d, want 3", id)
	}
	next := b.Build()
	if next.out["x"] != base.out["x"] || next.out["y"] != base.out["y"] {
		t.Error("node-only write copied adjacency")
	}
	if next.NumNodes() != 4 || base.NumNodes() != 3 {
		t.Errorf("node counts: next %d (want 4), base %d (want 3)", next.NumNodes(), base.NumNodes())
	}
	if n, ok := next.NodeByName("d"); !ok || n.ID != 3 {
		t.Errorf("NodeByName(d) = %+v, %v", n, ok)
	}
	if _, ok := base.NodeByName("d"); ok {
		t.Error("base snapshot sees the new node name")
	}
}

// TestBuilderNameIndexCOW chains 200 node-adding builders, each adding
// fresh names, names an earlier version already holds, a name twice in
// one builder and an unnamed node, and checks NodeByName on the builder
// (read-your-writes) and on every snapshot against a first-added-wins
// map rebuilt from the node table. The chain crosses nameOverlayMax, so
// the overlay folds into a fresh base on the way; a node-adding commit
// never copies the base map, and earlier versions never see later names.
func TestBuilderNameIndexCOW(t *testing.T) {
	check := func(step int, s *Snapshot) {
		t.Helper()
		want := make(map[string]NodeID)
		for _, nd := range s.nodes {
			if _, dup := want[nd.Name]; !dup && nd.Name != "" {
				want[nd.Name] = nd.ID
			}
		}
		if got := len(s.byName.base) + len(s.byName.overlay); got != len(want) {
			t.Fatalf("step %d: index holds %d names, want %d", step, got, len(want))
		}
		for name, id := range want {
			if nd, ok := s.NodeByName(name); !ok || nd.ID != id {
				t.Fatalf("step %d: NodeByName(%q) = %d, %v; want %d", step, name, nd.ID, ok, id)
			}
		}
		if _, ok := s.NodeByName(fmt.Sprintf("n%d-0", step+1)); ok {
			t.Fatalf("step %d: snapshot resolves a name of the next step", step)
		}
	}
	versions := []*Snapshot{snapTestGraph().Snapshot()}
	folds := 0
	for step := 0; step < 200; step++ {
		base := versions[len(versions)-1]
		b := NewBuilder(base)
		for i := 0; i < 8; i++ {
			b.AddNode(fmt.Sprintf("n%d-%d", step, i), "t")
		}
		first := b.AddNode("twice", "t")
		b.AddNode("twice", "u")
		b.AddNode("a", "u") // held since the first version
		b.AddNode(fmt.Sprintf("n%d-0", step/2), "u")
		b.AddNode("", "t")
		if nd, ok := b.NodeByName("twice"); !ok || (step == 0 && nd.ID != first) || (step > 0 && nd.ID >= first) {
			t.Fatalf("step %d: builder NodeByName(twice) = %d, %v", step, nd.ID, ok)
		}
		if nd, ok := b.NodeByName("a"); !ok || nd.ID != 0 {
			t.Fatalf("step %d: builder NodeByName(a) = %d, %v; the first node added wins", step, nd.ID, ok)
		}
		next := b.Build()
		if len(next.byName.overlay) > nameOverlayMax+16 {
			t.Fatalf("step %d: overlay grew to %d names", step, len(next.byName.overlay))
		}
		if len(next.byName.base) != len(base.byName.base) {
			folds++
		} else if len(base.byName.base) > 0 && reflect.ValueOf(next.byName.base).Pointer() != reflect.ValueOf(base.byName.base).Pointer() {
			t.Fatalf("step %d: a node-adding commit copied the base name map", step)
		}
		check(step, next)
		versions = append(versions, next)
	}
	if folds == 0 {
		t.Fatal("the overlay never folded: the chain must cross nameOverlayMax")
	}
	for step, s := range versions[1:] {
		check(step, s) // later commits changed nothing an earlier version reads
	}
}

// TestBuilderTypeIndexCOW: the type → ids index is shared copy-on-write.
// An edge-only write shares the whole index; adding a node copies only
// its type's id list, every other type's list is shared by pointer, and
// neither the base snapshot nor the graph it was frozen from sees the
// new id.
func TestBuilderTypeIndexCOW(t *testing.T) {
	g := snapTestGraph()
	base := g.Snapshot()
	b := NewBuilder(base)
	if err := b.AddEdge(2, "x", 0); err != nil {
		t.Fatal(err)
	}
	if next := b.Build(); &next.NodesOfType("t")[0] != &base.NodesOfType("t")[0] || &next.NodesOfType("u")[0] != &base.NodesOfType("u")[0] {
		t.Error("edge-only write copied the type index")
	}

	b = NewBuilder(base)
	d := b.AddNode("d", "t")
	e := b.AddNode("e", "v")
	f := b.AddNode("f", "t")
	next := b.Build()
	if &next.NodesOfType("u")[0] != &base.NodesOfType("u")[0] {
		t.Error("untouched type u was copied")
	}
	if &next.NodesOfType("t")[0] == &base.NodesOfType("t")[0] {
		t.Error("touched type t still shares its id list with the base")
	}
	if got, want := next.NodesOfType("t"), []NodeID{0, 1, d, f}; !reflect.DeepEqual(got, want) {
		t.Errorf("next NodesOfType(t) = %v, want %v", got, want)
	}
	if got, want := next.NodesOfType("v"), []NodeID{e}; !reflect.DeepEqual(got, want) {
		t.Errorf("next NodesOfType(v) = %v, want %v", got, want)
	}
	// The graph keeps growing after the freeze, into the same backing
	// array the snapshot's list was clipped from.
	g.AddNode("g", "t")
	for _, s := range []*Snapshot{base, NewBuilder(base).Build()} {
		if got, want := s.NodesOfType("t"), []NodeID{0, 1}; !reflect.DeepEqual(got, want) {
			t.Errorf("base NodesOfType(t) = %v, want %v", got, want)
		}
		if s.NodesOfType("v") != nil {
			t.Error("base snapshot sees the new type")
		}
	}
	if got, want := g.NodesOfType("t"), []NodeID{0, 1, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("graph NodesOfType(t) = %v, want %v", got, want)
	}
}

// TestBuilderTypeColumnCOW: the type column is carried with the node
// table. An edge-only write shares it; a node-adding write appends the
// new nodes' type ids to a copy, so the base, the graph it was frozen
// from and a second write from the same base each keep their own. Every
// view's type domain holds exactly the type's NodesOfType, so a type is
// unknown before the write that adds it.
func TestBuilderTypeColumnCOW(t *testing.T) {
	g := snapTestGraph()
	base := g.Snapshot()
	b := NewBuilder(base)
	if err := b.AddEdge(2, "x", 0); err != nil {
		t.Fatal(err)
	}
	if next := b.Build(); &next.types.col[0] != &base.types.col[0] {
		t.Error("edge-only write copied the type column")
	}

	b = NewBuilder(base)
	d := b.AddNode("d", "t")
	e := b.AddNode("e", "v")
	next := b.Build()
	fork := NewBuilder(base)
	o := fork.AddNode("o", "u")
	forked := fork.Build()
	g.AddNode("g", "v")
	for _, tc := range []struct {
		name string
		view *Snapshot
		typ  string
		want []NodeID
	}{
		{"base", base, "t", []NodeID{0, 1}},
		{"base", base, "v", nil},
		{"next", next, "t", []NodeID{0, 1, d}},
		{"next", next, "v", []NodeID{e}},
		{"next", next, "u", []NodeID{2}},
		{"fork", forked, "u", []NodeID{2, o}},
		{"fork", forked, "v", nil},
		{"graph", g.Snapshot(), "v", []NodeID{3}},
		{"graph", g.Snapshot(), "", nil},
	} {
		dom := tc.view.TypeDomain(tc.typ)
		var got []NodeID
		for v := NodeID(-1); int(v) <= tc.view.NumNodes()+1; v++ {
			if dom.Has(v) {
				got = append(got, v)
			}
		}
		if !reflect.DeepEqual(got, tc.want) || !reflect.DeepEqual(got, tc.view.NodesOfType(tc.typ)) {
			t.Errorf("%s: domain of type %q holds %v, want %v (NodesOfType %v)", tc.name, tc.typ, got, tc.want, tc.view.NodesOfType(tc.typ))
		}
	}
	if !AllNodes.Has(0) || !AllNodes.Has(1<<30) || (Domain{}).Has(0) {
		t.Error("AllNodes must hold every node and the zero Domain none")
	}
}

// TestBuilderRemoveSemantics mirrors Graph.RemoveEdge: one occurrence
// at a time, labels vanish with their last edge, absent edges refuse.
func TestBuilderRemoveSemantics(t *testing.T) {
	base := snapTestGraph().Snapshot()
	b := NewBuilder(base)
	if !b.RemoveEdge(0, "x", 1) {
		t.Fatal("first parallel occurrence should remove")
	}
	if got := b.EdgeCount(0, "x", 1); got != 1 {
		t.Errorf("EdgeCount after one removal = %d, want 1", got)
	}
	if !b.RemoveEdge(0, "x", 1) {
		t.Fatal("second parallel occurrence should remove")
	}
	if b.RemoveEdge(0, "x", 1) {
		t.Error("third removal should refuse")
	}
	next := b.Build()
	if next.EdgeCount(0, "x", 1) != 0 {
		t.Error("parallel edges survive in built snapshot")
	}
	if !next.HasLabel("x") { // b -x→ c remains
		t.Error("label x should survive (one edge left)")
	}

	// Remove the last y edge: the label must disappear.
	b2 := NewBuilder(next)
	if !b2.RemoveEdge(0, "y", 2) {
		t.Fatal("remove y")
	}
	final := b2.Build()
	if final.HasLabel("y") {
		t.Error("label y should vanish with its last edge")
	}
	if got := len(final.Labels()); got != 1 {
		t.Errorf("labels = %v, want [x]", final.Labels())
	}
}

// TestBuilderReadYourWrites: a node added in the builder can anchor an
// edge in the same transaction, and cancelled adds are invisible.
func TestBuilderReadYourWrites(t *testing.T) {
	base := snapTestGraph().Snapshot()
	b := NewBuilder(base)
	d := b.AddNode("d", "t")
	if !b.Has(d) {
		t.Fatal("builder does not see its own node")
	}
	if err := b.AddEdge(d, "z", 0); err != nil {
		t.Fatal(err)
	}
	if got := b.EdgeCount(d, "z", 0); got != 1 {
		t.Errorf("pending edge count = %d, want 1", got)
	}
	if !b.RemoveEdge(d, "z", 0) {
		t.Fatal("cancelling a pending add should succeed")
	}
	next := b.Build()
	if next.HasLabel("z") {
		t.Error("cancelled add leaked into the snapshot")
	}
	if next.NumNodes() != 4 {
		t.Errorf("nodes = %d, want 4", next.NumNodes())
	}
}

// TestBuilderRoundTripEqual: applying the same mutations to a mutable
// graph and through a builder yields the same database.
func TestBuilderRoundTripEqual(t *testing.T) {
	g := snapTestGraph()
	b := NewBuilder(g.Snapshot())

	d := g.AddNode("d", "t")
	if bd := b.AddNode("d", "t"); bd != d {
		t.Fatalf("ids diverge: %d vs %d", bd, d)
	}
	g.AddEdge(d, "x", 0)
	if err := b.AddEdge(d, "x", 0); err != nil {
		t.Fatal(err)
	}
	g.RemoveEdge(0, "x", 1)
	if !b.RemoveEdge(0, "x", 1) {
		t.Fatal("builder remove")
	}

	want := g.Snapshot()
	got := b.Build()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d", got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	for _, l := range want.Labels() {
		if !got.Adjacency(l).Equal(want.Adjacency(l)) {
			t.Errorf("adjacency %q differs after builder round trip", l)
		}
		if !got.Adjacency(l).Transpose().Equal(inAdjacency(got, l)) {
			t.Errorf("in-adjacency %q inconsistent with out-adjacency", l)
		}
	}
}

// inAdjacency builds the matrix implied by the In() lists so tests can
// check both directions stay in sync through rebuilds.
func inAdjacency(s *Snapshot, label string) *sparse.Matrix {
	var triples []sparse.Triple
	for v := 0; v < s.NumNodes(); v++ {
		for _, u := range s.In(NodeID(v), label) {
			triples = append(triples, sparse.Triple{Row: v, Col: int(u), Val: 1})
		}
	}
	return sparse.New(s.NumNodes(), triples)
}
