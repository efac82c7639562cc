package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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

// TestSnapshotMirrorsGraph: the snapshot a Graph builds answers what
// the graph's own reads answered over its pending writes, and its
// directions, adjacency matrices and edge list agree with each other.
func TestSnapshotMirrorsGraph(t *testing.T) {
	g := snapTestGraph()
	g.Snapshot()
	d := g.AddNode("d", "t")
	g.AddEdge(d, "x", 0)
	g.AddEdge(2, "z", d)
	g.RemoveEdge(0, "y", 2) // the last committed "y" edge
	g.RemoveEdge(0, "x", 1) // one of two parallel edges

	labels := []string{"x", "y", "z"}
	n := g.NumNodes()
	counts := map[Edge]int{}
	for u := NodeID(0); int(u) < n; u++ {
		for _, l := range labels {
			for v := NodeID(0); int(v) < n; v++ {
				counts[Edge{u, l, v}] = g.EdgeCount(u, l, v)
			}
		}
	}
	byName, ok := g.NodeByName("d")
	if !ok || byName.ID != d {
		t.Fatalf("pending NodeByName(d) = %+v, %v", byName, ok)
	}

	s := g.Snapshot()
	if s.NumNodes() != n {
		t.Fatalf("nodes: snapshot %d, graph %d", s.NumNodes(), n)
	}
	if got, ok := s.NodeByName("d"); !ok || got != byName {
		t.Errorf("NodeByName(d) = %+v, %v, graph had %+v", got, ok, byName)
	}
	if want := []string{"x", "z"}; !reflect.DeepEqual(s.Labels(), want) {
		t.Errorf("labels = %v, want %v", s.Labels(), want)
	}
	if !reflect.DeepEqual(s.NodesOfType("t"), []NodeID{0, 1, d}) {
		t.Errorf("NodesOfType(t) = %v", s.NodesOfType("t"))
	}
	var edges []Edge
	degree := make([]int, n)
	for _, l := range labels {
		a := s.Adjacency(l)
		for u := NodeID(0); int(u) < n; u++ {
			for v := NodeID(0); int(v) < n; v++ {
				want := counts[Edge{u, l, v}]
				degree[u] += want
				degree[v] += want
				for range want {
					edges = append(edges, Edge{u, l, v})
				}
				if got := s.EdgeCount(u, l, v); got != want {
					t.Errorf("EdgeCount(%d,%s,%d) = %d, graph had %d", u, l, v, got, want)
				}
				if got := a.At(int(u), int(v)); got != int64(want) {
					t.Errorf("adjacency %q (%d,%d) = %d, graph had %d", l, u, v, got, want)
				}
				if got := countOf(s.Out(u, l), v); got != want {
					t.Errorf("out(%d,%s) holds %d %d times, graph had %d", u, l, v, got, want)
				}
				if got := countOf(s.In(v, l), u); got != want {
					t.Errorf("in(%d,%s) holds %d %d times, graph had %d", v, l, u, got, want)
				}
			}
		}
	}
	for u := NodeID(0); int(u) < n; u++ {
		if s.Degree(u) != degree[u] {
			t.Errorf("degree %d = %d, graph had %d", u, s.Degree(u), degree[u])
		}
	}
	if s.NumEdges() != len(edges) {
		t.Errorf("NumEdges = %d, graph had %d", s.NumEdges(), len(edges))
	}
	// Edges lists by (label, from, to), the order the loops above use.
	if !reflect.DeepEqual(s.Edges(), edges) {
		t.Errorf("edges: %v, graph had %v", s.Edges(), edges)
	}
}

func countOf(row []NodeID, v NodeID) int {
	c := 0
	for _, w := range row {
		if w == v {
			c++
		}
	}
	return c
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
// map rebuilt from the node table. The overlay folds into a fresh base
// whenever it would grow as large as base; a node-adding commit that
// does not fold never copies the base map, and earlier versions never
// see later names.
func TestBuilderNameIndexCOW(t *testing.T) {
	check := func(step int, s *Snapshot) {
		t.Helper()
		want := make(map[string]NodeID)
		for _, nd := range s.nodes {
			if _, dup := want[nd.Name]; !dup && nd.Name != "" {
				want[nd.Name] = nd.ID
			}
		}
		if got := len(s.byName.base) + s.byName.size; got != len(want) {
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
		if next.byName.size >= len(next.byName.base) {
			t.Fatalf("step %d: overlay grew to %d names over a base of %d", step, next.byName.size, len(next.byName.base))
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
		t.Fatal("the overlay never folded")
	}
	for step, s := range versions[1:] {
		check(step, s) // later commits changed nothing an earlier version reads
	}
}

// TestBuilderTypeIndexCOW: the type → ids index is shared by the
// versions derived from one another. An edge-only write shares the
// whole index, and an untouched type's id list is shared by pointer.
// Whether a node-adding write appends in place (it took the base's tail
// claim) or copies (a fork from the same base, or a retry after a
// rolled-back builder took the claim), every version keeps exactly its
// own ids, and neither the base nor the graph it was frozen from sees a
// later node.
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
	// next's lists have room to grow: the next writer appends in place,
	// a fork from next and a retry after a rolled-back one copy.
	NewBuilder(next).AddNode("rolled-back", "t")
	retry := NewBuilder(next)
	r := retry.AddNode("r", "t")
	retried := retry.Build()
	inPlace := NewBuilder(retried)
	h := inPlace.AddNode("h", "t")
	grown := inPlace.Build()
	fork := NewBuilder(retried)
	k := fork.AddNode("k", "t")
	forked := fork.Build()
	g.AddNode("g", "t")
	for _, tc := range []struct {
		name string
		view *Snapshot
		want []NodeID
	}{
		{"base", base, []NodeID{0, 1}},
		{"base, edge-only", NewBuilder(base).Build(), []NodeID{0, 1}},
		{"next", next, []NodeID{0, 1, d, f}},
		{"retried", retried, []NodeID{0, 1, d, f, r}},
		{"grown", grown, []NodeID{0, 1, d, f, r, h}},
		{"forked", forked, []NodeID{0, 1, d, f, r, k}},
		{"graph", g.Snapshot(), []NodeID{0, 1, 3}},
	} {
		if got := tc.view.NodesOfType("t"); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: NodesOfType(t) = %v, want %v", tc.name, got, tc.want)
		}
		for i, id := range tc.want {
			if nd := tc.view.Node(id); nd.Type != "t" || nd.ID != id {
				t.Errorf("%s: node %d (the %dth of type t) is %+v", tc.name, id, i, nd)
			}
		}
	}
	if got, want := next.NodesOfType("v"), []NodeID{e}; !reflect.DeepEqual(got, want) {
		t.Errorf("next NodesOfType(v) = %v, want %v", got, want)
	}
	if base.NodesOfType("v") != nil {
		t.Error("base snapshot sees the new type")
	}
	if &grown.nodes[0] != &retried.nodes[0] || &forked.nodes[0] == &retried.nodes[0] {
		t.Error("the first node-adding writer must extend the node table in place, and only it")
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
	if !slices.Contains(next.Labels(), "x") { // b -x→ c remains
		t.Error("label x should survive (one edge left)")
	}

	// Remove the last y edge: the label must disappear.
	b2 := NewBuilder(next)
	if !b2.RemoveEdge(0, "y", 2) {
		t.Fatal("remove y")
	}
	final := b2.Build()
	if slices.Contains(final.Labels(), "y") {
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
	if slices.Contains(next.Labels(), "z") {
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

// TestNameIndexAcrossForks derives 300 versions by node-adding builders
// from random earlier versions — forks, and forks of forks — some rolled
// back after they took their base's tail claim or after they built,
// adding fresh names, names earlier versions hold, or unnamed nodes only. Every version resolves every name to the
// first node of its own table with it, when it is made and at the end,
// after later versions extended or forked what it shares.
func TestNameIndexAcrossForks(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	const names = 4000
	check := func(step int, s *Snapshot) {
		t.Helper()
		first := make(map[string]NodeID)
		for _, nd := range s.nodes {
			if _, dup := first[nd.Name]; !dup {
				first[nd.Name] = nd.ID
			}
		}
		for i := 0; i < names; i++ {
			name := fmt.Sprintf("s%d", i)
			id, want := first[name]
			if nd, ok := s.NodeByName(name); ok != want || ok && nd.ID != id {
				t.Fatalf("version %d: NodeByName(%q) = %d, %v; want %d, %v", step, name, nd.ID, ok, id, want)
			}
		}
	}
	versions := []*Snapshot{emptySnapshot()}
	for step := 0; step < 300; step++ {
		base := versions[len(versions)-1]
		if rng.Intn(3) == 0 {
			base = versions[rng.Intn(len(versions))]
		}
		b := NewBuilder(base)
		unnamed := rng.Intn(4) == 0
		for i := rng.Intn(6); i >= 0; i-- {
			name := fmt.Sprintf("s%d", rng.Intn(names))
			if unnamed {
				name = ""
			}
			b.AddNode(name, "t")
		}
		switch rng.Intn(6) {
		case 0:
			continue // rolled back, holding the claim
		case 1:
			b.Build()
			continue // rolled back after it built, as a failed log append is
		}
		next := b.Build()
		check(step, next)
		versions = append(versions, next)
	}
	for step, s := range versions {
		check(step, s)
	}
}

// TestForkAddingNoNameHidesSiblingNames: a builder that took a version's
// tail claim and built, named "alice" at id 5, then was dropped; a fork
// of the same version adds an unnamed node at id 5. The fork must not
// resolve "alice", must let a later "alice" be added, and what its own
// descendants add must not show through to the dropped lineage's.
func TestForkAddingNoNameHidesSiblingNames(t *testing.T) {
	b := NewBuilder(nil)
	for i := 0; i < 4; i++ {
		b.AddNode(fmt.Sprintf("n%d", i), "t")
	}
	b = NewBuilder(b.Build())
	b.AddNode("x", "t") // an overlay, not a fold: the base holds 4 names
	base := b.Build()
	if base.byName.overlay == nil {
		t.Fatal("base has no overlay; the test needs one")
	}

	sib := NewBuilder(base)
	sib.AddNode("alice", "t")
	sibling := sib.Build()

	f := NewBuilder(base)
	f.AddNode("", "t")
	fork := f.Build()
	if nd, ok := fork.NodeByName("alice"); ok {
		t.Fatalf("fork resolves a sibling's name: alice = node %d", nd.ID)
	}
	fb := NewBuilder(fork)
	alice := fb.AddNode("alice", "t")
	fb.AddNode("bob", "t")
	child := fb.Build()
	if nd, ok := child.NodeByName("alice"); !ok || nd.ID != alice {
		t.Fatalf("fork's child: alice = %d, %v; want %d", nd.ID, ok, alice)
	}

	sb := NewBuilder(sibling)
	sb.AddNode("", "t")
	sb.AddNode("", "t")
	nephew := sb.Build()
	if nd, ok := nephew.NodeByName("bob"); ok {
		t.Fatalf("sibling lineage resolves the fork's name: bob = node %d", nd.ID)
	}
	if nd, ok := nephew.NodeByName("alice"); !ok || nd.ID != 5 {
		t.Fatalf("sibling lineage: alice = %d, %v; want 5", nd.ID, ok)
	}
}
