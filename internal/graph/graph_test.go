package graph

import (
	"bytes"
	"strings"
	"testing"
)

func small() *Graph {
	g := New()
	a := g.AddNode("a", "x")
	b := g.AddNode("b", "x")
	c := g.AddNode("c", "y")
	g.AddEdge(a, "l1", b)
	g.AddEdge(b, "l1", c)
	g.AddEdge(a, "l2", c)
	return g
}

func TestAddAndQuery(t *testing.T) {
	g := small()
	s := g.Snapshot()
	if g.NumNodes() != 3 || s.NumEdges() != 3 {
		t.Fatalf("nodes=%d edges=%d", g.NumNodes(), s.NumEdges())
	}
	if !s.HasEdge(0, "l1", 1) {
		t.Error("missing edge (0,l1,1)")
	}
	if s.HasEdge(1, "l2", 0) {
		t.Error("phantom edge (1,l2,0)")
	}
	if got := s.Out(0, "l1"); len(got) != 1 || got[0] != 1 {
		t.Errorf("Out(0,l1) = %v", got)
	}
	if got := s.In(2, "l1"); len(got) != 1 || got[0] != 1 {
		t.Errorf("In(2,l1) = %v", got)
	}
	if s.Degree(0) != 2 {
		t.Errorf("Degree(0) = %d, want 2", s.Degree(0))
	}
	labels := s.Labels()
	if len(labels) != 2 || labels[0] != "l1" || labels[1] != "l2" {
		t.Errorf("Labels = %v", labels)
	}
}

func TestNodeByName(t *testing.T) {
	g := small()
	n, ok := g.NodeByName("b")
	if !ok || n.ID != 1 || n.Type != "x" {
		t.Errorf("NodeByName(b) = %+v, %v", n, ok)
	}
	if _, ok := g.NodeByName("zzz"); ok {
		t.Error("NodeByName(zzz) should miss")
	}
}

func TestNodesOfType(t *testing.T) {
	g := small()
	xs := g.NodesOfType("x")
	if len(xs) != 2 || xs[0] != 0 || xs[1] != 1 {
		t.Errorf("NodesOfType(x) = %v", xs)
	}
	if len(g.NodesOfType("none")) != 0 {
		t.Error("NodesOfType(none) should be empty")
	}
}

func TestAdjacency(t *testing.T) {
	g := small()
	a := g.Snapshot().Adjacency("l1")
	if a.At(0, 1) != 1 || a.At(1, 2) != 1 {
		t.Error("adjacency entries missing")
	}
	if a.At(0, 2) != 0 {
		t.Error("wrong-label edge leaked into adjacency")
	}
	// Parallel edges accumulate counts.
	g2 := New()
	u := g2.AddNode("", "")
	v := g2.AddNode("", "")
	g2.AddEdge(u, "l", v)
	g2.AddEdge(u, "l", v)
	if g2.Snapshot().Adjacency("l").At(0, 1) != 2 {
		t.Error("parallel edges must count")
	}
}

func TestEdgeCount(t *testing.T) {
	g := New()
	u := g.AddNode("", "")
	v := g.AddNode("", "")
	g.AddEdge(u, "l", v)
	g.AddEdge(u, "l", v)
	if got := g.EdgeCount(u, "l", v); got != 2 {
		t.Errorf("EdgeCount = %d, want 2", got)
	}
}

// TestCloneIndependence: two graphs that start from one snapshot share
// its storage but not their writes, in either direction.
func TestCloneIndependence(t *testing.T) {
	g := small()
	c := &Graph{snap: g.Snapshot()}
	if !g.Equal(c) {
		t.Fatal("fork must equal original")
	}
	c.AddEdge(0, "l1", 2)
	if g.Equal(c) {
		t.Error("writing to the fork must not affect the original")
	}
	if g.Snapshot().NumEdges() != 3 || g.EdgeCount(0, "l1", 2) != 0 {
		t.Error("original edge count changed")
	}
	g.RemoveEdge(0, "l2", 2)
	g.AddNode("d", "x")
	if c.EdgeCount(0, "l2", 2) != 1 || c.NumNodes() != 3 || c.Snapshot().NumEdges() != 4 {
		t.Error("writing to the original must not affect the fork")
	}
}

func TestEqualEdges(t *testing.T) {
	g := small()
	h := New()
	h.AddNode("different", "t")
	h.AddNode("names", "t")
	h.AddNode("here", "t")
	h.AddEdge(0, "l1", 1)
	h.AddEdge(1, "l1", 2)
	h.AddEdge(0, "l2", 2)
	if !g.EqualEdges(h) {
		t.Error("EqualEdges must ignore names/types")
	}
	if g.Equal(h) {
		t.Error("Equal must not ignore names/types")
	}
	h.AddEdge(0, "l1", 2)
	if g.EqualEdges(h) {
		t.Error("extra edge must break EqualEdges")
	}
}

func TestEdgesDeterministic(t *testing.T) {
	g := small()
	e1 := g.Snapshot().Edges()
	e2 := g.Snapshot().Edges()
	if len(e1) != 3 {
		t.Fatalf("Edges len = %d", len(e1))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("Edges order must be deterministic")
		}
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := New()
	g.AddNode("", "")
	for _, fn := range []func(){
		func() { g.AddEdge(0, "l", 5) },
		func() { g.AddEdge(5, "l", 0) },
		func() { g.AddEdge(0, "", 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestIORoundTrip(t *testing.T) {
	g := small()
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatalf("Write: %v", err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !g.Equal(back) {
		t.Error("I/O round trip lost information")
	}
}

func TestReadRejectsBadInput(t *testing.T) {
	cases := []string{
		`{"edge":{"from":0,"label":"l","to":1}}`,                             // edge before nodes
		`{"node":{"id":0}}` + "\n" + `{"edge":{"from":0,"label":"","to":0}}`, // empty label
		`{"node":{"id":5}}`, // out-of-order id
		`{}`,                // neither node nor edge
		`not json`,
	}
	for _, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("Read(%q) succeeded, want error", in)
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# comment\n\n" + `{"node":{"id":0,"name":"n","type":"t"}}` + "\n"
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if g.NumNodes() != 1 {
		t.Errorf("nodes = %d, want 1", g.NumNodes())
	}
}

func TestStats(t *testing.T) {
	if got, want := small().Snapshot().String(), "graph{nodes=3 edges=3 labels=2}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}
