package graph

import "testing"

func TestRemoveEdge(t *testing.T) {
	g := New()
	a := g.AddNode("a", "")
	b := g.AddNode("b", "")
	g.AddEdge(a, "x", b)
	g.AddEdge(a, "x", b) // parallel
	g.AddEdge(b, "y", a)

	if g.RemoveEdge(a, "x", 5) {
		t.Error("RemoveEdge with missing target: want false")
	}
	if g.RemoveEdge(b, "x", a) {
		t.Error("RemoveEdge of absent edge: want false")
	}

	if !g.RemoveEdge(a, "x", b) {
		t.Fatal("RemoveEdge of parallel edge: want true")
	}
	if got := g.EdgeCount(a, "x", b); got != 1 {
		t.Errorf("EdgeCount after removing one parallel edge = %d, want 1", got)
	}
	if got := g.NumEdges(); got != 2 {
		t.Errorf("NumEdges = %d, want 2", got)
	}
	if got := len(g.Snapshot().In(b, "x")); got != 1 {
		t.Errorf("in-neighbor list length = %d, want 1", got)
	}

	if !g.RemoveEdge(a, "x", b) {
		t.Fatal("RemoveEdge of last x edge: want true")
	}
	if g.HasLabel("x") {
		t.Error("label x still reported after its last edge was removed")
	}
	if got := g.Labels(); len(got) != 1 || got[0] != "y" {
		t.Errorf("Labels = %v, want [y]", got)
	}

	// Adjacency of the removed label is all-zero; y is untouched.
	s := g.Snapshot()
	if s.Adjacency("x").At(int(a), int(b)) != 0 {
		t.Error("adjacency of removed edge is nonzero")
	}
	if s.Adjacency("y").At(int(b), int(a)) != 1 {
		t.Error("unrelated label lost its edge")
	}
}

func TestRemoveEdgeThenAddAgain(t *testing.T) {
	g := New()
	a := g.AddNode("", "")
	b := g.AddNode("", "")
	g.AddEdge(a, "x", b)
	g.RemoveEdge(a, "x", b)
	g.AddEdge(a, "x", b)
	if !g.HasEdge(a, "x", b) {
		t.Error("edge missing after remove+add")
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
}
