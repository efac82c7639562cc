package graph_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"relsim/internal/datasets"
	"relsim/internal/graph"
)

// TestSnapshotAfterWriteCostsABuild: on FullDBLP, the snapshot a Graph
// takes after a one-paper write (a named node, a p-in edge and a w
// edge) is a Builder.Build of that write. It allocates at most 1.25×
// what Build of the same write over the same kind of version does
// (compiling every label afresh allocated 2.4 MB against Build's
// 0.51 MB), and shares every untouched label's adjacency with the
// snapshot before it.
func TestSnapshotAfterWriteCostsABuild(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are inflated by the race detector")
			}
		}
	}
	g := datasets.DBLP(datasets.FullDBLP()).Graph
	s0 := g.Snapshot()
	procs, authors := s0.NodesOfType("proc"), s0.NodesOfType("author")
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	sameArray := func(a, b []graph.NodeID) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }
	// Two chains from s0: the Graph's, and one of bare builders. The
	// first write of each is not measured: one of them finds s0's node
	// table claimed and copies it, and neither type column has room yet.
	built := s0
	var viaGraph, viaBuild []uint64
	for k := range 8 {
		prev := g.Snapshot()
		paper := g.AddNode(fmt.Sprintf("onepaper%d", k), "paper")
		g.AddEdge(paper, "p-in", procs[k])
		g.AddEdge(authors[k], "w", paper)
		var next *graph.Snapshot
		a := allocated(func() { next = g.Snapshot() })

		b := graph.NewBuilder(built)
		paper = b.AddNode(fmt.Sprintf("onepaper%d", k), "paper")
		if err := b.AddEdge(paper, "p-in", procs[k]); err != nil {
			t.Fatal(err)
		}
		if err := b.AddEdge(authors[k], "w", paper); err != nil {
			t.Fatal(err)
		}
		c := allocated(func() { built = b.Build() })
		if k == 0 {
			continue
		}
		viaGraph, viaBuild = append(viaGraph, a), append(viaBuild, c)

		for _, l := range prev.Labels() {
			if l == "p-in" || l == "w" {
				continue
			}
			out, in := false, false
			for u := range graph.NodeID(prev.NumNodes()) {
				out = out || sameArray(prev.Out(u, l), next.Out(u, l))
				in = in || sameArray(prev.In(u, l), next.In(u, l))
			}
			if !out || !in {
				t.Fatalf("write %d: untouched label %s was copied (out shared %v, in shared %v)", k, l, out, in)
			}
		}
	}
	slices.Sort(viaGraph)
	slices.Sort(viaBuild)
	a, c := viaGraph[len(viaGraph)/2], viaBuild[len(viaBuild)/2]
	t.Logf("after a one-paper write, Snapshot allocates %d bytes, Build %d (medians of %d)", a, c, len(viaGraph))
	if a*4 > c*5 {
		t.Errorf("Snapshot after a one-paper write allocates %d bytes, over 1.25× Build's %d", a, c)
	}
}
