package graph_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

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

// TestBuildCostsTouchedChunksAtScale: Builder.Build of a one-paper
// write (a named node, a p-in edge and a w edge) rebuilds the chunks
// holding the rows it touched and copies the directories over them,
// never a label's whole adjacency. On FullDBLP (×1) and on FullDBLP with
// 16 times the proceedings and the author pool (×16, 312,421 nodes),
// each chain extending its own last version as a store does, the ×16
// median allocates and takes at most twice the ×1 median (15× and 15×
// when a touched label's whole CSR was copied).
func TestBuildCostsTouchedChunksAtScale(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are inflated by the race detector")
			}
		}
	}
	if testing.Short() {
		t.Skip("generates a 312k-node graph")
	}
	cfg := datasets.FullDBLP()
	cfg.Procs, cfg.AuthorsPool = 16*cfg.Procs, 16*cfg.AuthorsPool
	snaps := []*graph.Snapshot{datasets.DBLP(datasets.FullDBLP()).Graph.Snapshot(), datasets.DBLP(cfg).Graph.Snapshot()}
	procs := [2][]graph.NodeID{snaps[0].NodesOfType("proc"), snaps[1].NodesOfType("proc")}
	authors := [2][]graph.NodeID{snaps[0].NodesOfType("author"), snaps[1].NodesOfType("author")}
	// The collector is held off while the builds run, so neither scale's
	// builds pay for marking the other's heap.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 41
	var bytes [2][]uint64
	var took [2][]time.Duration
	var before, after runtime.MemStats
	for k := 0; k < n; k++ {
		for i := range snaps {
			b := graph.NewBuilder(snaps[i])
			paper := b.AddNode(fmt.Sprintf("onepaper%d", k), "paper")
			if err := b.AddEdge(paper, "p-in", procs[i][k*7%len(procs[i])]); err != nil {
				t.Fatal(err)
			}
			if err := b.AddEdge(authors[i][k*131%len(authors[i])], "w", paper); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&before)
			start := time.Now()
			snaps[i] = b.Build()
			dt := time.Since(start)
			runtime.ReadMemStats(&after)
			if k > 0 { // the first write finds no room in the type column
				bytes[i], took[i] = append(bytes[i], after.TotalAlloc-before.TotalAlloc), append(took[i], dt)
			}
		}
	}
	for i := range bytes {
		slices.Sort(bytes[i])
		slices.Sort(took[i])
	}
	b1, b16 := bytes[0][len(bytes[0])/2], bytes[1][len(bytes[1])/2]
	t1, t16 := took[0][len(took[0])/2], took[1][len(took[1])/2]
	t.Logf("one-paper Build medians: ×1 %v and %d bytes, ×16 (n = %d) %v and %d bytes", t1, b1, snaps[1].NumNodes(), t16, b16)
	if b16 > 2*b1 {
		t.Errorf("a one-paper Build at ×16 allocates %d bytes (median), want at most twice ×1's %d", b16, b1)
	}
	if t16 > 2*t1 {
		t.Errorf("a one-paper Build at ×16 takes %v (median), want at most twice ×1's %v", t16, t1)
	}
}
