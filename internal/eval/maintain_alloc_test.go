package eval_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"relsim/internal/datasets"
	"relsim/internal/eval"
	"relsim/internal/graph"
	"relsim/internal/pattern"
	"relsim/internal/rre"
	"relsim/internal/sim"
	"relsim/internal/sparse"
)

// benchPool is the pattern pool bench/workloads.go keeps warm: the
// headline query and its side patterns, with the type they are scored
// over.
var benchPool = []struct{ pattern, typ string }{
	{"p-in-.r-a.r-a-.p-in", "proc"},
	{"p-in-.w-.w.p-in", "proc"},
	{"w.w-", "author"},
	{"w.p-in.p-in-.w-", "author"},
	{"p-in.p-in-", "paper"},
	{"w-.w", "paper"},
	{"w.w-.w.w-", "author"},
	{"w-.w.w-.w", "paper"},
	{"w.(p-in.p-in- + w-.w).w-", "author"},
	{"(p-in.p-in- + w-.w)", "paper"},
	{"p-in-.(w-.w + p-in.p-in-).p-in", "proc"},
}

// TestMaintainAllocatesWhatItTouches is the gate on "a commit costs the
// rows it touches": on FullDBLP with the benchmark's 25-entry pool
// warm, a commit shaped like the benchmark's (one node, a p-in and a w
// edge in, an older w edge out) through Cache.Maintain allocates at
// most 10 MB — the spans of the entries it patches and little else.
// Rewriting every cached entry in full, as Add over n-dimensional
// deltas did, allocated 33.6 MB. The first commit is not measured: it
// moves each kernel-made entry into an arena with headroom, once.
func TestMaintainAllocatesWhatItTouches(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are inflated by the race detector")
			}
		}
	}
	ds, err := datasets.ByName("dblp")
	if err != nil {
		t.Fatal(err)
	}
	snap := ds.Graph.Snapshot()
	cache := eval.NewCache()
	ev := eval.NewVersioned(snap, 0, cache)
	ev.SetCanonicalKeys(true)
	for _, b := range benchPool {
		ps := []*rre.Pattern{rre.MustParse(b.pattern)}
		if ps[0].IsSimple() {
			if ps, err = pattern.Generate(ds.Schema, ps[0], pattern.Default()); err != nil {
				t.Fatal(err)
			}
		}
		cands := snap.NodesOfType(b.typ)
		sim.RelSimAggregate(ev, ps, cands[0], cands)
	}
	if ev.CacheSize() != 25 {
		t.Fatalf("warm pool holds %d entries, want 25", ev.CacheSize())
	}

	rng := rand.New(rand.NewSource(1))
	procs, authors := snap.NodesOfType("proc"), snap.NodesOfType("author")
	type wEdge struct{ author, paper graph.NodeID }
	var added []wEdge
	const commits = 9
	var measured uint64
	for k := 0; k < commits; k++ {
		b := graph.NewBuilder(snap)
		paper := b.AddNode(fmt.Sprintf("benchpaper%d", k), "paper")
		e, proc := wEdge{authors[rng.Intn(len(authors))], paper}, procs[rng.Intn(len(procs))]
		added = append(added, e)
		if err := b.AddEdge(paper, "p-in", proc); err != nil {
			t.Fatal(err)
		}
		if err := b.AddEdge(e.author, "w", paper); err != nil {
			t.Fatal(err)
		}
		labels := map[string][]sparse.Triple{
			"p-in": {{Row: int(paper), Col: int(proc), Val: 1}},
			"w":    {{Row: int(e.author), Col: int(paper), Val: 1}},
		}
		if k >= 2 {
			old := added[k-2]
			if !b.RemoveEdge(old.author, "w", old.paper) {
				t.Fatalf("commit %d: edge of commit %d missing", k, k-2)
			}
			labels["w"] = append(labels["w"], sparse.Triple{Row: int(old.author), Col: int(old.paper), Val: -1})
		}
		next := b.Build()
		d := eval.CommitDelta{From: uint64(k), To: uint64(k + 1), OldN: snap.NumNodes(), NewN: next.NumNodes(),
			Labels: map[string]*sparse.Delta{}}
		for l, ts := range labels {
			d.Labels[l] = sparse.NewDelta(d.NewN, ts)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := cache.Maintain(next, d, eval.MaintainOptions{})
		runtime.ReadMemStats(&after)
		if res.Maintained != 25 || res.Fallbacks != 0 || res.Products != 34 {
			t.Fatalf("commit %d: %+v, want 25 maintained, 0 fallbacks, 34 delta products", k, res)
		}
		if k > 0 {
			measured += after.TotalAlloc - before.TotalAlloc
		}
		cache.Advance(d.From, d.To, []string{"p-in", "w"}, true, false)
		snap = next
	}
	perCommit := float64(measured) / (commits - 1) / (1 << 20)
	t.Logf("Cache.Maintain allocates %.1f MB per commit", perCommit)
	if perCommit > 10 {
		t.Errorf("Cache.Maintain allocates %.1f MB per commit, want at most 10", perCommit)
	}
}
