package eval_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
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

// skipUnderRace skips a gate when the race detector is compiled in,
// for the reason given.
func skipUnderRace(t *testing.T, why string) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip(why)
			}
		}
	}
}

// warmPool is benchPool warm on FullDBLP at version 0, as the
// benchmark keeps it: each pool entry's patterns (a simple pattern
// expanded as the benchmark expands it) and candidates, over one
// canonical-key cache holding 25 entries.
type warmPool struct {
	snap     *graph.Snapshot
	cache    *eval.Cache
	patterns [][]*rre.Pattern
	cands    [][]graph.NodeID
}

func newWarmPool(t *testing.T) *warmPool {
	t.Helper()
	ds, err := datasets.ByName("dblp")
	if err != nil {
		t.Fatal(err)
	}
	w := &warmPool{snap: ds.Graph.Snapshot(), cache: eval.NewCache()}
	ev := eval.NewVersioned(w.snap, 0, w.cache)
	for _, b := range benchPool {
		ps := []*rre.Pattern{rre.MustParse(b.pattern)}
		if ps[0].IsSimple() {
			if ps, err = pattern.Generate(ds.Schema, ps[0], pattern.Default()); err != nil {
				t.Fatal(err)
			}
		}
		cands := w.snap.NodesOfType(b.typ)
		sim.RelSimAggregate(ev, ps, cands[0], cands)
		w.patterns, w.cands = append(w.patterns, ps), append(w.cands, cands)
	}
	if ev.CacheSize() != 25 {
		t.Fatalf("warm pool holds %d entries, want 25", ev.CacheSize())
	}
	return w
}

// benchCommits returns a function that makes commit k, shaped like the
// benchmark's: one paper node, a p-in and a w edge in, and from the
// third commit on the w edge of two commits back out. It returns the
// new snapshot and the commit's delta from version k to k+1.
func benchCommits(t *testing.T, w *warmPool) func(k int) (*graph.Snapshot, eval.CommitDelta) {
	rng := rand.New(rand.NewSource(1))
	procs, authors := w.snap.NodesOfType("proc"), w.snap.NodesOfType("author")
	type wEdge struct{ author, paper graph.NodeID }
	var added []wEdge
	snap := w.snap
	return func(k int) (*graph.Snapshot, eval.CommitDelta) {
		t.Helper()
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
		snap = next
		return next, d
	}
}

// maintain runs commit k through the cache as the server does, with no
// reader pinned, checks the exact counts of the benchmark's commits, and
// returns the bytes Cache.Commit allocated.
func (w *warmPool) maintain(t *testing.T, k int, next *graph.Snapshot, d eval.CommitDelta) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := w.cache.Commit(next, d, func() uint64 { return d.To })
	runtime.ReadMemStats(&after)
	if res.Maintained != 25 || res.Fallbacks != 0 || res.Products != 34 {
		t.Fatalf("commit %d: %+v, want 25 maintained, 0 fallbacks, 34 delta products", k, res)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestMaintainAllocatesWhatItTouches is the gate on "a commit costs the
// rows it touches": on FullDBLP with the benchmark's 25-entry pool
// warm, a commit shaped like the benchmark's (one node, a p-in and a w
// edge in, an older w edge out) through Cache.Commit allocates at
// most 10 MB — the spans of the entries it patches and little else.
// Rewriting every cached entry in full, as Add over n-dimensional
// deltas did, allocated 33.6 MB. The first commit is not measured: it
// moves each kernel-made entry into an arena with headroom, once.
func TestMaintainAllocatesWhatItTouches(t *testing.T) {
	skipUnderRace(t, "allocation counts are inflated by the race detector")
	w := newWarmPool(t)
	commit := benchCommits(t, w)
	const commits = 9
	var measured uint64
	for k := 0; k < commits; k++ {
		next, d := commit(k)
		if allocated := w.maintain(t, k, next, d); k > 0 {
			measured += allocated
		}
	}
	perCommit := float64(measured) / (commits - 1) / (1 << 20)
	t.Logf("Cache.Commit allocates %.1f MB per commit", perCommit)
	if perCommit > 10 {
		t.Errorf("Cache.Commit allocates %.1f MB per commit, want at most 10", perCommit)
	}
}

// firstReads runs nine benchmark-shaped commits through the warm pool
// and after each scores every pool pattern at the new version through
// the maintained cache — the first read there — requiring a cold
// evaluator's ranking bit for bit, in full and for the top 10 a search
// returns. It returns, per commit, the kept transposes and Equation-1
// diagonals those reads built (the reading evaluator's Counters): the
// counts see only the reads, never the cold evaluator or the commit.
// One goroutine does all of it, so the race detector, which makes it
// ten times slower, has nothing to find; the plain run gates it.
func firstReads(t *testing.T) (transposes, diagonals []uint64) {
	skipUnderRace(t, "single-goroutine harness, ten times slower under the race detector")
	w := newWarmPool(t)
	commit := benchCommits(t, w)
	for k := 0; k < 9; k++ {
		next, d := commit(k)
		w.maintain(t, k, next, d)
		ev := eval.NewVersioned(next, d.To, w.cache)
		cold := eval.NewVersioned(next, 0, eval.NewCache())
		for i, ps := range w.patterns {
			cuts := make([]eval.Cut, len(ps))
			for j, p := range ps {
				cuts[j] = ev.Cut(p)
			}
			q := w.cands[i][k%len(w.cands[i])]
			got, top := sim.ScoreCuts(ev, cuts, q, w.cands[i], 0), sim.ScoreCuts(ev, cuts, q, w.cands[i], 10)
			want := sim.RelSimAggregate(cold, ps, q, w.cands[i])
			for _, c := range []struct {
				got, want sim.Ranking
			}{{got, want}, {top, want.TopK(10)}} {
				if !slices.Equal(c.got.IDs, c.want.IDs) || !slices.EqualFunc(c.got.Scores, c.want.Scores,
					func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
					t.Fatalf("commit %d, %s from %d: maintained scores %v, cold %v", k, benchPool[i].pattern, q, c.got, c.want)
				}
			}
		}
		transposes = append(transposes, ev.Counters().Transposes.Load())
		diagonals = append(diagonals, ev.Counters().Diagonals.Load())
	}
	return transposes, diagonals
}

// TestFirstReadAfterCommitBuildsNoTranspose is the gate on "an update
// and the answers after it cost the touched rows": the maintained
// entries carry their kept transposes through each commit, so the
// first read after a commit builds none — transposes built by a read
// after a commit: 0, where dropping them on every commit rebuilt 9.6
// per commit — and scores through the maintained cache equal a cold
// evaluator's bit for bit.
func TestFirstReadAfterCommitBuildsNoTranspose(t *testing.T) {
	transposes, _ := firstReads(t)
	for k, n := range transposes {
		if n != 0 {
			t.Fatalf("commit %d: the first read built %d transposes, want 0", k, n)
		}
	}
}

// TestFirstReadAfterCommitBuildsNoDiagonal is the same gate for
// Equation 1's diagonal: Cache.Commit carries every kept diagonal
// through each commit, moved on the rows the commit touched, so the
// first read after a commit builds none in full (diagonals built by a
// read after a commit: 0, where the warm pool keeps 58) and its scores
// equal a cold evaluator's bit for bit.
func TestFirstReadAfterCommitBuildsNoDiagonal(t *testing.T) {
	_, diagonals := firstReads(t)
	for k, n := range diagonals {
		if n != 0 {
			t.Fatalf("commit %d: the first read built %d diagonals in full, want 0", k, n)
		}
	}
}

// TestWarmPoolDiagonalsHoldTheirEntries is the memory guard on the kept
// diagonals: the warm pool keeps one per cut it scores, 58, holding
// only the rows both halves populate — 83,960 nonzero entries — so
// their storage is bounded by those entries, at most the 12 bytes an
// entry a list of ids and values would take (8 for the value and 3/16
// for each index the bitmap spans), not by 58 × n.
func TestWarmPoolDiagonalsHoldTheirEntries(t *testing.T) {
	w := newWarmPool(t)
	st := w.cache.Stats()
	n := w.snap.NumNodes()
	t.Logf("%d diagonals, %d entries, %d bytes (n = %d)", st.Diagonals, st.DiagonalEntries, st.DiagonalBytes, n)
	if st.Diagonals != 58 || st.DiagonalEntries != 83960 {
		t.Errorf("warm pool keeps %d diagonals with %d entries, want 58 with 83960", st.Diagonals, st.DiagonalEntries)
	}
	if limit := 12 * st.DiagonalEntries; st.DiagonalBytes > limit {
		t.Errorf("diagonals hold %d bytes for %d entries, want at most %d (58 dense diagonals would hold %d)",
			st.DiagonalBytes, st.DiagonalEntries, limit, 58*8*n)
	}
	if st.Size != 25 {
		t.Errorf("cache holds %d entries, want 25: a diagonal is not an entry", st.Size)
	}
}
