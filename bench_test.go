// Benchmarks regenerating the paper's evaluation (one per table and
// figure, §7) plus microbenchmarks for the substrate operations. The
// experiment benchmarks print the reproduced table on their first
// iteration so `go test -bench` output doubles as the reproduction log;
// cmd/relsim-bench runs the same experiments with the full grids.
package relsim

import (
	"math/rand"
	"sync"
	"testing"

	"relsim/internal/datasets"
	"relsim/internal/eval"
	"relsim/internal/exp"
	"relsim/internal/graph"
	"relsim/internal/mapping"
	"relsim/internal/metrics"
	"relsim/internal/pattern"
	"relsim/internal/rre"
	"relsim/internal/sim"
)

var printOnce sync.Map

func printFirst(b *testing.B, key, s string) {
	if _, dup := printOnce.LoadOrStore(key, true); !dup {
		b.Log("\n" + s)
	}
}

// BenchmarkTable1 regenerates Table 1: robustness (normalized Kendall
// tau) of RWR, SimRank, PathSim and RelSim across DBLP2SIGM, WSUC2ALCH
// and BioMedT.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := exp.Table1()
		printFirst(b, "t1", res.String())
	}
}

// BenchmarkTable2 regenerates Table 2: robustness under
// information-modifying transformations (DBLP2SIGMX, BioMedT(.95),
// DBLP2SIGM(.95)).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := exp.Table2()
		printFirst(b, "t2", res.String())
	}
}

// BenchmarkTable3 regenerates Table 3: MRR of RWR, SimRank, HeteSim and
// RelSim over BioMed, original and under BioMedT.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := exp.Table3()
		printFirst(b, "t3", res.String())
	}
}

// BenchmarkTable4 regenerates Table 4: average query processing time of
// RelSim vs PathSim on DBLP and BioMed in both input modes.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := exp.Table4()
		printFirst(b, "t4", res.String())
	}
}

// BenchmarkFigure5 regenerates Figure 5 on a reduced grid (the full
// 5×7×5-run grid takes ~1 minute; run cmd/relsim-bench -figure 5 for
// it). The shape — time growing with constraint count and pattern
// length — is visible on the reduced grid.
func BenchmarkFigure5(b *testing.B) {
	cfg := exp.Figure5Config{
		ConstraintCounts: []int{1, 5, 10},
		PatternLengths:   []int{4, 6, 8},
		Runs:             2,
		Queries:          2,
	}
	for i := 0; i < b.N; i++ {
		res := exp.Figure5(cfg)
		printFirst(b, "f5", res.String())
	}
}

// BenchmarkAblationOptimizations measures Algorithm 1 with the §6
// optimizations on vs off (extra experiment; see DESIGN.md).
func BenchmarkAblationOptimizations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := exp.AblationOptimizations(5, []int{4, 6}, 2, 31)
		printFirst(b, "abl", res.String())
	}
}

// BenchmarkExtraBaselines measures the supplementary robustness study
// over common neighbors, Katz and P-Rank (see DESIGN.md extras).
func BenchmarkExtraBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := exp.ExtraBaselines()
		printFirst(b, "extra", res.String())
	}
}

// BenchmarkProposition5 measures the §5 usability-pipeline check with
// Algorithm-1 expansion on both sides of DBLP2SIGM.
func BenchmarkProposition5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := exp.Proposition5()
		printFirst(b, "p5", res.String())
	}
}

// --- Microbenchmarks for the substrates ---

func benchGraph() *graph.Graph {
	return datasets.DBLP(datasets.SmallDBLP()).Graph
}

// BenchmarkCommutingMatrix measures building the commuting matrix of the
// DBLP robustness pattern from scratch (no cache reuse across
// iterations).
func BenchmarkCommutingMatrix(b *testing.B) {
	g := benchGraph()
	p := rre.MustParse("p-in-.r-a.r-a-.p-in")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := eval.New(g)
		ev.Commuting(p)
	}
}

// BenchmarkCommutingMatrixRRE measures the RRE operators (skip and
// nest) on the rewritten pattern.
func BenchmarkCommutingMatrixRRE(b *testing.B) {
	g := datasets.DBLP2SIGM().Apply(benchGraph())
	p := rre.MustParse("p-in-.<p-in.r-a>.<r-a-.p-in->.p-in")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := eval.New(g)
		ev.Commuting(p)
	}
}

// BenchmarkChainPlanned and BenchmarkChainLeftToRight measure the
// cost-based concatenation planner on a skewed chain (author
// collaboration hop next to thin hops): the evaluator's planned order
// against the same four factors folded strictly left to right.
func BenchmarkChainPlanned(b *testing.B) {
	g := benchGraph()
	p := rre.MustParse("w-.w.p-in.r-a-")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := eval.New(g)
		ev.Commuting(p)
	}
}

func BenchmarkChainLeftToRight(b *testing.B) {
	s := benchGraph().Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := s.Adjacency(datasets.LabelWrites)
		m := w.Transpose().Mul(w)
		m = m.Mul(s.Adjacency(datasets.LabelPubIn))
		m.Mul(s.Adjacency(datasets.LabelRscArea).Transpose())
	}
}

// BenchmarkSpGEMM measures sparse matrix multiplication on the
// paper-pattern intermediates.
func BenchmarkSpGEMM(b *testing.B) {
	s := benchGraph().Snapshot()
	a1 := s.Adjacency(datasets.LabelPubIn).Transpose()
	a2 := s.Adjacency(datasets.LabelRscArea)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a1.Mul(a2)
	}
}

// BenchmarkSparseTranspose measures CSR transposition.
func BenchmarkSparseTranspose(b *testing.B) {
	a := benchGraph().Snapshot().Adjacency(datasets.LabelWrites)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Transpose()
	}
}

// BenchmarkRelSimQuery measures one RelSim query with warm commuting
// matrices (the steady-state per-query cost).
func BenchmarkRelSimQuery(b *testing.B) {
	g := benchGraph()
	ev := eval.New(g)
	p := rre.MustParse("p-in-.r-a.r-a-.p-in")
	ev.Materialize(p)
	procs := g.NodesOfType("proc")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RelSim(ev, p, procs[i%len(procs)], procs)
	}
}

// BenchmarkScoreCuts measures a warm Equation-1 read on FullDBLP as
// /search serves it: the cuts memoized, the halves and their diagonals
// cached, the top 10 answers kept. It times the headline's 49-cut
// Algorithm-1 expansion over the procs and w.(p-in.p-in- + w-.w).w-
// over the authors, each cycling through 64 query nodes, with the
// answer domain given as the type's node list (sim.ScoreCuts) and as
// the type (sim.ScoreDomain, the /search path). The x16 rows embed the
// same authors among 16× as many (embedAuthors): the typed read should
// take the time of the 1× one, while the list form stamps every
// candidate.
func BenchmarkScoreCuts(b *testing.B) {
	ds, err := datasets.ByName("dblp")
	if err != nil {
		b.Fatal(err)
	}
	base := ds.Graph.Snapshot()
	authors := len(base.NodesOfType("author"))
	for _, tc := range []struct {
		name, pattern, typ string
		fill               int
	}{
		{"p-in-.r-a.r-a-.p-in", "p-in-.r-a.r-a-.p-in", "proc", 0},
		{"w.(p-in.p-in- + w-.w).w-", "w.(p-in.p-in- + w-.w).w-", "author", 0},
		{"w.(p-in.p-in- + w-.w).w-/x16", "w.(p-in.p-in- + w-.w).w-", "author", 15 * authors},
	} {
		snap := base
		if tc.fill > 0 {
			snap = embedAuthors(base, tc.fill)
		}
		ev := eval.NewVersioned(snap, 0, eval.NewCache())
		ps := []*rre.Pattern{rre.MustParse(tc.pattern)}
		if ps[0].IsSimple() {
			if ps, err = pattern.Generate(ds.Schema, ps[0], pattern.Default()); err != nil {
				b.Fatal(err)
			}
		}
		cuts := make([]eval.Cut, len(ps))
		for i, p := range ps {
			cuts[i] = eval.NewCut(p)
		}
		cands, dom := snap.NodesOfType(tc.typ), snap.TypeDomain(tc.typ)
		queries := cands[:min(64, len(cands))]
		for _, q := range queries {
			sim.ScoreCuts(ev, cuts, q, cands, 10)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sim.ScoreCuts(ev, cuts, queries[i%len(queries)], cands, 10)
			}
		})
		b.Run(tc.name+"/domain", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sim.ScoreDomain(ev, cuts, queries[i%len(queries)], dom, 10)
			}
		})
	}
}

// embedAuthors returns snap with n more authors embedded apart from its
// own: each two of them write a paper of their own, which no author of
// snap reaches by any pattern.
func embedAuthors(snap *graph.Snapshot, n int) *graph.Snapshot {
	b := graph.NewBuilder(snap)
	for i := 0; i < n; i += 2 {
		p := b.AddNode("", "paper")
		for j := i; j < min(i+2, n); j++ {
			if err := b.AddEdge(b.AddNode("", "author"), "w", p); err != nil {
				panic(err)
			}
		}
	}
	return b.Build()
}

// BenchmarkPathSimQuery measures the PathSim baseline per query.
func BenchmarkPathSimQuery(b *testing.B) {
	g := benchGraph()
	ev := eval.New(g)
	p := rre.MustParse("p-in-.r-a.r-a-.p-in")
	ev.Materialize(p)
	procs := g.NodesOfType("proc")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.PathSim(ev, p, procs[i%len(procs)], procs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeteSimQuery measures one HeteSim query on BioMed.
func BenchmarkHeteSimQuery(b *testing.B) {
	data := datasets.BioMed(datasets.SmallBioMed())
	ev := eval.New(data.Graph)
	p := rre.MustParse("dz-ph.ph-pr.tgt-")
	drugs := data.Graph.NodesOfType("drug")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.HeteSimRRE(ev, p, data.Queries[i%len(data.Queries)], drugs)
	}
}

// BenchmarkRWRQuery measures one RWR query (restart 0.8, power
// iteration).
func BenchmarkRWRQuery(b *testing.B) {
	g := benchGraph()
	ev := eval.New(g)
	procs := g.NodesOfType("proc")
	opt := sim.DefaultRWR()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RWR(ev, opt, procs[i%len(procs)], procs)
	}
}

// BenchmarkSimRankSamplerBuild measures the one-time Monte-Carlo walk
// simulation.
func BenchmarkSimRankSamplerBuild(b *testing.B) {
	g := benchGraph()
	ev := eval.New(g)
	opt := sim.DefaultSimRank()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.NewSimRankSampler(ev, opt)
	}
}

// BenchmarkSimRankQuery measures one SimRank query against a prebuilt
// sampler.
func BenchmarkSimRankQuery(b *testing.B) {
	g := benchGraph()
	ev := eval.New(g)
	s := sim.NewSimRankSampler(ev, sim.DefaultSimRank())
	procs := g.NodesOfType("proc")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Query(procs[i%len(procs)], procs)
	}
}

// BenchmarkAlgorithm1 measures pattern-set generation for the DBLP
// input with the §6 optimizations on.
func BenchmarkAlgorithm1(b *testing.B) {
	s := datasets.DBLPSchema()
	p := rre.MustParse("p-in-.r-a.r-a-.p-in")
	opt := pattern.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pattern.Generate(s, p, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlgorithm1Unoptimized is the §6-off counterpart.
func BenchmarkAlgorithm1Unoptimized(b *testing.B) {
	s := datasets.DBLPSchema()
	p := rre.MustParse("p-in-.r-a.r-a-.p-in")
	opt := pattern.Unoptimized()
	opt.MaxPatterns = 1024
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pattern.Generate(s, p, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyTransformation measures the closed-world chase on the
// small DBLP instance.
func BenchmarkApplyTransformation(b *testing.B) {
	g := benchGraph()
	t := datasets.DBLP2SIGM()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Apply(g)
	}
}

// BenchmarkRewritePattern measures the Theorem 2 rewriting.
func BenchmarkRewritePattern(b *testing.B) {
	inv := datasets.DBLP2SIGMInverse()
	p := rre.MustParse("p-in-.r-a.r-a-.p-in")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapping.RewritePattern(p, inv); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKendallTau measures the top-k list comparison.
func BenchmarkKendallTau(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	mk := func() []graph.NodeID {
		out := make([]graph.NodeID, 10)
		for i := range out {
			out[i] = graph.NodeID(rng.Intn(40))
		}
		return out
	}
	x, y := mk(), mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.KendallTauTopK(x, y, 10)
	}
}

// BenchmarkGraphAdjacency measures adjacency-matrix extraction from a
// snapshot.
func BenchmarkGraphAdjacency(b *testing.B) {
	s := benchGraph().Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Adjacency(datasets.LabelWrites)
	}
}

// BenchmarkBooleanClosure measures the Kleene-star fixed point on the
// phenotype parent forest.
func BenchmarkBooleanClosure(b *testing.B) {
	data := datasets.BioMed(datasets.SmallBioMed())
	a := data.Graph.Snapshot().Adjacency(datasets.LabelParent)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.BooleanClosure()
	}
}

// BenchmarkMASEffectiveness measures the MAS twin-area effectiveness
// study (§7.2's MAS side, reconstructed).
func BenchmarkMASEffectiveness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := exp.MASEffectiveness()
		printFirst(b, "mas", res.String())
	}
}
