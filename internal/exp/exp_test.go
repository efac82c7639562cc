package exp

import (
	"strings"
	"testing"

	"relsim/internal/datasets"
)

// tinyDBLP is a scaled-down config keeping exp tests fast.
func tinyDBLPCfg() datasets.DBLPConfig {
	cfg := datasets.SmallDBLP()
	cfg.Procs = 30
	cfg.AuthorsPool = 150
	cfg.PapersPerProc = [2]int{3, 8}
	return cfg
}

func tinyBioMedCfg() datasets.BioMedConfig {
	cfg := datasets.SmallBioMed()
	cfg.Phenotypes = 120
	cfg.Diseases = 50
	cfg.Proteins = 120
	cfg.Drugs = 60
	cfg.Anatomy = 30
	cfg.Pathways = 15
	cfg.MiRNAs = 10
	cfg.Queries = 8
	return cfg
}

// TestRelSimRobustDBLP is the operational Definition 1 check: RelSim
// returns exactly equal ranked lists across DBLP2SIGM for every query.
func TestRelSimRobustDBLP(t *testing.T) {
	s := DBLPScenario(tinyDBLPCfg(), datasets.DBLP2SIGM(), datasets.DBLP2SIGMInverse())
	if bad := RobustnessCheck(s); bad != 0 {
		t.Errorf("RelSim differed on %d/%d queries", bad, len(s.Queries))
	}
}

func TestRelSimRobustDBLPX(t *testing.T) {
	s := DBLPScenario(tinyDBLPCfg(), datasets.DBLP2SIGMX(), datasets.DBLP2SIGMInverse())
	if bad := RobustnessCheck(s); bad != 0 {
		t.Errorf("RelSim differed on %d/%d queries under DBLP2SIGMX", bad, len(s.Queries))
	}
}

func TestRelSimRobustWSU(t *testing.T) {
	cfg := datasets.DefaultWSU()
	cfg.Courses = 80
	s := WSUScenario(cfg)
	if bad := RobustnessCheck(s); bad != 0 {
		t.Errorf("RelSim differed on %d/%d queries under WSUC2ALCH", bad, len(s.Queries))
	}
}

func TestRelSimRobustBioMed(t *testing.T) {
	s, _ := BioMedScenario(tinyBioMedCfg())
	if bad := RobustnessCheck(s); bad != 0 {
		t.Errorf("RelSim differed on %d/%d queries under BioMedT", bad, len(s.Queries))
	}
}

// TestBaselinesNotRobust checks the paper's headline negative result:
// PathSim (with the closest simple pattern), RWR and SimRank all change
// their answers under an invertible transformation.
func TestBaselinesNotRobust(t *testing.T) {
	s := DBLPScenario(tinyDBLPCfg(), datasets.DBLP2SIGM(), datasets.DBLP2SIGMInverse())
	rk := buildRankers(s)
	cases := []struct {
		name     string
		src, dst methodRanker
	}{
		{"PathSim", rk.PathSimSrc, rk.PathSimDst},
		{"RWR", rk.RWRSrc, rk.RWRDst},
		{"SimRank", rk.SimRankSrc, rk.SimRankDst},
	}
	for _, c := range cases {
		tau := averageTau(s.Queries, c.src, c.dst)
		if tau.Top10 == 0 {
			t.Errorf("%s top-10 tau = 0; the baseline should not be structurally robust", c.name)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	res := table3With(tinyBioMedCfg())
	// RelSim must be at least as effective as HeteSim and strictly beat
	// the random-walk baselines.
	if res.Original["RelSim"] < res.Original["HeteSim"] {
		t.Errorf("RelSim MRR %.3f < HeteSim %.3f", res.Original["RelSim"], res.Original["HeteSim"])
	}
	if res.Original["RelSim"] <= res.Original["RWR"] {
		t.Errorf("RelSim MRR %.3f <= RWR %.3f", res.Original["RelSim"], res.Original["RWR"])
	}
	// RelSim must be unaffected by the transformation.
	if res.Original["RelSim"] != res.UnderT["RelSim"] {
		t.Errorf("RelSim MRR changed across BioMedT: %.3f vs %.3f",
			res.Original["RelSim"], res.UnderT["RelSim"])
	}
}

func TestAverageTauBounds(t *testing.T) {
	s := WSUScenario(func() datasets.WSUConfig {
		c := datasets.DefaultWSU()
		c.Courses = 40
		return c
	}())
	rk := buildRankers(s)
	tau := averageTau(s.Queries[:10], rk.PathSimSrc, rk.PathSimDst)
	if tau.Top5 < 0 || tau.Top5 > 1 || tau.Top10 < 0 || tau.Top10 > 1 {
		t.Errorf("tau out of range: %+v", tau)
	}
}

func TestLossyVariant(t *testing.T) {
	s := DBLPScenario(tinyDBLPCfg(), datasets.DBLP2SIGM(), datasets.DBLP2SIGMInverse())
	l := LossyVariant(s, 0.05, 7)
	if l.Dst.Snapshot().NumEdges() >= s.Dst.Snapshot().NumEdges() {
		t.Error("lossy variant must drop edges")
	}
	if !strings.Contains(l.Name, "0.95") {
		t.Errorf("name = %q", l.Name)
	}
}

func TestFigure5Small(t *testing.T) {
	res := Figure5(Figure5Config{
		ConstraintCounts: []int{1, 3},
		PatternLengths:   []int{4, 5},
		Runs:             1,
		Queries:          1,
		Seed:             3,
		MaxPatterns:      64,
	})
	for _, nc := range res.ConstraintCounts {
		for _, ln := range res.PatternLengths {
			if res.Seconds[nc][ln] < 0 {
				t.Errorf("missing cell %d/%d", nc, ln)
			}
			if res.Patterns[nc][ln] < 1 {
				t.Errorf("|E_p| < 1 at %d/%d", nc, ln)
			}
		}
	}
	if !strings.Contains(res.String(), "Figure 5") {
		t.Error("String must label the figure")
	}
}

func TestAblationSmall(t *testing.T) {
	res := AblationOptimizations(3, []int{4}, 1, 5)
	if res.UnoptimizedPatternCount[4] < res.OptimizedPatternCount[4] {
		t.Errorf("unoptimized |E_p| %.1f < optimized %.1f",
			res.UnoptimizedPatternCount[4], res.OptimizedPatternCount[4])
	}
}

func TestRobustnessTableString(t *testing.T) {
	res := RobustnessResult{
		Title:   "t",
		Columns: []string{"A"},
		Methods: []string{"RelSim"},
		Cells:   map[string]map[string]TauPair{"RelSim": {"A": {0, 0}}},
	}
	if !strings.Contains(res.String(), "RelSim") {
		t.Error("table must render methods")
	}
}

func TestExtraBaselinesShape(t *testing.T) {
	res := ExtraBaselines()
	if res.Taus["RelSim"].Top10 != 0 {
		t.Errorf("RelSim control tau = %v, want 0", res.Taus["RelSim"])
	}
	for _, m := range []string{"CommonNeighbors", "Katz", "P-Rank"} {
		if res.Taus[m].Top10 == 0 {
			t.Errorf("%s top-10 tau = 0; the baseline should not be structurally robust", m)
		}
	}
}

func TestProposition5Shape(t *testing.T) {
	res := Proposition5()
	if res.GeneratedS < 2 || res.GeneratedT < 2 {
		t.Errorf("Algorithm 1 generated too few patterns: S=%d T=%d", res.GeneratedS, res.GeneratedT)
	}
	// The aggregated rankings must be far more stable than any baseline
	// in Table 1 (tau ≈ 0.2-0.7): require < 0.15.
	if res.Tau.Top10 >= 0.15 {
		t.Errorf("aggregated-RelSim tau %.3f too large for Proposition 5", res.Tau.Top10)
	}
	if res.IdenticalTop10 == 0 {
		t.Error("no query kept an identical top-10 under Proposition 5")
	}
}

func TestMASEffectivenessShape(t *testing.T) {
	res := MASEffectiveness()
	kw := res.MRR["PathSim (keyword path)"]
	paper := res.MRR["PathSim (paper path)"]
	agg := res.MRR["RelSim (aggregated)"]
	if kw < 0.9 {
		t.Errorf("keyword meta-path MRR %.3f too low for the planted twins", kw)
	}
	if agg < paper {
		t.Errorf("aggregate MRR %.3f below its weaker component %.3f", agg, paper)
	}
	lo, hi := paper, kw
	if lo > hi {
		lo, hi = hi, lo
	}
	if agg < lo-1e-9 || agg > hi+1e-9 {
		t.Errorf("aggregate MRR %.3f outside its components [%.3f, %.3f]", agg, lo, hi)
	}
}

func TestResultStrings(t *testing.T) {
	t3 := Table3Result{
		Methods:  []string{"RWR"},
		Original: map[string]float64{"RWR": 0.1},
		UnderT:   map[string]float64{"RWR": 0.2},
	}
	if !strings.Contains(t3.String(), "BioMed") || !strings.Contains(t3.String(), "0.100") {
		t.Errorf("Table3 string: %q", t3.String())
	}
	t4 := Table4Result{Seconds: map[string]map[string]map[string]float64{
		"single": {"RelSim": {"DBLP": 1, "BioMed": 2}, "PathSim": {"DBLP": 3, "BioMed": 4}},
		"alg1":   {"RelSim": {"DBLP": 5, "BioMed": 6}, "PathSim": {"DBLP": 7, "BioMed": 8}},
	}}
	if !strings.Contains(t4.String(), "Algorithm 1") {
		t.Errorf("Table4 string: %q", t4.String())
	}
	ab := AblationResult{
		Lengths:                 []int{4},
		Constraints:             3,
		OptimizedSeconds:        map[int]float64{4: 0.1},
		UnoptimizedSeconds:      map[int]float64{4: 0.2},
		OptimizedPatternCount:   map[int]float64{4: 5},
		UnoptimizedPatternCount: map[int]float64{4: 10},
	}
	if !strings.Contains(ab.String(), "constraints=3") {
		t.Errorf("Ablation string: %q", ab.String())
	}
	eb := ExtraBaselinesResult{Transformation: "X", Methods: []string{"Katz"}, Taus: map[string]TauPair{"Katz": {0.1, 0.2}}}
	if !strings.Contains(eb.String(), "Katz") {
		t.Errorf("ExtraBaselines string: %q", eb.String())
	}
	p5 := Proposition5Result{Transformation: "X", PatternS: "a", PatternT: "b", Queries: 3}
	if !strings.Contains(p5.String(), "Proposition 5") {
		t.Errorf("Prop5 string: %q", p5.String())
	}
	mas := MASResult{Methods: []string{"RWR"}, MRR: map[string]float64{"RWR": 0.5}, Queries: 2}
	if !strings.Contains(mas.String(), "MAS") {
		t.Errorf("MAS string: %q", mas.String())
	}
}
