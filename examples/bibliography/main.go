// Bibliography: structural robustness across a schema transformation.
//
// This example builds a small DBLP-style bibliography with the public
// API, declares the paper's tgd constraint, applies the DBLP2SIGM schema
// transformation (research areas move from papers to proceedings), and
// compares algorithms across the two representations:
//
//   - PathSim with the natural meta-path on each side returns different
//     top-k lists (nonzero Kendall tau);
//   - RelSim with the Corollary-1 rewritten RRE pattern returns exactly
//     the same ranking.
//
// Run with: go run ./examples/bibliography
package main

import (
	"fmt"
	"math/rand"

	"relsim"
)

const (
	numAreas      = 12
	numProcs      = 40
	papersPerProc = 8
)

// buildDBLP generates a bibliography satisfying the paper's constraint:
// all papers of a proceedings share the proceedings' area set.
func buildDBLP(seed int64) (*relsim.Graph, []relsim.NodeID) {
	rng := rand.New(rand.NewSource(seed))
	g := relsim.NewGraph()
	areas := make([]relsim.NodeID, numAreas)
	for i := range areas {
		areas[i] = g.AddNode(fmt.Sprintf("area%d", i), "area")
	}
	procs := make([]relsim.NodeID, numProcs)
	for i := range procs {
		procs[i] = g.AddNode(fmt.Sprintf("proc%d", i), "proc")
	}
	paper := 0
	for i, c := range procs {
		// Each proceedings covers 1-3 areas.
		k := 1 + rng.Intn(3)
		procAreas := map[int]bool{}
		for len(procAreas) < k {
			procAreas[rng.Intn(numAreas)] = true
		}
		n := 2 + rng.Intn(papersPerProc)
		for j := 0; j < n; j++ {
			p := g.AddNode(fmt.Sprintf("paper%d", paper), "paper")
			paper++
			g.AddEdge(p, "p-in", c)
			for a := range procAreas {
				g.AddEdge(p, "r-a", areas[a])
			}
		}
		_ = i
	}
	return g, procs
}

// dblp2sigm moves research areas from papers to proceedings.
func dblp2sigm() relsim.Transformation {
	return relsim.Transformation{
		Name: "DBLP2SIGM",
		Rules: []relsim.Rule{
			{
				Name:       "copy-p-in",
				Premise:    []relsim.Atom{relsim.At("x", "p-in", "y")},
				Conclusion: []relsim.ConclusionAtom{{From: "x", Label: "p-in", To: "y"}},
			},
			{
				Name: "area-to-proc",
				Premise: []relsim.Atom{
					relsim.At("p", "p-in", "c"),
					relsim.At("p", "r-a", "a"),
				},
				Conclusion: []relsim.ConclusionAtom{{From: "c", Label: "r-a", To: "a"}},
			},
		},
	}
}

// inverse reconstructs the DBLP structure.
func inverse() relsim.Transformation {
	return relsim.Transformation{
		Name: "DBLP2SIGM⁻¹",
		Rules: []relsim.Rule{
			{
				Name:       "copy-p-in",
				Premise:    []relsim.Atom{relsim.At("x", "p-in", "y")},
				Conclusion: []relsim.ConclusionAtom{{From: "x", Label: "p-in", To: "y"}},
			},
			{
				Name: "area-to-paper",
				Premise: []relsim.Atom{
					relsim.At("p", "p-in", "c"),
					relsim.At("c", "r-a", "a"),
				},
				Conclusion: []relsim.ConclusionAtom{{From: "p", Label: "r-a", To: "a"}},
			},
		},
	}
}

func overlapAt5(a, b relsim.Ranking) int {
	n := 0
	for _, x := range a.TopK(5).IDs {
		for _, y := range b.TopK(5).IDs {
			if x == y {
				n++
			}
		}
	}
	return n
}

func main() {
	src, procs := buildDBLP(42)
	t, inv := dblp2sigm(), inverse()
	if !relsim.VerifyInverse(src, t, inv) {
		panic("transformation must be invertible on this instance")
	}
	dst := t.Apply(src)
	fmt.Printf("source: %v\ntransformed: %v (information-equivalent)\n\n", src.Snapshot(), dst.Snapshot())

	engS := relsim.NewEngine(src, nil)
	engT := relsim.NewEngine(dst, nil)

	// Proceedings similar by shared research areas, weighted by papers.
	patternS := relsim.MustParsePattern("p-in-.r-a.r-a-.p-in")
	// The meta-path a PathSim user would pick on the transformed side.
	closestT := relsim.MustParsePattern("r-a.r-a-")
	// The provably equivalent RRE pattern (Theorem 2 / Corollary 1).
	rewritten, err := relsim.RewritePattern(patternS, inv)
	if err != nil {
		panic(err)
	}
	fmt.Printf("pattern over source:        %s\n", patternS)
	fmt.Printf("closest simple over target: %s\n", closestT)
	fmt.Printf("rewritten RRE over target:  %s\n\n", rewritten)

	var pathSimStable, relSimStable, queries int
	for _, q := range procs[:20] {
		ps1, err := engS.PathSim(patternS, q, procs)
		if err != nil {
			panic(err)
		}
		ps2, err := engT.PathSim(closestT, q, procs)
		if err != nil {
			panic(err)
		}
		rs1 := engS.RelSim(patternS, q, procs)
		rs2 := engT.RelSim(rewritten, q, procs)
		queries++
		if overlapAt5(ps1, ps2) == 5 && sameOrder(ps1.TopK(5), ps2.TopK(5)) {
			pathSimStable++
		}
		if sameOrder(rs1, rs2) {
			relSimStable++
		}
	}
	fmt.Printf("queries with identical top-5 across the transformation:\n")
	fmt.Printf("  PathSim (closest meta-path): %d/%d\n", pathSimStable, queries)
	fmt.Printf("  RelSim (rewritten RRE):      %d/%d\n", relSimStable, queries)

	// Show one query in detail.
	q := procs[3]
	ps1, _ := engS.PathSim(patternS, q, procs)
	ps2, _ := engT.PathSim(closestT, q, procs)
	rs2 := engT.RelSim(rewritten, q, procs)
	fmt.Printf("\nexample query %s:\n", src.Node(q).Name)
	fmt.Printf("  PathSim source top-3:      %s\n", names(src, ps1.TopK(3)))
	fmt.Printf("  PathSim transformed top-3: %s\n", names(src, ps2.TopK(3)))
	fmt.Printf("  RelSim transformed top-3:  %s (matches source exactly)\n", names(src, rs2.TopK(3)))
}

func sameOrder(a, b relsim.Ranking) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.IDs {
		if a.IDs[i] != b.IDs[i] {
			return false
		}
	}
	return true
}

func names(g *relsim.Graph, r relsim.Ranking) string {
	s := ""
	for i, id := range r.IDs {
		if i > 0 {
			s += ", "
		}
		s += g.Node(id).Name
	}
	return s
}
