// BioMed: drug discovery with structurally robust similarity search.
//
// This example runs the paper's motivating biomedical workload (§7): a
// knowledge graph of phenotypes, diseases, proteins, drugs and
// anatomies, where curators materialize derived
// "indirect-associated-with" edges — and periodically drop them again
// during restructuring (the BioMedT transformation). We ask, for each of
// a set of query diseases, which drug is most related, and compare:
//
//   - HeteSim with the direct meta-path (ignores indirect evidence);
//   - RelSim with an RRE that also counts indirect phenotype
//     associations, plus its Corollary-1 rewriting once the indirect
//     edges are dropped.
//
// The dataset generator lives in internal/datasets (it is reproduction
// scaffolding for the paper's private NIH graph); the queries run
// through the public API.
//
// Run with: go run ./examples/biomed
package main

import (
	"fmt"

	"relsim"
	"relsim/internal/datasets"
)

func main() {
	cfg := datasets.DefaultBioMed()
	cfg.Queries = 10
	data := datasets.BioMed(cfg)
	g := data.Graph
	fmt.Printf("BioMed graph: %v\n", g.Snapshot())

	// The curators' restructuring: drop all derived indirect edges.
	t, inv := datasets.BioMedT(), datasets.BioMedTInverse()
	if !relsim.VerifyInverse(g, t, inv) {
		panic("BioMedT must be invertible: indirect edges are derivable")
	}
	dropped := t.Apply(g)
	fmt.Printf("after BioMedT: %v (indirect edges removed, still recoverable)\n\n", dropped.Snapshot())

	engFull := relsim.NewEngine(g, datasets.BioMedSchema())
	engDropped := relsim.NewEngine(dropped, nil)
	drugs := g.NodesOfType("drug")

	// Direct-only meta-path vs the RRE with indirect associations.
	direct := relsim.MustParsePattern("dz-ph.ph-pr.tgt-")
	rich := relsim.MustParsePattern("(dz-ph + ind-dz-ph).ph-pr.tgt-")
	richDropped, err := relsim.RewritePattern(rich, inv)
	if err != nil {
		panic(err)
	}
	fmt.Printf("direct meta-path:           %s\n", direct)
	fmt.Printf("RRE with indirect evidence: %s\n", rich)
	fmt.Printf("rewritten after BioMedT:    %s\n\n", richDropped)

	var rrDirect, rrRich, stable float64
	for i, q := range data.Queries {
		hDirect := engFull.HeteSim(direct, q, drugs)
		hRich := engFull.HeteSim(rich, q, drugs)
		hRichDropped := engDropped.HeteSim(richDropped, q, drugs)

		var gt relsim.NodeID
		for d := range data.Relevant[i] {
			gt = d
		}
		rrDirect += reciprocal(hDirect.Rank(gt))
		rrRich += reciprocal(hRich.Rank(gt))
		if sameTop(hRich, hRichDropped, 10) {
			stable++
		}
		if i < 3 {
			fmt.Printf("%s: ground truth %s ranks #%d (direct) vs #%d (RRE)\n",
				g.Node(q).Name, g.Node(gt).Name, hDirect.Rank(gt), hRich.Rank(gt))
		}
	}
	n := float64(len(data.Queries))
	fmt.Printf("\nMRR direct meta-path: %.3f\n", rrDirect/n)
	fmt.Printf("MRR RRE pattern:      %.3f\n", rrRich/n)
	fmt.Printf("queries with identical top-10 after BioMedT: %.0f/%d\n", stable, len(data.Queries))
}

func reciprocal(rank int) float64 {
	if rank == 0 {
		return 0
	}
	return 1 / float64(rank)
}

func sameTop(a, b relsim.Ranking, k int) bool {
	ta, tb := a.TopK(k), b.TopK(k)
	if ta.Len() != tb.Len() {
		return false
	}
	for i := range ta.IDs {
		if ta.IDs[i] != tb.IDs[i] {
			return false
		}
	}
	return true
}
