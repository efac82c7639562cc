package datasets

import (
	"fmt"
	"math/rand"
	"sort"

	"relsim/internal/graph"
	"relsim/internal/mapping"
	"relsim/internal/schema"
)

// BioMed edge labels (Figure 4, abbreviated): parent = is-parent-of
// (phenotype→phenotype), dz-ph = disease associated-with phenotype,
// ph-an = phenotype associated-with anatomy, ph-pr = phenotype
// associated-with protein, tgt = drug targets protein, expr = protein
// is-expressed-in anatomy, pw = protein is-member-of pathway,
// mir = miRNA controls-expression-of protein. The two derived labels
// ind-dz-ph and ind-ph-an are the dashed indirect-associated-with edges
// the BioMedT transformation removes.
const (
	LabelParent  = "parent"
	LabelDzPh    = "dz-ph"
	LabelIndDzPh = "ind-dz-ph"
	LabelPhAn    = "ph-an"
	LabelIndPhAn = "ind-ph-an"
	LabelPhPr    = "ph-pr"
	LabelTarget  = "tgt"
	LabelExpr    = "expr"
	LabelPathway = "pw"
	LabelMir     = "mir"
)

// BioMedConfig sizes the synthetic biomedical graph.
type BioMedConfig struct {
	Seed        int64
	Phenotypes  int
	Anatomy     int
	Diseases    int
	Proteins    int
	Drugs       int
	Pathways    int
	MiRNAs      int
	PhPerDz     [2]int
	AnPerPh     [2]int
	PrPerPh     [2]int
	PrPerDrug   [2]int
	Queries     int // diseases with planted ground-truth drugs
	PlantedHits int // drug targets among the disease's direct phenotype proteins
	// PlantedIndirect adds drug targets among proteins of phenotypes the
	// disease is only *indirectly* associated with (children of its
	// phenotypes). Only patterns that follow the indirect association —
	// RelSim's RRE — can recover this part of the signal, which is what
	// separates RelSim from plain HeteSim in Table 3.
	PlantedIndirect int
	// HubDrugFrac is the fraction of drugs that are promiscuous hubs
	// targeting HubTargets proteins. Hubs sit close to every disease in
	// raw random-walk proximity — the confounder that sinks RWR/SimRank
	// in Table 3 — while path-normalized methods are largely immune.
	HubDrugFrac float64
	HubTargets  [2]int
}

// DefaultBioMed mirrors the structural richness of the paper's BioMed
// graph at laptop scale.
func DefaultBioMed() BioMedConfig {
	return BioMedConfig{
		Seed:            13,
		Phenotypes:      700,
		Anatomy:         120,
		Diseases:        260,
		Proteins:        800,
		Drugs:           350,
		Pathways:        90,
		MiRNAs:          80,
		PhPerDz:         [2]int{1, 4},
		AnPerPh:         [2]int{1, 3},
		PrPerPh:         [2]int{1, 4},
		PrPerDrug:       [2]int{1, 3},
		Queries:         30,
		PlantedHits:     2,
		PlantedIndirect: 3,
		HubDrugFrac:     0.12,
		HubTargets:      [2]int{20, 45},
	}
}

// SmallBioMed mirrors the "subset of BioMed ... 4,125 nodes and 60,176
// edges" used for the SimRank-feasible experiments, scaled down.
func SmallBioMed() BioMedConfig {
	c := DefaultBioMed()
	c.Phenotypes = 260
	c.Anatomy = 60
	c.Diseases = 110
	c.Proteins = 300
	c.Drugs = 140
	c.Pathways = 40
	c.MiRNAs = 30
	return c
}

// BioMedData is a BioMed dataset plus its expert-style query workload:
// Queries are disease nodes and Relevant maps each query to its planted
// ground-truth drug (standing in for the paper's 30 expert disease→drug
// pairs).
type BioMedData struct {
	Dataset
	Queries  []graph.NodeID
	Relevant []map[graph.NodeID]bool
}

// BioMed generates the biomedical graph of Figure 4. The two §7.1
// constraints hold with closed-world exactness — the indirect edges are
// precisely the derived set:
//
//	(ph1, parent, ph2) ∧ (ph1, ph-an, an)  → (ph2, ind-ph-an, an)
//	(ph1, parent, ph2) ∧ (d, dz-ph, ph1)   → (d, ind-dz-ph, ph2)
//
// which is what makes BioMedT invertible. Ground truth is planted: each
// query disease's relevant drug targets PlantedHits of the proteins
// associated with the disease's phenotypes, giving structure-aware
// methods a recoverable signal.
func BioMed(cfg BioMedConfig) BioMedData {
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := graph.New()

	phen := make([]graph.NodeID, cfg.Phenotypes)
	for i := range phen {
		phen[i] = g.AddNode(fmt.Sprintf("phen%d", i), "phenotype")
	}
	anat := make([]graph.NodeID, cfg.Anatomy)
	for i := range anat {
		anat[i] = g.AddNode(fmt.Sprintf("anat%d", i), "anatomy")
	}
	dis := make([]graph.NodeID, cfg.Diseases)
	for i := range dis {
		dis[i] = g.AddNode(fmt.Sprintf("disease%d", i), "disease")
	}
	prot := make([]graph.NodeID, cfg.Proteins)
	for i := range prot {
		prot[i] = g.AddNode(fmt.Sprintf("protein%d", i), "protein")
	}
	drug := make([]graph.NodeID, cfg.Drugs)
	for i := range drug {
		drug[i] = g.AddNode(fmt.Sprintf("drug%d", i), "drug")
	}
	path := make([]graph.NodeID, cfg.Pathways)
	for i := range path {
		path[i] = g.AddNode(fmt.Sprintf("pathway%d", i), "pathway")
	}
	mirs := make([]graph.NodeID, cfg.MiRNAs)
	for i := range mirs {
		mirs[i] = g.AddNode(fmt.Sprintf("mirna%d", i), "mirna")
	}

	// Phenotype forest: each phenotype after the first few picks a parent
	// among earlier phenotypes with probability 0.8.
	phParent := make([]int, cfg.Phenotypes) // -1 for roots
	for i := range phen {
		phParent[i] = -1
		if i > 0 && rng.Float64() < 0.8 {
			p := rng.Intn(i)
			phParent[i] = p
			g.AddEdge(phen[p], LabelParent, phen[i])
		}
	}

	// Direct associations.
	phAn := make([][]int, cfg.Phenotypes)
	phPr := make([][]int, cfg.Phenotypes)
	for i := range phen {
		phAn[i] = pick(rng, cfg.Anatomy, between(rng, cfg.AnPerPh[0], cfg.AnPerPh[1]))
		for _, a := range phAn[i] {
			g.AddEdge(phen[i], LabelPhAn, anat[a])
		}
		phPr[i] = pickBiased(rng, cfg.Proteins, between(rng, cfg.PrPerPh[0], cfg.PrPerPh[1]))
		for _, p := range phPr[i] {
			g.AddEdge(phen[i], LabelPhPr, prot[p])
		}
	}
	dzPh := make([][]int, cfg.Diseases)
	for i := range dis {
		dzPh[i] = pick(rng, cfg.Phenotypes, between(rng, cfg.PhPerDz[0], cfg.PhPerDz[1]))
		for _, p := range dzPh[i] {
			g.AddEdge(dis[i], LabelDzPh, phen[p])
		}
	}
	for i := range drug {
		n := between(rng, cfg.PrPerDrug[0], cfg.PrPerDrug[1])
		if rng.Float64() < cfg.HubDrugFrac {
			n = between(rng, cfg.HubTargets[0], cfg.HubTargets[1])
		}
		for _, p := range pickBiased(rng, cfg.Proteins, n) {
			g.AddEdge(drug[i], LabelTarget, prot[p])
		}
	}
	for i := range prot {
		g.AddEdge(prot[i], LabelExpr, anat[rng.Intn(cfg.Anatomy)])
		if cfg.Pathways > 0 && rng.Float64() < 0.7 {
			g.AddEdge(prot[i], LabelPathway, path[rng.Intn(cfg.Pathways)])
		}
	}
	for i := range mirs {
		for _, p := range pick(rng, cfg.Proteins, between(rng, 1, 3)) {
			g.AddEdge(mirs[i], LabelMir, prot[p])
		}
	}

	// Derived indirect edges: exactly the closed-world derivation of the
	// two constraints (single derivation step, matching the tgds).
	type pair struct{ a, b graph.NodeID }
	seenDz := map[pair]bool{}
	seenAn := map[pair]bool{}
	for child, parent := range phParent {
		if parent < 0 {
			continue
		}
		// (parentPh, parent, childPh) ∧ (parentPh, ph-an, an) → child ind-ph-an an
		for _, a := range phAn[parent] {
			k := pair{phen[child], anat[a]}
			if !seenAn[k] {
				seenAn[k] = true
				g.AddEdge(phen[child], LabelIndPhAn, anat[a])
			}
		}
	}
	for di := range dis {
		for _, p := range dzPh[di] {
			// (p, parent, c) ∧ (d, dz-ph, p) → (d, ind-dz-ph, c)
			for child, parent := range phParent {
				if parent == p {
					k := pair{dis[di], phen[child]}
					if !seenDz[k] {
						seenDz[k] = true
						g.AddEdge(dis[di], LabelIndDzPh, phen[child])
					}
				}
			}
		}
	}

	// Plant disease→drug ground truth on the first cfg.Queries diseases
	// (deterministic choice; they are regular diseases otherwise).
	var queries []graph.NodeID
	var relevant []map[graph.NodeID]bool
	// children[p] lists the phenotypes whose parent is p.
	children := make([][]int, cfg.Phenotypes)
	for child, parent := range phParent {
		if parent >= 0 {
			children[parent] = append(children[parent], child)
		}
	}
	sortedProteins := func(set map[int]bool) []int {
		prs := make([]int, 0, len(set))
		for p := range set {
			prs = append(prs, p)
		}
		sort.Ints(prs)
		return prs
	}
	for qi := 0; qi < cfg.Queries && qi < cfg.Diseases; qi++ {
		d := qi
		// Proteins reachable via the disease's direct phenotypes, and via
		// the children of those phenotypes (the indirect associations).
		direct := map[int]bool{}
		indirect := map[int]bool{}
		for _, p := range dzPh[d] {
			for _, pr := range phPr[p] {
				direct[pr] = true
			}
			for _, c := range children[p] {
				for _, pr := range phPr[c] {
					indirect[pr] = true
				}
			}
		}
		if len(direct) == 0 {
			continue
		}
		gt := drug[(qi*37)%cfg.Drugs]
		plant := func(prs []int, limit int) {
			added := 0
			for _, p := range prs {
				if added >= limit {
					return
				}
				if g.EdgeCount(gt, LabelTarget, prot[p]) == 0 {
					g.AddEdge(gt, LabelTarget, prot[p])
				}
				added++
			}
		}
		plant(sortedProteins(direct), cfg.PlantedHits)
		plant(sortedProteins(indirect), cfg.PlantedIndirect)
		queries = append(queries, dis[d])
		relevant = append(relevant, map[graph.NodeID]bool{gt: true})
	}

	return BioMedData{
		Dataset:  Dataset{Name: "BioMed", Graph: g, Schema: BioMedSchema()},
		Queries:  queries,
		Relevant: relevant,
	}
}

// BioMedSchema returns the Figure 4 schema with the two §7.1 tgds.
func BioMedSchema() *schema.Schema {
	return schema.New(
		[]string{
			LabelParent, LabelDzPh, LabelIndDzPh, LabelPhAn, LabelIndPhAn,
			LabelPhPr, LabelTarget, LabelExpr, LabelPathway, LabelMir,
		},
		schema.TGD("biomed-ind-anatomy",
			[]schema.Atom{
				schema.At("ph1", LabelParent, "ph2"),
				schema.At("ph1", LabelPhAn, "an"),
			},
			"ph2", LabelIndPhAn, "an"),
		schema.TGD("biomed-ind-disease",
			[]schema.Atom{
				schema.At("ph1", LabelParent, "ph2"),
				schema.At("d", LabelDzPh, "ph1"),
			},
			"d", LabelIndDzPh, "ph2"),
	)
}

// bioMedBaseLabels are the labels BioMedT preserves.
func bioMedBaseLabels() []string {
	return []string{
		LabelParent, LabelDzPh, LabelPhAn, LabelPhPr,
		LabelTarget, LabelExpr, LabelPathway, LabelMir,
	}
}

// BioMedT removes all indirect-associated-with edges (§7.1): the
// transformed structure is Figure 4 without the dashed edges.
func BioMedT() mapping.Transformation {
	return mapping.Transformation{
		Name:  "BioMedT",
		Rules: mapping.Identities(bioMedBaseLabels()...),
	}
}

// BioMedTInverse re-derives the indirect edges from parent links.
func BioMedTInverse() mapping.Transformation {
	return mapping.Transformation{
		Name: "BioMedT⁻¹",
		Rules: append(mapping.Identities(bioMedBaseLabels()...),
			mapping.Rule{
				Name: "derive-ind-ph-an",
				Premise: []schema.Atom{
					schema.At("ph1", LabelParent, "ph2"),
					schema.At("ph1", LabelPhAn, "an"),
				},
				Conclusion: []mapping.ConclusionAtom{{From: "ph2", Label: LabelIndPhAn, To: "an"}},
			},
			mapping.Rule{
				Name: "derive-ind-dz-ph",
				Premise: []schema.Atom{
					schema.At("ph1", LabelParent, "ph2"),
					schema.At("d", LabelDzPh, "ph1"),
				},
				Conclusion: []mapping.ConclusionAtom{{From: "d", Label: LabelIndDzPh, To: "ph2"}},
			}),
	}
}

// BioMedPatterns returns the disease→drug relationship patterns:
//
//	RobustS:        ind-dz-ph · ph-pr · tgt⁻   over the original graph
//	                (diseases to drugs through indirectly associated
//	                phenotypes — uses a label BioMedT removes)
//	RobustClosestT: dz-ph · parent · ph-pr · tgt⁻  (the closest simple
//	                meta-path over the transformed graph)
//	Effect:         dz-ph · ph-pr · tgt⁻       (the effectiveness
//	                pattern aligned with the planted ground truth)
func BioMedPatterns() (robustS, robustClosestT, effect string) {
	return "ind-dz-ph.ph-pr.tgt-", "dz-ph.parent.ph-pr.tgt-", "dz-ph.ph-pr.tgt-"
}
