package datasets

import (
	"slices"
	"testing"

	"relsim/internal/mapping"
)

func TestDBLPSatisfiesConstraint(t *testing.T) {
	ds := DBLP(SmallDBLP())
	if !ds.Schema.Satisfied(ds.Graph) {
		t.Fatal("generated DBLP must satisfy its tgd")
	}
}

func TestDBLPShape(t *testing.T) {
	cfg := SmallDBLP()
	ds := DBLP(cfg)
	g := ds.Graph
	if len(g.NodesOfType("proc")) != cfg.Procs {
		t.Errorf("procs = %d, want %d", len(g.NodesOfType("proc")), cfg.Procs)
	}
	if len(g.NodesOfType("area")) != cfg.Areas {
		t.Errorf("areas = %d", len(g.NodesOfType("area")))
	}
	// Every paper has exactly one proceedings and at least one area.
	for _, p := range g.NodesOfType("paper") {
		if len(g.Snapshot().Out(p, LabelPubIn)) != 1 {
			t.Fatalf("paper %d has %d p-in edges", p, len(g.Snapshot().Out(p, LabelPubIn)))
		}
		if len(g.Snapshot().Out(p, LabelRscArea)) == 0 {
			t.Fatalf("paper %d has no areas", p)
		}
	}
}

func TestDBLPDeterministic(t *testing.T) {
	a := DBLP(SmallDBLP()).Graph
	b := DBLP(SmallDBLP()).Graph
	if !a.Equal(b) {
		t.Error("same seed must give identical graphs")
	}
}

func TestDBLP2SIGMInvertibleOnGenerated(t *testing.T) {
	ds := DBLP(SmallDBLP())
	if !mapping.VerifyInverse(ds.Graph, DBLP2SIGM(), DBLP2SIGMInverse()) {
		t.Fatal("DBLP2SIGM must round-trip on the generated instance")
	}
}

func TestDBLP2SIGMXInvertibleOnGenerated(t *testing.T) {
	ds := DBLP(SmallDBLP())
	if !mapping.VerifyInverse(ds.Graph, DBLP2SIGMX(), DBLP2SIGMInverse()) {
		t.Fatal("DBLP2SIGMX must round-trip (added nodes carry no information back)")
	}
}

func TestDBLP2SIGMXAddsNodes(t *testing.T) {
	ds := DBLP(SmallDBLP())
	plain := DBLP2SIGM().Apply(ds.Graph)
	extended := DBLP2SIGMX().Apply(ds.Graph)
	if extended.NumNodes() <= plain.NumNodes() {
		t.Error("DBLP2SIGMX must add connector nodes")
	}
	if ls := extended.Snapshot().Labels(); !slices.Contains(ls, LabelAPAuthor) || !slices.Contains(ls, LabelAPProc) {
		t.Error("connector edge labels missing")
	}
}

func TestWSUSatisfiesConstraintAndInverts(t *testing.T) {
	ds := WSU(DefaultWSU())
	if !ds.Schema.Satisfied(ds.Graph) {
		t.Fatal("generated WSU must satisfy its tgd")
	}
	if !mapping.VerifyInverse(ds.Graph, WSUC2ALCH(), WSUC2ALCHInverse()) {
		t.Fatal("WSUC2ALCH must round-trip")
	}
}

func TestWSUScale(t *testing.T) {
	ds := WSU(DefaultWSU())
	n, e := ds.Graph.NumNodes(), ds.Graph.Snapshot().NumEdges()
	// The real dataset has 1,124 nodes and 1,959 edges; stay in that
	// ballpark (within 3x).
	if n < 400 || n > 3500 {
		t.Errorf("WSU nodes = %d, out of ballpark", n)
	}
	if e < 600 || e > 6000 {
		t.Errorf("WSU edges = %d, out of ballpark", e)
	}
}

func TestBioMedSatisfiesConstraintsAndInverts(t *testing.T) {
	data := BioMed(SmallBioMed())
	if !data.Schema.Satisfied(data.Graph) {
		t.Fatal("generated BioMed must satisfy its tgds")
	}
	if !mapping.VerifyInverse(data.Graph, BioMedT(), BioMedTInverse()) {
		t.Fatal("BioMedT must round-trip (indirect edges are exactly the derived set)")
	}
}

func TestBioMedQueries(t *testing.T) {
	cfg := SmallBioMed()
	data := BioMed(cfg)
	if len(data.Queries) == 0 || len(data.Queries) != len(data.Relevant) {
		t.Fatalf("queries=%d relevant=%d", len(data.Queries), len(data.Relevant))
	}
	for i, q := range data.Queries {
		if data.Graph.Node(q).Type != "disease" {
			t.Errorf("query %d is %s, want disease", q, data.Graph.Node(q).Type)
		}
		if len(data.Relevant[i]) != 1 {
			t.Errorf("query %d has %d relevant drugs, want 1", i, len(data.Relevant[i]))
		}
		for gt := range data.Relevant[i] {
			if data.Graph.Node(gt).Type != "drug" {
				t.Errorf("ground truth %d is %s, want drug", gt, data.Graph.Node(gt).Type)
			}
		}
	}
}

func TestBioMedTRemovesIndirect(t *testing.T) {
	data := BioMed(SmallBioMed())
	out := BioMedT().Apply(data.Graph)
	ls := out.Snapshot().Labels()
	if slices.Contains(ls, LabelIndDzPh) || slices.Contains(ls, LabelIndPhAn) {
		t.Error("BioMedT must remove indirect edges")
	}
	if !slices.Contains(ls, LabelDzPh) || !slices.Contains(ls, LabelParent) {
		t.Error("BioMedT must keep base edges")
	}
}

func TestMASShape(t *testing.T) {
	ds := MAS(DefaultMAS()).Dataset
	g := ds.Graph
	for _, typ := range []string{"area", "conf", "paper", "keyword"} {
		if len(g.NodesOfType(typ)) == 0 {
			t.Errorf("no %s nodes", typ)
		}
	}
	for _, c := range g.NodesOfType("conf") {
		if len(g.Snapshot().Out(c, LabelMASConfArea)) != 1 {
			t.Fatalf("conf %d has %d areas", c, len(g.Snapshot().Out(c, LabelMASConfArea)))
		}
	}
}

func TestDegreeWeightedSample(t *testing.T) {
	ds := WSU(DefaultWSU())
	s1 := DegreeWeightedSample(ds.Graph, "course", 50, 3)
	s2 := DegreeWeightedSample(ds.Graph, "course", 50, 3)
	if len(s1) != 50 {
		t.Fatalf("sample size = %d", len(s1))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("sampling must be deterministic per seed")
		}
		if ds.Graph.Node(s1[i]).Type != "course" {
			t.Fatalf("sampled node %d has wrong type", s1[i])
		}
		if i > 0 && s1[i] <= s1[i-1] {
			t.Fatal("sample must be sorted and distinct")
		}
	}
	// Requesting more than available returns all.
	all := DegreeWeightedSample(ds.Graph, "subject", 10_000, 3)
	if len(all) != len(ds.Graph.NodesOfType("subject")) {
		t.Errorf("oversized request returned %d", len(all))
	}
}

func TestRemoveRandomEdges(t *testing.T) {
	ds := WSU(DefaultWSU())
	g := ds.Graph
	lossy := RemoveRandomEdges(g, 0.05, 9)
	want := g.Snapshot().NumEdges() - int(float64(g.Snapshot().NumEdges())*0.05)
	if lossy.Snapshot().NumEdges() != want {
		t.Errorf("lossy edges = %d, want %d", lossy.Snapshot().NumEdges(), want)
	}
	if lossy.NumNodes() != g.NumNodes() {
		t.Error("node set must be preserved")
	}
	// Deterministic per seed.
	if !lossy.Equal(RemoveRandomEdges(g, 0.05, 9)) {
		t.Error("lossy removal must be deterministic")
	}
	// Fraction 0 keeps everything.
	if !RemoveRandomEdges(g, 0, 9).EqualEdges(g) {
		t.Error("fraction 0 must keep all edges")
	}
}

func TestApplyLossy(t *testing.T) {
	ds := DBLP(SmallDBLP())
	full := DBLP2SIGM().Apply(ds.Graph)
	lossy := ApplyLossy(DBLP2SIGM(), ds.Graph, 0.05, 5)
	if lossy.Snapshot().NumEdges() >= full.Snapshot().NumEdges() {
		t.Error("lossy transform must drop edges")
	}
}

func TestMASTwins(t *testing.T) {
	cfg := DefaultMAS()
	data := MAS(cfg)
	if len(data.Queries) != 2*cfg.TwinPairs {
		t.Fatalf("queries = %d, want %d", len(data.Queries), 2*cfg.TwinPairs)
	}
	g := data.Graph
	for i, q := range data.Queries {
		if g.Node(q).Type != "area" {
			t.Fatalf("query %d is %s", q, g.Node(q).Type)
		}
		for twin := range data.Relevant[i] {
			// Twins share at least TwinOverlap keywords.
			shared := 0
			for _, kw := range g.Snapshot().Out(q, LabelMASAreaKw) {
				for _, kw2 := range g.Snapshot().Out(twin, LabelMASAreaKw) {
					if kw == kw2 {
						shared++
					}
				}
			}
			if shared < cfg.TwinOverlap {
				t.Errorf("twin pair (%d,%d) shares only %d keywords", q, twin, shared)
			}
		}
	}
}

func TestMASDeterministic(t *testing.T) {
	a := MAS(DefaultMAS())
	b := MAS(DefaultMAS())
	if !a.Graph.Equal(b.Graph) {
		t.Error("same seed must give identical MAS graphs")
	}
}

func TestBioMedHubDrugs(t *testing.T) {
	cfg := DefaultBioMed()
	data := BioMed(cfg)
	g := data.Graph
	maxTargets := 0
	for _, d := range g.NodesOfType("drug") {
		if n := len(g.Snapshot().Out(d, LabelTarget)); n > maxTargets {
			maxTargets = n
		}
	}
	if maxTargets < cfg.HubTargets[0] {
		t.Errorf("max drug targets = %d; hub drugs (>= %d) missing", maxTargets, cfg.HubTargets[0])
	}
}
