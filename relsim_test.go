package relsim

import (
	"strings"
	"sync"
	"testing"
)

// courseGraph builds a small WSU-style database where all offerings of a
// course share the course's subjects (the §7.1 constraint).
func courseGraph() (*Graph, []NodeID, []NodeID) {
	g := NewGraph()
	subjects := make([]NodeID, 4)
	for i := range subjects {
		subjects[i] = g.AddNode("subject"+string(rune('A'+i)), "subject")
	}
	courseSubjects := [][]int{{0, 1}, {0, 1}, {1, 2}, {2, 3}}
	courses := make([]NodeID, len(courseSubjects))
	offer := 0
	for i, subs := range courseSubjects {
		courses[i] = g.AddNode("course"+string(rune('0'+i)), "course")
		for k := 0; k <= i%2; k++ {
			o := g.AddNode("", "offer")
			offer++
			g.AddEdge(o, "co", courses[i])
			for _, s := range subs {
				g.AddEdge(o, "os", subjects[s])
			}
		}
	}
	return g, courses, subjects
}

func courseSchema() *Schema {
	return NewSchema([]string{"co", "os"},
		TGD("wsu-subject",
			[]Atom{
				At("o1", "os", "s"),
				At("o1", "co", "c"),
				At("o2", "co", "c"),
			},
			"o2", "os", "s"))
}

func TestParsePattern(t *testing.T) {
	p, err := ParsePattern("co-.os.os-.co")
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsSimple() {
		t.Error("meta-path must be simple")
	}
	if _, err := ParsePattern("((("); err == nil {
		t.Error("bad input must fail")
	}
}

func TestMustParsePatternPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParsePattern must panic on bad input")
		}
	}()
	MustParsePattern(")")
}

func TestEngineSearch(t *testing.T) {
	g, courses, _ := courseGraph()
	eng := NewEngine(g, courseSchema())
	if bad := eng.CheckConstraints(5); len(bad) != 0 {
		t.Fatalf("constraints violated: %v", bad)
	}
	r, err := eng.Search("co-.os.os-.co", courses[0], WithCandidates(courses))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() == 0 {
		t.Fatal("empty search result")
	}
	// course1 shares both subjects with course0 and must rank first.
	if r.IDs[0] != courses[1] {
		t.Errorf("top = %v, want course1", g.Node(r.IDs[0]).Name)
	}
}

func TestEngineSearchWithCandidateType(t *testing.T) {
	g, courses, _ := courseGraph()
	eng := NewEngine(g, courseSchema())
	r, err := eng.Search("co-.os.os-.co", courses[0], WithCandidateType(g, "course"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range r.IDs {
		if g.Node(id).Type != "course" {
			t.Errorf("non-course answer %v", id)
		}
	}
}

func TestEngineSearchWithoutExpansion(t *testing.T) {
	g, courses, _ := courseGraph()
	eng := NewEngine(g, courseSchema())
	p := MustParsePattern("co-.os.os-.co")
	expanded, err := eng.SearchPattern(p, courses[0], WithCandidates(courses))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := eng.SearchPattern(p, courses[0], WithCandidates(courses), WithoutExpansion())
	if err != nil {
		t.Fatal(err)
	}
	// Expansion aggregates more patterns, so scores must not be smaller.
	if expanded.Len() == 0 || plain.Len() == 0 {
		t.Fatal("empty rankings")
	}
	if expanded.Scores[0] < plain.Scores[0] {
		t.Errorf("aggregate score %v < plain %v", expanded.Scores[0], plain.Scores[0])
	}
}

func TestEngineSearchBadInput(t *testing.T) {
	g, courses, _ := courseGraph()
	eng := NewEngine(g, courseSchema())
	if _, err := eng.Search("", courses[0]); err == nil {
		t.Error("empty pattern must fail")
	}
	if _, err := eng.Search("co", NodeID(10_000)); err == nil {
		t.Error("unknown query node must fail")
	}
}

func TestEngineNilSchema(t *testing.T) {
	g, courses, _ := courseGraph()
	eng := NewEngine(g, nil)
	r, err := eng.Search("co-.os.os-.co", courses[0], WithCandidates(courses))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() == 0 {
		t.Fatal("nil-schema search must still work (plain RelSim)")
	}
	if got := len(eng.Schema().Labels); got != 2 {
		t.Errorf("derived schema labels = %d, want 2", got)
	}
}

func TestEngineExpandPattern(t *testing.T) {
	g, _, _ := courseGraph()
	eng := NewEngine(g, courseSchema())
	ps, err := eng.ExpandPattern(MustParsePattern("co-.os"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) < 2 {
		t.Errorf("expected expansion beyond the input, got %d patterns", len(ps))
	}
	if _, err := eng.ExpandPattern(MustParsePattern("[co]")); err == nil {
		t.Error("non-simple input must be rejected")
	}
}

func TestEngineNonSimpleSearch(t *testing.T) {
	g, courses, _ := courseGraph()
	eng := NewEngine(g, courseSchema())
	// RRE input skips Algorithm 1 and scores directly.
	r, err := eng.Search("co-.<os>.<os->.co", courses[0], WithCandidates(courses))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() == 0 {
		t.Fatal("RRE search returned nothing")
	}
}

func TestEngineInstanceCount(t *testing.T) {
	g, courses, subjects := courseGraph()
	eng := NewEngine(g, courseSchema())
	p := MustParsePattern("co-.os")
	// course0 has one offering connected to subjects A and B.
	if got := eng.InstanceCount(p, courses[0], subjects[0]); got != 1 {
		t.Errorf("count(course0→subjectA) = %d, want 1", got)
	}
	if got := eng.InstanceCount(p, courses[0], subjects[3]); got != 0 {
		t.Errorf("count(course0→subjectD) = %d, want 0", got)
	}
}

func TestEngineExplainWitness(t *testing.T) {
	g, courses, _ := courseGraph()
	eng := NewEngine(g, courseSchema())
	p := MustParsePattern("co-.os.os-.co")
	// course0 and course1 share subjects A and B; the derivation visits
	// offer → subject → offer, three intermediate nodes.
	ex, ok := eng.ExplainWitness(p, courses[0], courses[1])
	if !ok {
		t.Fatal("no witness for connected pair course0→course1")
	}
	if want := eng.InstanceCount(p, courses[0], courses[1]); ex.Count != want {
		t.Errorf("witness count = %d, want %d (InstanceCount)", ex.Count, want)
	}
	if len(ex.Steps) != 3 || ex.PathNodes != 3 || ex.Truncated {
		t.Errorf("witness derivation = %+v, want 3 untruncated steps", ex)
	}
	for _, id := range ex.Steps {
		if !g.Has(id) {
			t.Errorf("witness step %d is not a graph node", id)
		}
	}
	if _, ok := eng.ExplainWitness(p, courses[0], courses[3]); ok {
		t.Error("witness reported for disconnected pair course0→course3 (no shared subject)")
	}
}

func TestEngineBaselineWrappers(t *testing.T) {
	g, courses, _ := courseGraph()
	eng := NewEngine(g, courseSchema())
	if r := eng.RWR(courses[0], courses); r.Len() == 0 {
		t.Error("RWR wrapper empty")
	}
	if r := eng.SimRank(courses[0], courses); r.Len() == 0 {
		t.Error("SimRank wrapper empty")
	}
	if r := eng.HeteSim(MustParsePattern("co-.os"), courses[0], nil); r.Len() == 0 {
		t.Error("HeteSim wrapper empty")
	}
	if _, err := eng.PathSim(MustParsePattern("[co]"), courses[0], nil); err == nil {
		t.Error("PathSim wrapper must reject non-simple patterns")
	}
}

func TestRewriteAndVerifyInverseFacade(t *testing.T) {
	// Course database under the WSUC2ALCH-style transformation, all
	// through the facade types.
	g, _, _ := courseGraph()
	t1 := Transformation{
		Name: "toAlchemy",
		Rules: []Rule{
			{
				Name:       "copy-co",
				Premise:    []Atom{At("x", "co", "y")},
				Conclusion: []ConclusionAtom{{From: "x", Label: "co", To: "y"}},
			},
			{
				Name: "subject-to-course",
				Premise: []Atom{
					At("o", "co", "c"),
					At("o", "os", "s"),
				},
				Conclusion: []ConclusionAtom{{From: "c", Label: "cs", To: "s"}},
			},
		},
	}
	inv := Transformation{
		Name: "back",
		Rules: []Rule{
			{
				Name:       "copy-co",
				Premise:    []Atom{At("x", "co", "y")},
				Conclusion: []ConclusionAtom{{From: "x", Label: "co", To: "y"}},
			},
			{
				Name: "subject-to-offer",
				Premise: []Atom{
					At("o", "co", "c"),
					At("c", "cs", "s"),
				},
				Conclusion: []ConclusionAtom{{From: "o", Label: "os", To: "s"}},
			},
		},
	}
	if !VerifyInverse(g, t1, inv) {
		t.Fatal("transformation must be invertible on the constraint-satisfying instance")
	}
	p := MustParsePattern("co-.os.os-.co")
	q, err := RewritePattern(p, inv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.String(), "cs") {
		t.Errorf("rewritten pattern %s should use the cs label", q)
	}

	// Theorem 2: identical rankings across the transformation.
	dst := t1.Apply(g)
	engS, engT := NewEngine(g, nil), NewEngine(dst, nil)
	courses := g.NodesOfType("course")
	for _, query := range courses {
		a := engS.RelSim(p, query, courses)
		b := engT.RelSim(q, query, courses)
		if a.Len() != b.Len() {
			t.Fatalf("lengths differ for %d", query)
		}
		for i := range a.IDs {
			if a.IDs[i] != b.IDs[i] || a.Scores[i] != b.Scores[i] {
				t.Fatalf("rankings differ for %d at %d", query, i)
			}
		}
	}
}

func TestEngineMaterialize(t *testing.T) {
	g, courses, _ := courseGraph()
	eng := NewEngine(g, nil)
	p := MustParsePattern("co-.os.os-.co")
	eng.Materialize(p)
	r, err := eng.SearchPattern(p, courses[0], WithoutExpansion())
	if err != nil || r.Len() == 0 {
		t.Fatalf("materialized search failed: %v", err)
	}
}

// invalidationGraph builds a small graph with three labels so patterns
// over disjoint label sets can be cached side by side.
func invalidationGraph() *Graph {
	g := NewGraph()
	n := make([]NodeID, 4)
	for i := range n {
		n[i] = g.AddNode("", "")
	}
	g.AddEdge(n[0], "a", n[1])
	g.AddEdge(n[1], "b", n[2])
	g.AddEdge(n[2], "c", n[3])
	g.AddEdge(n[0], "c", n[2])
	return g
}

func TestInvalidateLabelsSelective(t *testing.T) {
	eng := NewEngine(invalidationGraph(), nil)
	pab := MustParsePattern("a.b")
	pc := MustParsePattern("c")
	eng.Materialize(pab, pc)
	// Cached: "a.b", its halves "a" and "b-" (the right one is kept
	// reversed), "b" under "b-", and "c".
	if got := eng.CacheStats().Size; got != 5 {
		t.Fatalf("cache size = %d, want 5", got)
	}

	// Touching label c must evict only "c".
	if n := eng.InvalidateLabels("c"); n != 1 {
		t.Errorf("InvalidateLabels(c) evicted %d, want 1", n)
	}
	if got := eng.CacheStats().Size; got != 4 {
		t.Errorf("cache size after invalidating c = %d, want 4", got)
	}

	// The surviving halves of "a.b" are served from cache: a hit each,
	// no miss. RelSim scores from them; InstanceCount would push over
	// the graph's rows and read no cache.
	before := eng.CacheStats()
	eng.RelSim(pab, 0, []NodeID{2})
	after := eng.CacheStats()
	if after.Hits != before.Hits+2 || after.Misses != before.Misses {
		t.Errorf("expected pure cache hits for a and b-, got hits %d→%d misses %d→%d",
			before.Hits, after.Hits, before.Misses, after.Misses)
	}

	// Touching label a evicts "a" and "a.b" but not "b".
	if n := eng.InvalidateLabels("a"); n != 2 {
		t.Errorf("InvalidateLabels(a) evicted %d, want 2", n)
	}
	if got := eng.CacheStats().Size; got != 2 {
		t.Errorf("cache size = %d, want 2 (only b and b-)", got)
	}
}

// TestInvalidationReflectsNewEdges reads c.c- through the cache: RelSim
// scores node 2 against node 0 from the pattern's cached halves. The
// edge 0 -c-> 3 gives the two nodes a shared c-target, moving the score
// from 0 to 2·1/(2+1).
func TestInvalidationReflectsNewEdges(t *testing.T) {
	g := invalidationGraph()
	eng := NewEngine(g, nil)
	pcc := MustParsePattern("c.c-")
	score := func() float64 {
		r := eng.RelSim(pcc, 0, []NodeID{2})
		if r.Len() == 0 {
			return 0
		}
		return r.Scores[0]
	}
	if got := score(); got != 0 {
		t.Fatalf("c.c-(0,2) scores %v, want 0", got)
	}
	g.AddEdge(0, "c", 3)
	// Without invalidation the stale cached matrices are served.
	if got := score(); got != 0 {
		t.Fatalf("stale read should still score 0, got %v", got)
	}
	eng.InvalidateLabels("c")
	if got, want := score(), 2.0/3; got != want {
		t.Errorf("after invalidation c.c-(0,2) scores %v, want %v", got, want)
	}
}

func TestInvalidateAll(t *testing.T) {
	eng := NewEngine(invalidationGraph(), nil)
	eng.Materialize(MustParsePattern("a"), MustParsePattern("b"), MustParsePattern("c"))
	if n := eng.InvalidateAll(); n != 3 {
		t.Errorf("InvalidateAll = %d, want 3", n)
	}
	if got := eng.CacheStats().Size; got != 0 {
		t.Errorf("cache size = %d, want 0", got)
	}
	if st := eng.CacheStats(); st.Invalidations != 3 {
		t.Errorf("Invalidations = %d, want 3", st.Invalidations)
	}
}

// TestInvalidateConcurrentWithReads moves the engine through versions
// while readers evaluate: every read sees the unchanged graph's count,
// and the cache ends holding only the last version's entries.
func TestInvalidateConcurrentWithReads(t *testing.T) {
	eng := NewEngine(invalidationGraph(), nil)
	pab, pc := MustParsePattern("a.b"), MustParsePattern("c")
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := eng.InstanceCount(pab, 0, 2) + eng.InstanceCount(pc, 0, 2); got != 2 {
					t.Errorf("a.b(0,2) + c(0,2) = %d, want 2", got)
					return
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		if i%10 == 0 {
			eng.InvalidateAll()
		} else {
			eng.InvalidateLabels("c")
		}
	}
	wg.Wait()
	eng.InvalidateLabels("c")
	if st := eng.CacheStats(); st.Versions > 1 {
		t.Fatalf("cache holds %d versions after the last invalidation, want at most 1", st.Versions)
	}
}

func TestEngineExplain(t *testing.T) {
	g, courses, subjects := courseGraph()
	eng := NewEngine(g, nil)
	p := MustParsePattern("co-.os")
	ins := eng.Explain(p, courses[0], subjects[0], 0)
	if len(ins) == 0 {
		t.Fatal("expected at least one explanation")
	}
	if !strings.Contains(ins[0], "course0") || !strings.Contains(ins[0], "subjectA") {
		t.Errorf("explanation should use node names: %q", ins[0])
	}
	if len(eng.Explain(p, courses[0], subjects[3], 0)) != 0 {
		t.Error("unconnected pair must have no explanation")
	}
	// The limit caps output.
	all := eng.Explain(MustParsePattern("co-.os.os-.co"), courses[0], courses[1], 0)
	if len(all) < 2 {
		t.Fatalf("expected multiple instances, got %d", len(all))
	}
	if got := eng.Explain(MustParsePattern("co-.os.os-.co"), courses[0], courses[1], 1); len(got) != 1 {
		t.Errorf("limit ignored: %d", len(got))
	}
}

func TestEngineConjunctiveSimilarity(t *testing.T) {
	g, courses, _ := courseGraph()
	eng := NewEngine(g, nil)
	// Courses sharing a subject through their offerings, conjunctively.
	c := ConjunctivePattern{
		From: "c1", To: "c2",
		Atoms: []ConjAtom{
			{From: "c1", Path: MustParsePattern("co-.os"), To: "s"},
			{From: "c2", Path: MustParsePattern("co-.os"), To: "s"},
		},
	}
	got, err := eng.ConjunctiveSimilarity(c, courses[0], courses[1])
	if err != nil {
		t.Fatal(err)
	}
	want := eng.RelSim(MustParsePattern("co-.os.os-.co"), courses[0], []NodeID{courses[1]})
	if want.Len() != 1 || got != want.Scores[0] {
		t.Errorf("conjunctive = %v, chain = %v", got, want.Scores)
	}
}

func TestRenamingFacade(t *testing.T) {
	g, _, _ := courseGraph()
	ren := map[string]string{"co": "offering-course", "os": "offering-subject"}
	fwd := Renaming("r", ren)
	inv, err := RenamingInverse("r⁻¹", ren)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyInverse(g, fwd, inv) {
		t.Error("renaming must round-trip")
	}
	if _, err := RenamingInverse("bad", map[string]string{"a": "x", "b": "x"}); err == nil {
		t.Error("non-injective renaming must fail")
	}
}

// TestEngineSharesCanonicalEntries: the engine keys its cache by the
// canonical form of each pattern, so a disjunction written in another
// branch order is served from the entries the first spelling built.
func TestEngineSharesCanonicalEntries(t *testing.T) {
	g, _, _ := courseGraph()
	eng := NewEngine(g, courseSchema())
	eng.Materialize(MustParsePattern("co.(os + co-)"))
	before := eng.CacheStats()
	eng.Materialize(MustParsePattern("co.(co- + os)"))
	after := eng.CacheStats()
	if after.Size != before.Size || after.Misses != before.Misses {
		t.Fatalf("second spelling: size %d -> %d, misses %d -> %d; want no new entry",
			before.Size, after.Size, before.Misses, after.Misses)
	}
}
