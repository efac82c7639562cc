package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"relsim/internal/eval"
	"relsim/internal/graph"
	"relsim/internal/rre"
	"relsim/internal/store"
)

// testGraph builds a small bibliographic graph:
//
//	papers p1..p4, authors a1..a3, one "cited" chain
//	p1 -by-> a1,a2   p2 -by-> a1,a2   p3 -by-> a3   p4 -by-> a2
//	p1 -cites-> p3
//
// Under "by.by-", p2 is the clear nearest neighbor of p1 (two shared
// authors) and p3 shares nothing with p1.
func testGraph() *graph.Graph {
	g := graph.New()
	p1 := g.AddNode("p1", "paper")
	p2 := g.AddNode("p2", "paper")
	p3 := g.AddNode("p3", "paper")
	p4 := g.AddNode("p4", "paper")
	a1 := g.AddNode("a1", "author")
	a2 := g.AddNode("a2", "author")
	a3 := g.AddNode("a3", "author")
	g.AddEdge(p1, "by", a1)
	g.AddEdge(p1, "by", a2)
	g.AddEdge(p2, "by", a1)
	g.AddEdge(p2, "by", a2)
	g.AddEdge(p3, "by", a3)
	g.AddEdge(p4, "by", a2)
	g.AddEdge(p1, "cites", p3)
	return g
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(store.New(testGraph()), nil)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func post(t *testing.T, ts *httptest.Server, path string, body, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decode: %v", path, err)
		}
	}
	return resp.StatusCode
}

func get(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	var h HealthzResponse
	if code := get(t, ts, "/healthz", &h); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if h.Status != "ok" || h.Version != 0 {
		t.Errorf("healthz = %+v", h)
	}
}

func TestSearch(t *testing.T) {
	_, ts := newTestServer(t)
	var resp SearchResponse
	code := post(t, ts, "/search", SearchRequest{Pattern: "by.by-", Query: "p1", Type: "paper"}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(resp.Results) == 0 || resp.Results[0].Name != "p2" {
		t.Fatalf("top answer = %+v, want p2 first", resp.Results)
	}
	for _, r := range resp.Results {
		if r.Name == "p3" {
			t.Errorf("p3 ranked despite sharing no author with p1: %+v", resp.Results)
		}
	}
}

func TestSearchUnknownTypeRanksNothing(t *testing.T) {
	_, ts := newTestServer(t)
	var resp SearchResponse
	code := post(t, ts, "/search", SearchRequest{Pattern: "by.by-", Query: "p1", Type: "papr"}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(resp.Results) != 0 {
		t.Errorf("type with no nodes must rank nothing, got %+v", resp.Results)
	}
}

func TestSearchErrors(t *testing.T) {
	_, ts := newTestServer(t)
	var e errorResponse
	if code := post(t, ts, "/search", SearchRequest{Pattern: "by.by-", Query: "nope"}, &e); code != http.StatusBadRequest {
		t.Errorf("unknown query node: status = %d, want 400", code)
	}
	if code := post(t, ts, "/search", SearchRequest{Pattern: "((", Query: "p1"}, &e); code != http.StatusBadRequest {
		t.Errorf("bad pattern: status = %d, want 400", code)
	}
	if code := post(t, ts, "/search", SearchRequest{Query: "p1"}, &e); code != http.StatusBadRequest {
		t.Errorf("missing pattern: status = %d, want 400", code)
	}
}

func TestBatch(t *testing.T) {
	_, ts := newTestServer(t)
	req := BatchRequest{
		Workers: 4,
		Queries: []SearchRequest{
			{Pattern: "by.by-", Query: "p1", Type: "paper"},
			{Pattern: "by.by-", Query: "p2", Type: "paper"},
			{Pattern: "cites", Query: "p1", Alg: "relsim"},
			{Pattern: "by.by-", Query: "missing"},
			{Query: "p1", Alg: "rwr"},
		},
	}
	var resp BatchResponse
	if code := post(t, ts, "/batch", req, &resp); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(resp.Results) != len(req.Queries) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(req.Queries))
	}
	if resp.Results[0].SearchResponse == nil || resp.Results[0].Results[0].Name != "p2" {
		t.Errorf("batch[0] = %+v, want p2 first", resp.Results[0])
	}
	if resp.Results[1].SearchResponse == nil || resp.Results[1].Results[0].Name != "p1" {
		t.Errorf("batch[1] = %+v, want p1 first", resp.Results[1])
	}
	if resp.Results[3].Error == "" {
		t.Error("batch[3] should report the unknown query node")
	}
	if resp.Results[4].SearchResponse == nil {
		t.Errorf("batch[4] (rwr) failed: %+v", resp.Results[4])
	}
}

// explainRoot builds, in the test, the commuting matrix /explain never
// builds, and returns its count and Equation-1 score at (from, to).
func explainRoot(t *testing.T, g *graph.Graph, pattern, from, to string) (int64, float64) {
	t.Helper()
	u, ok := resolveNode(g, from)
	if !ok {
		t.Fatalf("no node %q", from)
	}
	v, ok := resolveNode(g, to)
	if !ok {
		t.Fatalf("no node %q", to)
	}
	root := eval.New(g).Commuting(rre.MustParse(pattern))
	return root.At(int(u), int(v)), eval.PathSimScore(root, u, v)
}

// TestExplain: /explain answers the count and score of the root it
// does not build, and a witness of the pair.
func TestExplain(t *testing.T) {
	_, ts := newTestServer(t)
	var resp ExplainResponse
	code := post(t, ts, "/explain", ExplainRequest{Pattern: "by.by-", From: "p1", To: "p2"}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp.Count != 2 {
		t.Errorf("count = %d, want 2 (two shared authors)", resp.Count)
	}
	if _, score := explainRoot(t, testGraph(), "by.by-", "p1", "p2"); resp.Score != score || score <= 0 {
		t.Errorf("score = %v, want the root's %v", resp.Score, score)
	}
	w := resp.Witness
	if w == nil || w.Count != 2 || w.PathNodes != 1 || len(w.Steps) != 1 || w.Steps[0].Name != "a1" {
		t.Fatalf("witness = %+v, want count 2 and one step through a1", w)
	}
}

// TestMutationRoundTrip is the acceptance scenario: a mutation changes a
// repeated search's answer, bumps the version, carries untouched cached
// matrices forward, and patches the touched one to the new version by
// incremental maintenance — so the post-write reads of both are cache
// hits.
func TestMutationRoundTrip(t *testing.T) {
	srv, ts := newTestServer(t)

	// Prime the cache with both a "by" pattern and a "cites" pattern.
	var before SearchResponse
	post(t, ts, "/search", SearchRequest{Pattern: "by.by-", Query: "p1", Type: "paper"}, &before)
	if r := before.Results; len(r) == 0 || r[0].Name != "p2" || len(r) != 2 {
		t.Fatalf("baseline ranking = %+v, want [p2 p4]", r)
	}
	post(t, ts, "/search", SearchRequest{Pattern: "cites", Query: "p1", Alg: "relsim"}, &SearchResponse{})

	cacheBefore := srv.Cache().Stats()
	if cacheBefore.Size == 0 {
		t.Fatal("cache not primed")
	}

	// Mutate only the "cites" label.
	var mut MutationResponse
	code := post(t, ts, "/graph/edges", MutationRequest{Add: []EdgeSpec{{From: "p2", Label: "cites", To: "p3"}}}, &mut)
	if code != http.StatusOK {
		t.Fatalf("mutation status = %d (%s)", code, mut.Error)
	}
	if mut.Version != 1 || mut.EdgesAdded != 1 {
		t.Errorf("mutation response = %+v", mut)
	}

	// Selective maintenance: only the "cites" matrix was stale (one
	// invalidation of the old-version copy), and delta maintenance
	// replaced it at the new version instead of shrinking the cache.
	cacheAfter := srv.Cache().Stats()
	if got, want := cacheAfter.Invalidations-cacheBefore.Invalidations, uint64(1); got != want {
		t.Errorf("invalidated %d entries, want %d (only the cites matrix)", got, want)
	}
	if cacheAfter.Size != cacheBefore.Size {
		t.Errorf("cache size %d → %d, want the maintained entry to replace the stale one", cacheBefore.Size, cacheAfter.Size)
	}
	if ds := srv.Stats().Delta; ds.Commits != 1 || ds.Maintained != 1 || ds.Fallbacks != 0 {
		t.Errorf("delta stats = %+v, want one commit maintaining one pattern", ds)
	}

	// The repeated "by" search is served entirely from cache…
	var again SearchResponse
	post(t, ts, "/search", SearchRequest{Pattern: "by.by-", Query: "p1", Type: "paper"}, &again)
	st := srv.Cache().Stats()
	if st.Misses != cacheAfter.Misses {
		t.Errorf("repeated by.by- search recomputed matrices: misses %d → %d", cacheAfter.Misses, st.Misses)
	}
	if st.Hits <= cacheAfter.Hits {
		t.Error("repeated by.by- search did not hit the cache")
	}

	// …and the cites search reflects the new edge — served from the
	// maintained matrix, not a recompute.
	preCites := srv.Cache().Stats()
	var cites SearchResponse
	post(t, ts, "/search", SearchRequest{Pattern: "cites", Query: "p1", Alg: "relsim"}, &cites)
	if cites.Version != 1 {
		t.Errorf("search version = %d, want 1", cites.Version)
	}
	if st := srv.Cache().Stats(); st.Misses != preCites.Misses {
		t.Errorf("post-write cites search recomputed: misses %d → %d, want the maintained entry to hit", preCites.Misses, st.Misses)
	}

	// /stats agrees on the bumped version.
	var stats StatsResponse
	get(t, ts, "/stats", &stats)
	if stats.Store.Version != 1 {
		t.Errorf("stats version = %d, want 1", stats.Store.Version)
	}
	if stats.Store.Edges != 8 {
		t.Errorf("stats edges = %d, want 8", stats.Store.Edges)
	}
}

// TestMutationChangesScores proves a search answer actually changes:
// give p3 the same authors as p1; it must enter the ranking.
func TestMutationChangesScores(t *testing.T) {
	_, ts := newTestServer(t)
	var before SearchResponse
	post(t, ts, "/search", SearchRequest{Pattern: "by.by-", Query: "p1", Type: "paper"}, &before)
	for _, r := range before.Results {
		if r.Name == "p3" {
			t.Fatal("p3 already ranked before mutation")
		}
	}
	var mut MutationResponse
	post(t, ts, "/graph/edges", MutationRequest{Add: []EdgeSpec{
		{From: "p3", Label: "by", To: "a1"},
		{From: "p3", Label: "by", To: "a2"},
	}}, &mut)
	if mut.EdgesAdded != 2 {
		t.Fatalf("mutation = %+v", mut)
	}
	var after SearchResponse
	post(t, ts, "/search", SearchRequest{Pattern: "by.by-", Query: "p1", Type: "paper"}, &after)
	if after.Version != 2 {
		t.Errorf("version = %d, want 2", after.Version)
	}
	found := false
	for _, r := range after.Results {
		if r.Name == "p3" {
			found = true
		}
	}
	if !found {
		t.Errorf("p3 missing from post-mutation ranking: %+v", after.Results)
	}
}

func TestMutationAddNodes(t *testing.T) {
	_, ts := newTestServer(t)
	var mut MutationResponse
	code := post(t, ts, "/graph/edges", MutationRequest{
		AddNodes: []NodeSpec{{Name: "p5", Type: "paper"}},
		Add:      []EdgeSpec{{From: "p5", Label: "by", To: "a3"}},
	}, &mut)
	if code != http.StatusOK {
		t.Fatalf("status = %d (%s)", code, mut.Error)
	}
	if len(mut.NodesAdded) != 1 || mut.EdgesAdded != 1 {
		t.Errorf("mutation = %+v", mut)
	}
	var resp SearchResponse
	post(t, ts, "/search", SearchRequest{Pattern: "by.by-", Query: "p5", Type: "paper"}, &resp)
	if len(resp.Results) == 0 || resp.Results[0].Name != "p3" {
		t.Errorf("p5's co-author neighbor = %+v, want p3", resp.Results)
	}
}

func TestMutationErrors(t *testing.T) {
	_, ts := newTestServer(t)
	var mut MutationResponse
	code := post(t, ts, "/graph/edges", MutationRequest{Add: []EdgeSpec{{From: "ghost", Label: "by", To: "a1"}}}, &mut)
	if code != http.StatusBadRequest || mut.Error == "" {
		t.Errorf("status = %d, error = %q; want 400 with message", code, mut.Error)
	}
	code = post(t, ts, "/graph/edges", MutationRequest{Remove: []EdgeSpec{{From: "p1", Label: "by", To: "a3"}}}, &mut)
	if code != http.StatusBadRequest {
		t.Errorf("removing absent edge: status = %d, want 400", code)
	}
}

// TestNodeIDsPastInt32AreUnknown: a decimal node reference that does
// not fit a NodeID names no node, rather than wrapping onto a small id
// (4294967299 = 2³² + 3 would otherwise read as p4, and 4294967296 as
// p1). A search on one answers 400; a mutation batch naming one rolls
// back whole, its valid edge included, with no version bump.
func TestNodeIDsPastInt32AreUnknown(t *testing.T) {
	srv, ts := newTestServer(t)
	var e errorResponse
	if code := post(t, ts, "/search", SearchRequest{Pattern: "by.by-", Query: "4294967299"}, &e); code != http.StatusBadRequest {
		t.Errorf("search on id 2^32+3: status = %d, want 400", code)
	}
	before := srv.Store().Version()
	var mut MutationResponse
	code := post(t, ts, "/graph/edges", MutationRequest{Add: []EdgeSpec{
		{From: "p2", Label: "by", To: "a3"},
		{From: "4294967296", Label: "by", To: "a3"},
	}}, &mut)
	if code != http.StatusBadRequest || mut.Error == "" {
		t.Errorf("mutation on id 2^32: status = %d, error = %q; want 400 with message", code, mut.Error)
	}
	if v := srv.Store().Version(); v != before || mut.Version != before {
		t.Errorf("version after the failed batch = %d (response %d), want %d", v, mut.Version, before)
	}
	snap, _ := srv.Store().Snapshot()
	p1, _ := snap.NodeByName("p1")
	p2, _ := snap.NodeByName("p2")
	a3, _ := snap.NodeByName("a3")
	if snap.EdgeCount(p1.ID, "by", a3.ID) != 0 || snap.EdgeCount(p2.ID, "by", a3.ID) != 0 {
		t.Error("the failed batch left an edge behind")
	}
}

func TestStatsCounters(t *testing.T) {
	_, ts := newTestServer(t)
	post(t, ts, "/search", SearchRequest{Pattern: "by.by-", Query: "p1"}, &SearchResponse{})
	post(t, ts, "/explain", ExplainRequest{Pattern: "by.by-", From: "p1", To: "p2"}, &ExplainResponse{})
	var stats StatsResponse
	get(t, ts, "/stats", &stats)
	if stats.Requests["search"] != 1 || stats.Requests["explain"] != 1 {
		t.Errorf("request counters = %v", stats.Requests)
	}
	if stats.Cache.Size == 0 {
		t.Error("cache empty after search+explain")
	}
}

// TestConcurrentMutationsAndBatches interleaves writes with batch reads;
// run with -race to prove the store/evaluator locking is sound.
func TestConcurrentMutationsAndBatches(t *testing.T) {
	_, ts := newTestServer(t)
	const (
		writers = 2
		readers = 4
		iters   = 25
	)
	errc := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			var err error
			for i := 0; i < iters; i++ {
				var mut MutationResponse
				add := MutationRequest{Add: []EdgeSpec{{From: "p1", Label: fmt.Sprintf("w%d", w), To: "p3"}}}
				if code := post(t, ts, "/graph/edges", add, &mut); code != http.StatusOK {
					err = fmt.Errorf("add: status %d (%s)", code, mut.Error)
					break
				}
				rm := MutationRequest{Remove: add.Add}
				if code := post(t, ts, "/graph/edges", rm, &mut); code != http.StatusOK {
					err = fmt.Errorf("remove: status %d (%s)", code, mut.Error)
					break
				}
			}
			errc <- err
		}(w)
	}
	for r := 0; r < readers; r++ {
		go func() {
			var err error
			req := BatchRequest{Workers: 4, Queries: []SearchRequest{
				{Pattern: "by.by-", Query: "p1", Type: "paper"},
				{Pattern: "cites", Query: "p1", Alg: "relsim"},
				{Pattern: "by.by-", Query: "p2", Type: "paper"},
				{Query: "p1", Alg: "rwr"},
			}}
			for i := 0; i < iters; i++ {
				var resp BatchResponse
				if code := post(t, ts, "/batch", req, &resp); code != http.StatusOK {
					err = fmt.Errorf("batch: status %d", code)
					break
				}
				for j, res := range resp.Results {
					if res.Error != "" {
						err = fmt.Errorf("batch[%d]: %s", j, res.Error)
					}
				}
			}
			errc <- err
		}()
	}
	for i := 0; i < writers+readers; i++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
}
