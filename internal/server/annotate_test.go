package server

import (
	"net/http"
	"runtime"
	"runtime/debug"
	"testing"

	"relsim/internal/datasets"
	"relsim/internal/store"
)

// TestSearchAnnotateWitness checks the /search annotation contract on
// the shared bibliographic fixture: under "by.by-" from p1, p2 (two
// shared authors) must carry count 2 and a one-node derivation prefix
// through the shortlex-minimal author a1.
func TestSearchAnnotateWitness(t *testing.T) {
	_, ts := newTestServer(t)
	var resp SearchResponse
	code := post(t, ts, "/search", SearchRequest{
		Pattern: "by.by-", Query: "p1", Type: "paper", Annotate: AnnotateWitness,
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp.Annotate != AnnotateWitness {
		t.Fatalf("response annotate = %q", resp.Annotate)
	}
	if len(resp.Results) == 0 || resp.Results[0].Name != "p2" {
		t.Fatalf("top answer = %+v, want p2 first", resp.Results)
	}
	w := resp.Results[0].Witness
	if w == nil {
		t.Fatal("top answer carries no witness annotation")
	}
	if w.Count != 2 {
		t.Errorf("witness count = %d, want 2 (two shared authors)", w.Count)
	}
	if w.PathNodes != 1 || len(w.Steps) != 1 || w.Steps[0].Name != "a1" {
		t.Errorf("witness derivation = %+v, want one step through a1", w)
	}
	if w.Truncated {
		t.Error("one-step derivation reported as truncated")
	}

	// "witness" is the only annotation: any other value is a 400, never
	// a silently unannotated answer.
	if code := post(t, ts, "/search", SearchRequest{
		Pattern: "by.by-", Query: "p1", Annotate: "bogus",
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("invalid annotate value = status %d, want 400", code)
	}
}

// TestBatchAnnotateQueryParam checks that ?annotate=witness on /batch
// is the default for queries that do not choose their own.
func TestBatchAnnotateQueryParam(t *testing.T) {
	_, ts := newTestServer(t)
	var resp BatchResponse
	code := post(t, ts, "/batch?annotate=witness", BatchRequest{Queries: []SearchRequest{
		{Pattern: "by.by-", Query: "p1", Type: "paper"},
	}}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(resp.Results) != 1 || resp.Results[0].SearchResponse == nil {
		t.Fatalf("results = %+v", resp.Results)
	}
	r := resp.Results[0]
	if r.Error != "" {
		t.Fatalf("query error: %s", r.Error)
	}
	if len(r.Results) == 0 || r.Results[0].Witness == nil {
		t.Fatalf("batch results carry no witness: %+v", r.Results)
	}
}

// TestWarmExplainProjectionZeroProducts: /explain pushes its rows
// through the pattern, so after an annotated /search of the pattern its
// answer performs zero products and equals the count and score of the
// root a test builds. by.by- and by.by-.by.by- are label chains, whose
// pushes read the snapshot's rows and no matrix. The witness push of
// by.[by-.by].by- builds the witness matrix of its composite factor
// [by-.by], one annotated product.
func TestWarmExplainProjectionZeroProducts(t *testing.T) {
	srv, ts := newTestServer(t)
	for i, pat := range []string{"by.by-", "by.by-.by.by-"} {
		var sr SearchResponse
		if code := post(t, ts, "/search", SearchRequest{
			Pattern: pat, Query: "p1", Type: "paper", Annotate: AnnotateWitness,
		}, &sr); code != http.StatusOK {
			t.Fatalf("%s: prime status = %d", pat, code)
		}

		before := srv.Stats().Workload.ProductsMaterialized
		var proj ExplainResponse
		if code := post(t, ts, "/explain", ExplainRequest{
			Pattern: pat, From: "p1", To: "p2",
		}, &proj); code != http.StatusOK {
			t.Fatalf("%s: explain status = %d", pat, code)
		}
		if got := srv.Stats().Workload.ProductsMaterialized - before; got != 0 {
			t.Fatalf("%s: warm explain materialized %d products, want 0", pat, got)
		}

		count, score := explainRoot(t, testGraph(), pat, "p1", "p2")
		if proj.Count != count || proj.Score != score {
			t.Fatalf("%s: explain (count %d, score %v) diverges from the root (count %d, score %v)",
				pat, proj.Count, proj.Score, count, score)
		}
		if proj.Witness == nil || proj.Witness.Count != count {
			t.Fatalf("%s: explain witness = %+v, want count %d", pat, proj.Witness, count)
		}
		if pat == "by.by-" && (len(proj.Witness.Steps) != 1 || proj.Witness.Steps[0].Name != "a1") {
			t.Fatalf("%s: explain witness = %+v, want one step through a1", pat, proj.Witness)
		}

		sem := srv.Stats().Semiring
		if n := uint64(i + 1); sem.ExplainProjections != n || sem.ExplainWarm != n {
			t.Errorf("%s: semiring stats = %+v, want %d explanations, all warm", pat, sem, n)
		}
	}
	if got := srv.Stats().Semiring.AnnotatedProducts; got != 0 {
		t.Fatalf("label chains performed %d annotated products, want 0", got)
	}
	if code := post(t, ts, "/search", SearchRequest{
		Pattern: "by.[by-.by].by-", Query: "p1", Type: "paper", Annotate: AnnotateWitness,
	}, nil); code != http.StatusOK {
		t.Fatalf("composite search status = %d", code)
	}
	if got := srv.Stats().Semiring.AnnotatedProducts; got != 1 {
		t.Fatalf("the witness of [by-.by] took %d annotated products, want 1 — hook discriminator broken", got)
	}
}

// TestWarmAnnotatedSearchZeroProducts: a second annotated /search of
// the same pattern reads the ranking halves the first one cached and
// pushes its witness row over label rows, so it performs zero products.
// The pattern's halves are by.by-, so the cold search performs
// products; by.by- itself has label halves and would perform none cold
// either.
func TestWarmAnnotatedSearchZeroProducts(t *testing.T) {
	srv, ts := newTestServer(t)
	req := SearchRequest{Pattern: "by.by-.by.by-", Query: "p1", Type: "paper", Annotate: AnnotateWitness}
	if code := post(t, ts, "/search", req, nil); code != http.StatusOK {
		t.Fatalf("prime status = %d", code)
	}
	before := srv.Stats().Workload.ProductsMaterialized
	if before == 0 {
		t.Fatal("cold annotated search performed no products — hook broken")
	}
	var resp SearchResponse
	if code := post(t, ts, "/search", req, &resp); code != http.StatusOK {
		t.Fatalf("warm status = %d", code)
	}
	if got := srv.Stats().Workload.ProductsMaterialized - before; got != 0 {
		t.Fatalf("warm annotated search performed %d products, want 0", got)
	}
	if len(resp.Results) == 0 || resp.Results[0].Witness == nil {
		t.Fatalf("warm annotated search lost its witness: %+v", resp.Results)
	}
}

// TestAnnotatedCostCeiling is the admission table test: on /search and
// /batch, a ceiling that admits the plain request must reject its
// annotated twin with 422 — annotation is priced at its witness push,
// never smuggled in at integer cost. Alg "relsim" scores the pattern as
// given (no Algorithm-1 expansion): by.[by-.by].by- reads the halves by
// and by.[by-.by] (3 products: [by-.by] is read as the row sums of
// by-.by, two products through J), and its witness push builds the
// witness of by-.by, one product at eval.AnnotationCostFactor = 2, so
// plain costs 3 and annotated 5. A label chain's push costs nothing, so its
// annotated read costs what its plain one does. /explain has no plain
// twin: every answer carries its witness, and explainCost prices it
// (TestCostCeiling).
func TestAnnotatedCostCeiling(t *testing.T) {
	const pat, ceiling = "by.[by-.by].by-", 3
	q := SearchRequest{Pattern: pat, Query: "p1", Type: "paper", Alg: "relsim"}
	aq := q
	aq.Annotate = AnnotateWitness
	srv := New(store.New(testGraph()), nil)
	if plain, annot := srv.searchCost(&q), srv.searchCost(&aq); plain != 3 || annot != 5 {
		t.Fatalf("searchCost = %d plain, %d annotated; want 3 and 5", plain, annot)
	}
	chain := SearchRequest{Pattern: "by.by-.by.by-", Query: "p1", Type: "paper", Alg: "relsim"}
	achain := chain
	achain.Annotate = AnnotateWitness
	if plain, annot := srv.searchCost(&chain), srv.searchCost(&achain); plain != 1 || annot != 1 {
		t.Fatalf("label chain searchCost = %d plain, %d annotated; want 1 and 1", plain, annot)
	}

	cases := []struct {
		name  string
		path  string
		plain any
		annot any
	}{
		{"search", "/search", q, aq},
		{"batch", "/batch",
			BatchRequest{Queries: []SearchRequest{q}},
			BatchRequest{Queries: []SearchRequest{aq}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(store.New(testGraph()), nil, WithAdmissionMaxCost(ceiling))
			ts := newHTTPServer(t, srv)
			if code := post(t, ts, tc.path, tc.plain, nil); code != http.StatusOK {
				t.Fatalf("plain request rejected: status %d (ceiling %d)", code, ceiling)
			}
			var er errorResponse
			if code := post(t, ts, tc.path, tc.annot, &er); code != http.StatusUnprocessableEntity {
				t.Fatalf("annotated request status = %d, want 422 (ceiling %d)", code, ceiling)
			} else if er.Code != "cost_ceiling" {
				t.Fatalf("error code = %q, want cost_ceiling", er.Code)
			}
		})
	}
}

// TestColdAnnotatedReadsBuildNoRoot: on FullDBLP, annotated reads and
// /explain push the query's row through the pattern's label rows and
// build no witness matrix. A cold annotated relsim /search of
// w.p-in.p-in-.w- performs the plain read's 1 product, the integer half
// w.p-in (the reversed right half is the same key), and allocates at
// most 1.25× what the same plain cold read allocates. A cold /explain
// of w.r-a.r-a-.w-, whose root holds about 10 GB, reads no half: it
// pushes e_u and e_v through its one half w.r-a over the integer ring
// and e_u through the pattern over the witness ring, performs 0
// products and allocates under 2 MB (0.59 MB measured), with no cost
// ceiling set. The race detector inflates allocations, so under it
// only the products are checked.
func TestColdAnnotatedReadsBuildNoRoot(t *testing.T) {
	race := false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			race = race || s.Key == "-race" && s.Value == "true"
		}
	}
	ds, err := datasets.ByName("dblp")
	if err != nil {
		t.Fatal(err)
	}
	cold := func(path string, req any) (products, allocated uint64) {
		srv := New(store.New(ds.Graph), ds.Schema)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		code, body := doJSON(t, srv, path, req)
		runtime.ReadMemStats(&after)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", path, code, body)
		}
		products, allocated = srv.Stats().Workload.ProductsMaterialized, after.TotalAlloc-before.TotalAlloc
		t.Logf("cold %s: %d products, %.2f MB allocated", path, products, float64(allocated)/(1<<20))
		return products, allocated
	}

	search := SearchRequest{Pattern: "w.p-in.p-in-.w-", Query: "author0", Type: "author", Alg: "relsim"}
	_, plain := cold("/search", search)
	search.Annotate = AnnotateWitness
	if products, annotated := cold("/search", search); products != 1 || !race && annotated > plain+plain/4 {
		t.Errorf("cold annotated /search: %d products and %d bytes, want 1 product and at most 1.25 × %d bytes",
			products, annotated, plain)
	}
	explain := ExplainRequest{Pattern: "w.r-a.r-a-.w-", From: "author0", To: "author1"}
	if products, allocated := cold("/explain", explain); products != 0 || !race && allocated >= 2<<20 {
		t.Errorf("cold /explain: %d products and %d bytes, want 0 products and under %d bytes",
			products, allocated, 2<<20)
	}
}

// TestAnnotatedReadsCacheNothing: an annotated /search and an /explain
// of a pattern leave the cache holding what the plain /search of it
// leaves, on a label chain and on a pattern with a composite factor: a
// push reads label rows from the snapshot and builds no witness
// matrix into the cache.
func TestAnnotatedReadsCacheNothing(t *testing.T) {
	for _, pat := range []string{"by.by-.by.by-", "by.[by-.by].by-"} {
		search := SearchRequest{Pattern: pat, Query: "p1", Type: "paper", Alg: "relsim"}
		plain, _ := newTestServer(t)
		if code, body := doJSON(t, plain, "/search", search); code != http.StatusOK {
			t.Fatalf("%s: plain /search status %d (%s)", pat, code, body)
		}
		annotated, _ := newTestServer(t)
		search.Annotate = AnnotateWitness
		if code, body := doJSON(t, annotated, "/search", search); code != http.StatusOK {
			t.Fatalf("%s: annotated /search status %d (%s)", pat, code, body)
		}
		if code, body := doJSON(t, annotated, "/explain", ExplainRequest{Pattern: pat, From: "p1", To: "p2"}); code != http.StatusOK {
			t.Fatalf("%s: /explain status %d (%s)", pat, code, body)
		}
		want, got := plain.Stats().Cache.Size, annotated.Stats().Cache.Size
		if want == 0 || got != want {
			t.Errorf("%s: cache holds %d entries after an annotated /search and an /explain, %d after the plain /search",
				pat, got, want)
		}
	}
}
