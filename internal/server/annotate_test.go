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

// TestWarmExplainProjectionZeroProducts: /explain reads the halves an
// annotated /search cached, so once the search has run, its answer
// performs zero products and equals the count and score of the root a
// test builds. by.by-.by.by- has halves that cost a product each (one
// integer, one witness); by.by- has label halves only.
func TestWarmExplainProjectionZeroProducts(t *testing.T) {
	srv, ts := newTestServer(t)
	for i, pat := range []string{"by.by-", "by.by-.by.by-"} {
		// Prime: the annotated search caches the integer halves and the
		// witness halves of the pattern as written.
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
	if srv.Stats().Semiring.AnnotatedProducts == 0 {
		t.Fatal("annotated primes performed no annotated products — hook discriminator broken")
	}
}

// TestWarmAnnotatedSearchZeroProducts: a second annotated /search of
// the same pattern reads the ranking halves and the witness halves the
// first one cached, so it performs zero products. The pattern's halves
// are by.by-, so the cold search performs products; by.by- itself has
// label halves and would perform none cold either.
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
// annotated twin with 422 — annotation is priced at its witness halves,
// never smuggled in at integer cost. Alg "relsim" scores the pattern as
// given (no Algorithm-1 expansion): by.by-.by.by- reads the integer
// half by.by- twice (1 product) and the witness half by.by- twice,
// another product at eval.AnnotationCostFactor = 2, so plain costs 1
// and annotated 3. /explain has no plain twin: every answer carries its
// witness, and explainCost prices it (TestCostCeiling).
func TestAnnotatedCostCeiling(t *testing.T) {
	const pat, ceiling = "by.by-.by.by-", 1
	q := SearchRequest{Pattern: pat, Query: "p1", Type: "paper", Alg: "relsim"}
	aq := q
	aq.Annotate = AnnotateWitness
	srv := New(store.New(testGraph()), nil)
	if plain, annot := srv.searchCost(&q), srv.searchCost(&aq); plain != 1 || annot != 3 {
		t.Fatalf("searchCost = %d plain, %d annotated; want 1 and 3", plain, annot)
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
// /explain push the query's row through cached halves and build no
// root. A cold annotated relsim /search of w.p-in.p-in-.w- performs 3
// products: the integer half w.p-in (the reversed right half is the
// same key) and the witness halves w.p-in and p-in-.w-. Building the
// witness root instead took a fourth product and about 72 MB. A cold
// /explain of w.r-a.r-a-.w-, whose root holds about 10 GB, performs 3
// products the same way, with no cost ceiling set. The race detector
// inflates allocations, so under it only the products are checked.
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
	cases := []struct {
		path     string
		req      any
		products uint64
		maxBytes uint64
	}{
		{"/search", SearchRequest{Pattern: "w.p-in.p-in-.w-", Query: "author0", Type: "author",
			Alg: "relsim", Annotate: AnnotateWitness}, 3, 24 << 20},
		{"/explain", ExplainRequest{Pattern: "w.r-a.r-a-.w-", From: "author0", To: "author1"}, 3, 64<<20 - 1},
	}
	for _, tc := range cases {
		srv := New(store.New(ds.Graph), ds.Schema)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		code, body := doJSON(t, srv, tc.path, tc.req)
		runtime.ReadMemStats(&after)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", tc.path, code, body)
		}
		products := srv.Stats().Workload.ProductsMaterialized
		allocated := after.TotalAlloc - before.TotalAlloc
		t.Logf("cold %s: %d products, %.1f MB allocated", tc.path, products, float64(allocated)/(1<<20))
		if products != tc.products || !race && allocated > tc.maxBytes {
			t.Errorf("cold %s: %d products and %d bytes, want %d products and at most %d bytes",
				tc.path, products, allocated, tc.products, tc.maxBytes)
		}
	}
}
