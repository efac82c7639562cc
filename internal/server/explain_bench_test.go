package server

import (
	"encoding/json"
	"net/http"
	"sort"
	"testing"
	"time"

	"relsim/internal/datasets"
	"relsim/internal/store"
)

// percentile50 returns the median of a duration sample.
func percentile50(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// BenchmarkExplainProjection measures witness-projection /explain on
// dblp-small. One annotated /search materializes the witness commuting
// matrix; after that every timed request is warm. It measures four
// request classes — legacy /explain (instance enumeration),
// /explain?annotate=witness (projection of the cached annotation),
// plain warm /search, and annotated warm /search — and fails outright
// unless every warm request is a read: each projection and each repeated
// search (plain or annotated) materializes zero matrix products, and the
// projected count/score equals the legacy answer. The deterministic
// halves are TestWarmExplainProjectionZeroProducts and
// TestWarmAnnotatedSearchZeroProducts.
func BenchmarkExplainProjection(b *testing.B) {
	ds, err := datasets.ByName("dblp-small")
	if err != nil {
		b.Fatal(err)
	}
	srv := New(store.New(ds.Graph), ds.Schema)

	const pat = "w.w-"
	plainSearch := SearchRequest{Pattern: pat, Query: "author0", Type: "author", Alg: "relsim", Top: 5}
	annotSearch := plainSearch
	annotSearch.Annotate = AnnotateWitness

	// Prime: the annotated search materializes the integer ranking
	// matrices and the witness twin, and its answers pick the /explain
	// target — a co-author-connected peer, not the query itself.
	code, body := doJSON(b, srv, "/search", annotSearch)
	if code != http.StatusOK {
		b.Fatalf("prime search: status %d (%s)", code, body)
	}
	var sr SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		b.Fatal(err)
	}
	target := ""
	for _, r := range sr.Results {
		if r.Name != plainSearch.Query && r.Witness != nil && r.Witness.Count > 0 {
			target = r.Name
			break
		}
	}
	if target == "" {
		b.Fatalf("no annotated co-author answer for %s under %q: %s", plainSearch.Query, pat, body)
	}

	legacyExplain := ExplainRequest{Pattern: pat, From: plainSearch.Query, To: target}
	projExplain := legacyExplain
	projExplain.Annotate = AnnotateWitness

	timed := func(path string, req any) ([]byte, time.Duration) {
		start := time.Now()
		code, body := doJSON(b, srv, path, req)
		elapsed := time.Since(start)
		if code != http.StatusOK {
			b.Fatalf("%s: status %d (%s)", path, code, body)
		}
		return body, elapsed
	}

	// One untimed round per class keeps first-call effects out of the
	// samples.
	legacyBody, _ := timed("/explain", legacyExplain)
	projBody, _ := timed("/explain", projExplain)
	timed("/search", plainSearch)

	var legacy, proj ExplainResponse
	if err := json.Unmarshal(legacyBody, &legacy); err != nil {
		b.Fatal(err)
	}
	if err := json.Unmarshal(projBody, &proj); err != nil {
		b.Fatal(err)
	}
	if proj.Count != legacy.Count || proj.Score != legacy.Score {
		b.Fatalf("projection (count %d, score %v) diverges from legacy (count %d, score %v)",
			proj.Count, proj.Score, legacy.Count, legacy.Score)
	}
	if proj.Witness == nil || len(proj.Witness.Steps) == 0 {
		b.Fatalf("projection carries no witness derivation: %s", projBody)
	}

	var legacyT, projT, plainT, annotT []time.Duration
	b.ResetTimer()

	for i := 0; i < b.N; i++ {
		_, d := timed("/explain", legacyExplain)
		legacyT = append(legacyT, d)
	}

	productsBefore := srv.Stats().Workload.ProductsMaterialized
	warmBefore := srv.Stats().Semiring.ExplainWarm
	for i := 0; i < b.N; i++ {
		_, d := timed("/explain", projExplain)
		projT = append(projT, d)
	}
	if got := srv.Stats().Workload.ProductsMaterialized - productsBefore; got != 0 {
		b.Fatalf("warm projections materialized %d matrix products, want 0", got)
	}
	if gotWarm := srv.Stats().Semiring.ExplainWarm - warmBefore; gotWarm != uint64(b.N) {
		b.Fatalf("only %d of %d projections were warm (zero-product)", gotWarm, b.N)
	}

	// Interleave the two search classes so scheduler drift taxes both
	// samples equally. Both repeat the priming search's pattern, so
	// neither may perform a product.
	productsBefore = srv.Stats().Workload.ProductsMaterialized
	for i := 0; i < b.N; i++ {
		_, dp := timed("/search", plainSearch)
		_, da := timed("/search", annotSearch)
		plainT = append(plainT, dp)
		annotT = append(annotT, da)
	}
	b.StopTimer()
	if got := srv.Stats().Workload.ProductsMaterialized - productsBefore; got != 0 {
		b.Fatalf("repeated warm searches materialized %d matrix products, want 0", got)
	}

	legacyP50, projP50 := percentile50(legacyT), percentile50(projT)
	plainP50, annotP50 := percentile50(plainT), percentile50(annotT)
	overhead := annotP50 - plainP50
	speedup := float64(legacyP50) / float64(projP50)
	b.Logf("warm /explain p50: legacy=%v projection=%v (projection %0.2fx); warm /search p50: plain=%v annotated=%v (overhead %v)",
		legacyP50, projP50, speedup, plainP50, annotP50, overhead)
	b.ReportMetric(float64(projP50.Nanoseconds()), "explain_projection_ns_p50")
	b.ReportMetric(float64(overhead.Nanoseconds()), "annotated_search_overhead_ns")
}
