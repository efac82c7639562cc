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

// BenchmarkExplainProjection measures /explain on dblp-small. One
// annotated /search caches the pattern's integer halves; after that
// every timed search is warm. It measures three request classes —
// /explain (count, score and witness pushed through the label chain
// w.w-), plain warm /search, and annotated warm /search — and fails
// outright unless every timed request is a read: each explanation and
// each repeated search (plain or annotated) materializes zero matrix
// products, and the explanation's count and witness agree with the
// annotated search's answer. The deterministic halves are
// TestWarmExplainProjectionZeroProducts and
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

	// Prime: the annotated search caches the integer halves, and its
	// answers pick the /explain target — a co-author-connected
	// peer, not the query itself.
	code, body := doJSON(b, srv, "/search", annotSearch)
	if code != http.StatusOK {
		b.Fatalf("prime search: status %d (%s)", code, body)
	}
	var sr SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		b.Fatal(err)
	}
	var target *ScoredNode
	for i, r := range sr.Results {
		if r.Name != plainSearch.Query && r.Witness != nil && r.Witness.Count > 0 {
			target = &sr.Results[i]
			break
		}
	}
	if target == nil {
		b.Fatalf("no annotated co-author answer for %s under %q: %s", plainSearch.Query, pat, body)
	}
	explain := ExplainRequest{Pattern: pat, From: plainSearch.Query, To: target.Name}

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
	explainBody, _ := timed("/explain", explain)
	timed("/search", plainSearch)

	var ex ExplainResponse
	if err := json.Unmarshal(explainBody, &ex); err != nil {
		b.Fatal(err)
	}
	if ex.Witness == nil || len(ex.Witness.Steps) == 0 || ex.Witness.Count != target.Witness.Count {
		b.Fatalf("explanation witness %+v disagrees with the annotated answer %+v", ex.Witness, target.Witness)
	}

	var explainT, plainT, annotT []time.Duration
	b.ResetTimer()

	productsBefore := srv.Stats().Workload.ProductsMaterialized
	warmBefore := srv.Stats().Semiring.ExplainWarm
	for i := 0; i < b.N; i++ {
		_, d := timed("/explain", explain)
		explainT = append(explainT, d)
	}
	if got := srv.Stats().Workload.ProductsMaterialized - productsBefore; got != 0 {
		b.Fatalf("warm explanations materialized %d matrix products, want 0", got)
	}
	if gotWarm := srv.Stats().Semiring.ExplainWarm - warmBefore; gotWarm != uint64(b.N) {
		b.Fatalf("only %d of %d explanations were warm (zero-product)", gotWarm, b.N)
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

	explainP50 := percentile50(explainT)
	plainP50, annotP50 := percentile50(plainT), percentile50(annotT)
	overhead := annotP50 - plainP50
	b.Logf("warm /explain p50: %v; warm /search p50: plain=%v annotated=%v (overhead %v)",
		explainP50, plainP50, annotP50, overhead)
	b.ReportMetric(float64(explainP50.Nanoseconds()), "explain_projection_ns_p50")
	b.ReportMetric(float64(overhead.Nanoseconds()), "annotated_search_overhead_ns")
}
