package server

import (
	"encoding/json"
	"net/http"
	"os"
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

// BenchmarkExplainProjection is the acceptance gate for witness-
// projection /explain on dblp-small. One annotated /search materializes
// the witness commuting matrix; after that every timed request is warm.
// It measures four request classes — legacy /explain (instance
// enumeration), /explain?annotate=witness (projection of the cached
// annotation), plain warm /search, and annotated warm /search — and
// enforces two gates:
//
//   - always on: every warm projection must materialize zero matrix
//     products (the server's own warm-detection counter is the witness:
//     it only advances when a projection's evaluator performed no
//     products), and the projected count/score must equal the legacy
//     answer;
//   - with BENCH_EXPLAIN_GATE=1: warm annotated /search p50 must stay
//     within 25µs of plain warm /search p50 — annotation may not tax the
//     ranking path it rides on. The budget is absolute (one cache lookup
//     and a projection per result, ≈ 5µs here), not a ratio to the plain
//     path: a faster ranking path must not be able to fail the gate.
//
// With BENCH_EXPLAIN_OUT set it writes the BENCH_explain.json artifact
// CI uploads.
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
	// samples equally.
	for i := 0; i < b.N; i++ {
		_, dp := timed("/search", plainSearch)
		_, da := timed("/search", annotSearch)
		plainT = append(plainT, dp)
		annotT = append(annotT, da)
	}
	b.StopTimer()

	legacyP50, projP50 := percentile50(legacyT), percentile50(projT)
	plainP50, annotP50 := percentile50(plainT), percentile50(annotT)
	overhead := annotP50 - plainP50
	speedup := float64(legacyP50) / float64(projP50)
	b.Logf("warm /explain p50: legacy=%v projection=%v (projection %0.2fx); warm /search p50: plain=%v annotated=%v (overhead %v)",
		legacyP50, projP50, speedup, plainP50, annotP50, overhead)
	b.ReportMetric(float64(projP50.Nanoseconds()), "explain_projection_ns_p50")
	b.ReportMetric(float64(overhead.Nanoseconds()), "annotated_search_overhead_ns")

	// The timing gate needs a real sample: the harness's N=1 calibration
	// run would gate on a single noisy measurement.
	const maxOverhead = 25 * time.Microsecond
	if os.Getenv("BENCH_EXPLAIN_GATE") != "" && b.N >= 20 && overhead > maxOverhead {
		b.Fatalf("annotated warm /search p50 %v is %v over plain %v (gate %v)",
			annotP50, overhead, plainP50, maxOverhead)
	}

	if out := os.Getenv("BENCH_EXPLAIN_OUT"); out != "" {
		results := map[string]any{
			"description":                       "Warm /explain on dblp-small: witness projection (reads the cached annotation matrix, zero products — hard-asserted via the server's warm-projection counter) vs legacy instance enumeration, plus the annotated-/search overhead over the plain warm ranking path (an absolute budget, gated at 25µs with BENCH_EXPLAIN_GATE=1).",
			"command":                           "BENCH_EXPLAIN_GATE=1 BENCH_EXPLAIN_OUT=$PWD/BENCH_explain.json go test -run='^$' -bench=BenchmarkExplainProjection -benchtime=50x ./internal/server/",
			"rounds":                            b.N,
			"pattern":                           pat,
			"explain_legacy_ns_p50":             legacyP50.Nanoseconds(),
			"explain_projection_ns_p50":         projP50.Nanoseconds(),
			"explain_legacy_over_projection":    speedup,
			"search_plain_ns_p50":               plainP50.Nanoseconds(),
			"search_annotated_ns_p50":           annotP50.Nanoseconds(),
			"annotated_search_overhead_ns":      overhead.Nanoseconds(),
			"annotated_search_overhead_gate_ns": maxOverhead.Nanoseconds(),
			"projection_products":               0,
			"semiring":                          srv.Stats().Semiring,
		}
		buf, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}
