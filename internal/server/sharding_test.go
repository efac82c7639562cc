package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"relsim/internal/datasets"
	"relsim/internal/sparse"
	"relsim/internal/store"
)

// newShardedPair stands up two servers over the same dataset: one on a
// monolithic store and one on a sharded store with the given layout.
func newShardedPair(tb testing.TB, k int, fn string, opts ...Option) (*Server, *Server) {
	tb.Helper()
	ds1, err := datasets.ByName("dblp-small")
	if err != nil {
		tb.Fatal(err)
	}
	ds2, err := datasets.ByName("dblp-small")
	if err != nil {
		tb.Fatal(err)
	}
	mono := New(store.New(ds1.Graph), ds1.Schema, opts...)
	sh, err := store.NewSharded(ds2.Graph, k, fn)
	if err != nil {
		tb.Fatal(err)
	}
	return mono, New(sh, ds2.Schema, opts...)
}

// randShardPattern composes a small RRE string over the dblp-small
// schema, mixing plain steps, reversals and a disjunction block.
func randShardPattern(rng *rand.Rand) string {
	steps := []string{"w", "w-", "p-in", "p-in-", "r-a", "r-a-"}
	pick := func() string { return steps[rng.Intn(len(steps))] }
	switch rng.Intn(3) {
	case 0:
		return pick() + "." + pick()
	case 1:
		return "(" + pick() + " + " + pick() + ")." + pick()
	default:
		return pick() + "." + pick() + "." + pick()
	}
}

// TestShardedK1Differential is the acceptance harness: over 500+ seeded
// workloads, a K=1 sharded server must answer /search, /batch and
// /explain (including annotate=witness) byte-for-byte identically to a
// monolithic server — the sharding layer may not perturb a single
// response byte at trivial partitioning.
func TestShardedK1Differential(t *testing.T) {
	mono, sh := newShardedPair(t, 1, sparse.PartitionHash)
	rng := rand.New(rand.NewSource(509))
	compared := 0

	check := func(path string, req any) {
		t.Helper()
		mc, mb := doJSON(t, mono, path, req)
		sc, sb := doJSON(t, sh, path, req)
		if mc != sc {
			t.Fatalf("%s: status %d (mono) vs %d (K=1): %s vs %s", path, mc, sc, mb, sb)
		}
		if !bytes.Equal(mb, sb) {
			t.Fatalf("%s: K=1 response diverges from monolithic\nreq:  %+v\nmono: %s\nk1:   %s", path, req, mb, sb)
		}
		compared++
	}

	// 320 /search workloads, half witness-annotated.
	for i := 0; i < 320; i++ {
		req := SearchRequest{
			Pattern: randShardPattern(rng),
			Query:   fmt.Sprintf("proc%d", rng.Intn(80)),
			Type:    "proc",
			Alg:     "relsim",
			Top:     3 + rng.Intn(5),
		}
		if i%2 == 0 {
			req.Annotate = AnnotateWitness
		}
		check("/search", req)
	}

	// 160 /explain workloads, half witness-annotated.
	for i := 0; i < 160; i++ {
		req := ExplainRequest{
			Pattern: randShardPattern(rng),
			From:    fmt.Sprintf("proc%d", rng.Intn(80)),
			To:      fmt.Sprintf("proc%d", rng.Intn(80)),
			Limit:   1 + rng.Intn(4),
		}
		if i%2 == 0 {
			req.Annotate = AnnotateWitness
		}
		check("/explain", req)
	}

	// 24 /batch workloads of 10 queries each (240 more query executions
	// under the concurrent batch path).
	for i := 0; i < 24; i++ {
		qs := make([]SearchRequest, 10)
		for j := range qs {
			qs[j] = SearchRequest{
				Pattern: randShardPattern(rng),
				Query:   fmt.Sprintf("proc%d", rng.Intn(80)),
				Type:    "proc",
				Alg:     "relsim",
				Top:     5,
			}
			if j%3 == 0 {
				qs[j].Annotate = AnnotateWitness
			}
		}
		check("/batch", BatchRequest{Workers: 1, Queries: qs})
	}

	if compared < 500 {
		t.Fatalf("harness compared only %d workloads, want >= 500", compared)
	}
}

// TestShardedK4Consistency spot-checks that a genuinely partitioned
// server (K=4, both shard functions) still answers identically to the
// monolithic server: the scatter-gather block kernel and shard-gathered
// views must not change any response bytes.
func TestShardedK4Consistency(t *testing.T) {
	for _, fn := range []string{sparse.PartitionHash, sparse.PartitionRange} {
		t.Run(fn, func(t *testing.T) {
			mono, sh := newShardedPair(t, 4, fn)
			rng := rand.New(rand.NewSource(41))
			for i := 0; i < 60; i++ {
				req := SearchRequest{
					Pattern:  randShardPattern(rng),
					Query:    fmt.Sprintf("proc%d", rng.Intn(80)),
					Type:     "proc",
					Alg:      "relsim",
					Top:      5,
					Annotate: map[bool]string{true: AnnotateWitness}[i%2 == 0],
				}
				mc, mb := doJSON(t, mono, "/search", req)
				sc, sb := doJSON(t, sh, "/search", req)
				if mc != sc || !bytes.Equal(mb, sb) {
					t.Fatalf("K=4/%s diverges on %+v:\nmono: %d %s\nshard: %d %s", fn, req, mc, mb, sc, sb)
				}
			}
			// The sharded server must actually have exercised the block
			// kernel, not silently fallen back to the monolithic path.
			if sh.nBlockProducts.Load() == 0 {
				t.Fatal("K=4 server performed no block products")
			}
		})
	}
}

// TestShardedStatsSurfaces checks the sharded observability surfaces:
// /healthz reports the shard count, /stats grows a sharding section,
// and /metrics exports the relsim_shard_* series — while a monolithic
// server's surfaces stay entirely shard-free.
func TestShardedStatsSurfaces(t *testing.T) {
	mono, sh := newShardedPair(t, 4, sparse.PartitionRange)

	get := func(srv *Server, path string) []byte {
		r := httptest.NewRequest(http.MethodGet, path, nil)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: %d", path, w.Code)
		}
		return w.Body.Bytes()
	}

	var hz HealthzResponse
	if err := json.Unmarshal(get(sh, "/healthz"), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Shards != 4 {
		t.Fatalf("sharded /healthz shards = %d, want 4", hz.Shards)
	}
	var monoHz HealthzResponse
	if err := json.Unmarshal(get(mono, "/healthz"), &monoHz); err != nil {
		t.Fatal(err)
	}
	if monoHz.Shards != 0 {
		t.Fatalf("monolithic /healthz shards = %d, want omitted (0)", monoHz.Shards)
	}

	// Run one query whose halves each take a product so block counters
	// move (a two-label pattern is scored from its label matrices alone).
	doJSON(t, sh, "/search", SearchRequest{Pattern: "p-in-.w-.w.p-in", Query: "proc1", Type: "proc", Alg: "relsim", Top: 3})

	stats := sh.Stats()
	if stats.Sharding == nil {
		t.Fatal("sharded /stats missing sharding section")
	}
	if stats.Sharding.Shards != 4 || stats.Sharding.Fn != sparse.PartitionRange {
		t.Fatalf("sharding section = %+v", stats.Sharding)
	}
	if len(stats.Sharding.PerShard) != 4 {
		t.Fatalf("per-shard stats: %d entries, want 4", len(stats.Sharding.PerShard))
	}
	if stats.Sharding.BlockProducts == 0 {
		t.Fatal("sharding section reports zero block products after a query")
	}
	if mono.Stats().Sharding != nil {
		t.Fatal("monolithic /stats grew a sharding section")
	}

	metrics := get(sh, "/metrics")
	for _, series := range []string{
		"relsim_shard_count", "relsim_shard_nodes", "relsim_shard_edges",
		"relsim_shard_block_products_total", "relsim_shard_blocks_skipped_total",
		"relsim_shard_block_local_entries_total", "relsim_shard_block_cross_entries_total",
	} {
		if !bytes.Contains(metrics, []byte(series)) {
			t.Errorf("sharded /metrics missing %s", series)
		}
	}
	if bytes.Contains(get(mono, "/metrics"), []byte("relsim_shard_")) {
		t.Error("monolithic /metrics exports shard series")
	}
}

// TestShardedMutateQueryStorm drives a K=4 sharded server with
// concurrent writers and readers; run under -race it is the acceptance
// storm for the coordinator's cross-shard commit and the scatter-gather
// read path.
func TestShardedMutateQueryStorm(t *testing.T) {
	ds, err := datasets.ByName("dblp-small")
	if err != nil {
		t.Fatal(err)
	}
	sh, err := store.NewSharded(ds.Graph, 4, sparse.PartitionHash)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sh, ds.Schema)

	const writers, readers, iters = 3, 5, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("storm-%d-%d", w, i)
				req := MutationRequest{
					AddNodes: []NodeSpec{{Name: name, Type: "author"}},
					Add: []EdgeSpec{
						{From: name, Label: "w", To: fmt.Sprintf("paper%d", rng.Intn(100))},
					},
				}
				code, body := doJSON(t, srv, "/graph/edges", req)
				if code != http.StatusOK {
					t.Errorf("writer %d iter %d: %d %s", w, i, code, body)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2000 + r)))
			for i := 0; i < iters; i++ {
				req := SearchRequest{
					Pattern: randShardPattern(rng),
					Query:   fmt.Sprintf("proc%d", rng.Intn(80)),
					Type:    "proc",
					Alg:     "relsim",
					Top:     3,
				}
				if i%4 == 0 {
					req.Annotate = AnnotateWitness
				}
				code, body := doJSON(t, srv, "/search", req)
				if code != http.StatusOK {
					t.Errorf("reader %d iter %d: %d %s", r, i, code, body)
					return
				}
				if i%5 == 0 {
					gr := httptest.NewRequest(http.MethodGet, "/stats", nil)
					gw := httptest.NewRecorder()
					srv.ServeHTTP(gw, gr)
					if gw.Code != http.StatusOK {
						t.Errorf("reader %d: /stats %d", r, gw.Code)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()

	// Each mutation batch carries two logical updates (node + edge).
	if got := sh.Version(); got != uint64(2*writers*iters) {
		t.Fatalf("version %d after storm, want %d (two updates per mutation)", got, 2*writers*iters)
	}
	// All shards converged on the same logical version.
	for i := 0; i < sh.NumShards(); i++ {
		if v := sh.ShardStore(i).Version(); v != sh.Version() {
			t.Fatalf("shard %d at %d, composite at %d", i, v, sh.Version())
		}
	}
}

// timeWarmBatch posts the workload once cold, then returns the fastest
// of three warm runs (the stable number a latency gate can hold on).
func timeWarmBatch(tb testing.TB, srv *Server, req BatchRequest) time.Duration {
	tb.Helper()
	if code, body := doJSON(tb, srv, "/batch", req); code != http.StatusOK {
		tb.Fatalf("warmup status %d (%s)", code, body)
	}
	best := time.Duration(1<<62 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if code, body := doJSON(tb, srv, "/batch", req); code != http.StatusOK {
			tb.Fatalf("warm run status %d (%s)", code, body)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// shardBenchDataset builds the partitioned-bench fixture: dblp-small
// scaled 2x along every axis (procs, papers, author pool), so the
// scatter-gather kernel sees real per-shard block sizes at 8
// partitions. Each call returns a fresh graph — stores must not share
// a mutable fixture.
func shardBenchDataset() datasets.Dataset {
	cfg := datasets.SmallDBLP()
	cfg.Procs *= 2
	cfg.AuthorsPool *= 2
	cfg.PapersPerProc = [2]int{cfg.PapersPerProc[0] * 2, cfg.PapersPerProc[1] * 2}
	return datasets.DBLP(cfg)
}

// BenchmarkShardScatterGather is the CI shard gate over the scaled
// dblp-small overlap fixture: K=1 must answer the warm overlap workload
// byte-identically to the monolithic server (hard failure otherwise),
// and K=8 scatter-gather must hold within 1.5x of monolithic warm batch
// latency. With BENCH_SHARD_OUT set it writes the BENCH_shard.json
// artifact CI uploads.
func BenchmarkShardScatterGather(b *testing.B) {
	req := overlapWorkload(rand.New(rand.NewSource(73)))
	results := map[string]any{
		"description": "100-query warm /batch overlap workload over 2x-scaled dblp-small; monolithic vs sharded coordinator at 8 hash partitions. Gates: K=1 byte-identical responses, K=8 warm latency <= 1.5x monolithic.",
		"command":     "go test -run='^$' -bench=BenchmarkShardScatterGather -benchtime=1x ./internal/server/",
	}

	ds := shardBenchDataset()
	mono := New(store.New(ds.Graph), ds.Schema)
	monoWarm := timeWarmBatch(b, mono, req)
	_, monoBody := doJSON(b, mono, "/batch", req)
	results["monolithic"] = map[string]any{"warm_batch_ns": monoWarm.Nanoseconds()}

	for _, k := range []int{1, 8} {
		k := k
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			dsk := shardBenchDataset()
			sh, err := store.NewSharded(dsk.Graph, k, sparse.PartitionHash)
			if err != nil {
				b.Fatal(err)
			}
			srv := New(sh, dsk.Schema)
			warm := timeWarmBatch(b, srv, req)
			_, body := doJSON(b, srv, "/batch", req)

			if k == 1 && !bytes.Equal(body, monoBody) {
				b.Fatal("K=1 warm overlap workload diverges from monolithic response bytes")
			}
			if k == 8 {
				if sh.NumShards() != 8 {
					b.Fatalf("fixture built %d partitions, want 8", sh.NumShards())
				}
				ratio := float64(warm) / float64(monoWarm)
				results["k8_over_monolithic"] = ratio
				if ratio > 1.5 {
					b.Fatalf("K=8 warm overlap workload %.2fx monolithic (%v vs %v), gate is 1.5x",
						ratio, warm, monoWarm)
				}
			}
			b.ReportMetric(float64(warm.Nanoseconds()), "warm_batch_ns")
			results[fmt.Sprintf("k%d", k)] = map[string]any{
				"warm_batch_ns":        warm.Nanoseconds(),
				"block_products_total": srv.nBlockProducts.Load(),
				"blocks_skipped_total": srv.nBlocksSkipped.Load(),
				"cross_entries_total":  srv.nBlockCross.Load(),
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if code, _ := doJSON(b, srv, "/batch", req); code != http.StatusOK {
					b.Fatalf("status %d", code)
				}
			}
		})
	}

	if out := os.Getenv("BENCH_SHARD_OUT"); out != "" {
		buf, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}
