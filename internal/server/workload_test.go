package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"relsim/internal/datasets"
	"relsim/internal/eval"
	"relsim/internal/rre"
	"relsim/internal/sparse"
	"relsim/internal/store"
)

// doJSON posts body straight through ServeHTTP (no TCP), returning the
// status code and raw response bytes for byte-level comparison.
func doJSON(t testing.TB, srv *Server, path string, body any) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	return w.Code, w.Body.Bytes()
}

// randWorkloadPattern builds a random RRE over the test graph's labels,
// with disjunction branch order left as generated — so semantically
// equal patterns reach the server under different renderings, which is
// exactly what canonicalization must absorb.
func randWorkloadPattern(rng *rand.Rand, depth int) *rre.Pattern {
	labels := []string{"by", "cites"}
	leaf := func() *rre.Pattern {
		p := rre.Label(labels[rng.Intn(len(labels))])
		if rng.Intn(2) == 1 {
			p = rre.Rev(p)
		}
		return p
	}
	if depth == 0 || rng.Intn(4) == 0 {
		return leaf()
	}
	switch rng.Intn(8) {
	case 0, 1:
		return rre.Concat(randWorkloadPattern(rng, depth-1), randWorkloadPattern(rng, depth-1))
	case 2, 3:
		return rre.Alt(randWorkloadPattern(rng, depth-1), randWorkloadPattern(rng, depth-1))
	case 4:
		return rre.Alt(randWorkloadPattern(rng, depth-1), randWorkloadPattern(rng, depth-1), randWorkloadPattern(rng, depth-1))
	case 5:
		return rre.Nest(randWorkloadPattern(rng, depth-1))
	case 6:
		return rre.Skip(randWorkloadPattern(rng, depth-1))
	default:
		return rre.Star(randWorkloadPattern(rng, depth-1))
	}
}

// randWorkload draws one /batch request: a handful of queries over
// random patterns, nodes, types and algorithms, duplicates included.
func randWorkload(rng *rand.Rand) BatchRequest {
	nodes := []string{"p1", "p2", "p3", "p4", "a1", "a2", "a3"}
	types := []string{"", "paper", "author"}
	algs := []string{"", "relsim"}
	n := 3 + rng.Intn(5)
	qs := make([]SearchRequest, n)
	for i := range qs {
		if i > 0 && rng.Intn(5) == 0 {
			qs[i] = qs[rng.Intn(i)] // exact duplicate of an earlier query
			continue
		}
		qs[i] = SearchRequest{
			Pattern:  randWorkloadPattern(rng, 1+rng.Intn(3)).String(),
			Query:    nodes[rng.Intn(len(nodes))],
			Type:     types[rng.Intn(len(types))],
			Alg:      algs[rng.Intn(len(algs))],
			NoExpand: rng.Intn(4) == 0,
		}
	}
	return BatchRequest{Workers: 1 + rng.Intn(4), Queries: qs}
}

// naiveBatch is the reference /batch the planner is held to: every
// query is answered in isolation by a fresh evaluator over its own
// empty cache — no shared entries, no worker pool — through the same runSearch the batch workers call, and the outcomes
// are marshalled the way handleBatch writes them.
func naiveBatch(t testing.TB, srv *Server, req BatchRequest) []byte {
	t.Helper()
	view, ver := srv.st.Snapshot()
	resp := BatchResponse{Version: ver, Results: make([]BatchResult, len(req.Queries))}
	for i := range req.Queries {
		ev := eval.NewVersioned(view, ver, eval.NewCache())
		res, err := srv.runSearch(ev, &req.Queries[i], nil)
		if err != nil {
			resp.Results[i] = BatchResult{Error: err.Error()}
		} else {
			resp.Results[i] = BatchResult{SearchResponse: res}
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBatchPlanDifferential is the harness that locked the planner in:
// over 500 seeded random workloads, /batch must answer byte-identically
// to the naive per-query reference. Both sides read the same store
// (version 0, no writes), so any divergence — scores, ordering, errors,
// versions — is a planner bug.
func TestBatchPlanDifferential(t *testing.T) {
	planned := New(store.New(testGraph()), nil)

	// Directed adversarial workload first: disjunction branches that
	// collapse only after canonicalization change counts if the planner
	// canonicalizes them (the inexactness fallback's regression case) —
	// the random generator below rarely produces this shape.
	collapse := BatchRequest{Queries: []SearchRequest{
		{Pattern: "(by + cites).by- + (cites + by).by-", Query: "p1", Alg: "relsim"},
		{Pattern: "(by + cites).by-", Query: "p1", Alg: "relsim"},
		{Pattern: "(by.by- + cites) + (cites + by.by-)", Query: "p1", Type: "paper"},
	}}

	const workloads = 500
	rng := rand.New(rand.NewSource(97))
	for w := 0; w < workloads; w++ {
		req := randWorkload(rng)
		if w == 0 {
			req = collapse
		}
		codeP, bodyP := doJSON(t, planned, "/batch", req)
		if codeP != http.StatusOK {
			t.Fatalf("workload %d: status %d", w, codeP)
		}
		if bodyN := naiveBatch(t, planned, req); !bytes.Equal(bodyP, bodyN) {
			t.Fatalf("workload %d: planned /batch and the naive reference diverge\nrequest: %+v\nplan:  %s\nnaive: %s",
				w, req, bodyP, bodyN)
		}
	}
}

// overlapWorkload builds the 100-query overlap fixture over dblp-small:
// 30 base patterns — a three-branch disjunction block between two
// meta-path steps, so the block sits inside the half that takes a
// product — sampled 100 times (so ~70% of the queries reuse an earlier
// base), each occurrence rendered with a random permutation of the
// disjunction branches. Every rendering is a distinct string;
// canonicalization folds each base back onto one materialization.
func overlapWorkload(rng *rand.Rand) BatchRequest {
	steps := []string{"w", "w-", "p-in", "p-in-", "r-a", "r-a-"}
	const bases = 30
	type base struct{ branches, suffix []string }
	bs := make([]base, bases)
	for i := range bs {
		b := base{branches: make([]string, 3), suffix: make([]string, 2)}
		seen := map[string]bool{}
		for j := range b.branches {
			for {
				s := steps[rng.Intn(len(steps))]
				if !seen[s] {
					seen[s] = true
					b.branches[j] = s
					break
				}
			}
		}
		for j := range b.suffix {
			b.suffix[j] = steps[rng.Intn(len(steps))]
		}
		bs[i] = b
	}
	const queries = 100
	qs := make([]SearchRequest, queries)
	for i := range qs {
		b := bs[rng.Intn(bases)]
		perm := rng.Perm(len(b.branches))
		pat := b.suffix[0] + ".(" + b.branches[perm[0]]
		for _, k := range perm[1:] {
			pat += " + " + b.branches[k]
		}
		pat += ")." + b.suffix[1]
		qs[i] = SearchRequest{
			Pattern: pat,
			Query:   fmt.Sprintf("proc%d", rng.Intn(80)),
			Type:    "proc",
			Alg:     "relsim",
			Top:     5,
		}
	}
	return BatchRequest{Workers: 4, Queries: qs}
}

// TestWorkloadPlanDedupsOverlapFixture is the CI dedup guard: on the
// overlap fixture a cold /batch over four workers performs exactly 34
// matrix products, each distinct canonical half built once under the
// cache's in-flight guard — as many as one evaluator reading the halves
// of the batch's pattern set in order, on a fresh cache of its own.
// Each base s0.(b1 + b2 + b3).s1 is read as its three terms s0.bi.s1
// (eval.NewCut), so a product builds the half s0.bi; cut whole, the
// bases took 26, one s0.(b1 + b2 + b3) each. The
// counts are deterministic (seeded fixture; the guard makes the cold
// count independent of how the workers interleave), so this is a hard
// assertion, not a flaky perf check.
func TestWorkloadPlanDedupsOverlapFixture(t *testing.T) {
	req := overlapWorkload(rand.New(rand.NewSource(73)))
	ds, err := datasets.ByName("dblp-small")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store.New(ds.Graph), ds.Schema)

	// Materialize runs on this goroutine, so a plain counter is enough.
	var sequential uint64
	view, ver := srv.st.Snapshot()
	ev := eval.NewVersioned(view, ver, eval.NewCache())
	ev.SetMulHook(func(_, _ *sparse.Matrix) { sequential++ })
	for _, q := range req.Queries {
		for _, t := range eval.NewCut(rre.MustParse(q.Pattern)) {
			ev.Halves(t)
		}
	}

	code, body := doJSON(t, srv, "/batch", req)
	if code != http.StatusOK {
		t.Fatalf("status %d (%s)", code, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	for i, res := range resp.Results {
		if res.Error != "" {
			t.Fatalf("query %d: %s", i, res.Error)
		}
	}
	batch := srv.Stats().Workload.ProductsMaterialized
	t.Logf("products: sequential=%d batch=%d", sequential, batch)
	if sequential != 34 {
		t.Errorf("sequential reader performed %d products, want 34", sequential)
	}
	if batch != 34 {
		t.Errorf("cold /batch performed %d products, want 34", batch)
	}
}

// TestBatchPlanConsistentUnderConcurrentWrites extends the MVCC /batch
// consistency test to the planner (run under -race): while writers
// flip edges, every result of one batch must carry the batch's single
// pinned version, exact duplicates must agree — and so must queries
// whose patterns differ only in disjunction branch order, since the
// planner collapses them onto one canonical materialization.
func TestBatchPlanConsistentUnderConcurrentWrites(t *testing.T) {
	_, ts := newTestServer(t)
	const rounds = 20

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var mut MutationResponse
			add := MutationRequest{Add: []EdgeSpec{{From: "p3", Label: "by", To: "a1"}}}
			post(t, ts, "/graph/edges", add, &mut)
			post(t, ts, "/graph/edges", MutationRequest{Remove: add.Add}, &mut)
		}
	}()

	// Queries 0/1 are alt-permuted renderings of one canonical pattern;
	// 2/3 are exact duplicates of 0.
	q := SearchRequest{Pattern: "by.by- + cites", Query: "p1", Type: "paper"}
	qPerm := q
	qPerm.Pattern = "cites + by.by-"
	req := BatchRequest{Workers: 4, Queries: []SearchRequest{q, qPerm, q, q}}
	for round := 0; round < rounds; round++ {
		var resp BatchResponse
		if code := post(t, ts, "/batch", req, &resp); code != http.StatusOK {
			t.Fatalf("round %d: status %d", round, code)
		}
		for i, res := range resp.Results {
			if res.Error != "" {
				t.Fatalf("round %d result %d: %s", round, i, res.Error)
			}
			if res.Version != resp.Version {
				t.Fatalf("round %d result %d: version %d != batch version %d",
					round, i, res.Version, resp.Version)
			}
			if !reflect.DeepEqual(res.Results, resp.Results[0].Results) {
				t.Fatalf("round %d: result %d disagrees with result 0 (%q vs %q):\n%+v\n%+v",
					round, i, req.Queries[i].Pattern, req.Queries[0].Pattern,
					res.Results, resp.Results[0].Results)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestBatchTimeoutNoLeakedPins: a deadline that expires before the
// workers evaluate answers 200 with every query's deadline error,
// counts one timeout, and releases the request's pinned snapshot.
func TestBatchTimeoutNoLeakedPins(t *testing.T) {
	srv := New(store.New(testGraph()), nil, WithTimeout(time.Nanosecond))
	req := BatchRequest{Queries: []SearchRequest{
		{Pattern: "by.by-", Query: "p1", Type: "paper"},
		{Pattern: "cites + by.by-", Query: "p1", Alg: "relsim"},
	}}
	code, body := doJSON(t, srv, "/batch", req)
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (body %s)", code, body)
	}
	var timedOut BatchResponse
	if err := json.Unmarshal(body, &timedOut); err != nil {
		t.Fatal(err)
	}
	for i, res := range timedOut.Results {
		if !strings.Contains(res.Error, context.DeadlineExceeded.Error()) {
			t.Errorf("result %d: error %q, want the deadline", i, res.Error)
		}
	}
	if got := srv.Stats().Requests["timeouts"]; got != 1 {
		t.Errorf("timeouts counter = %d, want 1", got)
	}
	// The handler's deferred Release runs as ServeHTTP returns, which
	// doJSON has already waited for.
	if got := srv.st.PinStats().Readers; got != 0 {
		t.Errorf("leaked %d pinned readers after the timeout", got)
	}
	// The deadline never lands in the cache: a fresh generous request
	// completes and reuses whatever the aborted workers built.
	code, body = doJSON(t, srv, "/batch?timeout_ms=60000", req)
	if code != http.StatusOK {
		t.Fatalf("retry status = %d (%s)", code, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	for i, res := range resp.Results {
		if res.Error != "" {
			t.Errorf("retry result %d: %s", i, res.Error)
		}
	}
}

// TestWorkloadStatsReported: /stats surfaces the products a /batch
// materialized. The alternation is read as its terms, and the term
// by.by-.by reads the half by.by-, a product; a two-label term such as
// by.by- would read two labels and perform none.
func TestWorkloadStatsReported(t *testing.T) {
	_, ts := newTestServer(t)
	req := BatchRequest{Queries: []SearchRequest{
		{Pattern: "by.by-.by + cites", Query: "p1", Alg: "relsim"},
		{Pattern: "cites + by.by-.by", Query: "p2", Alg: "relsim"},
	}}
	var resp BatchResponse
	if code := post(t, ts, "/batch", req, &resp); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var stats StatsResponse
	get(t, ts, "/stats", &stats)
	if stats.Workload.ProductsMaterialized == 0 {
		t.Error("products_materialized = 0, want at least the by.by- product")
	}
}
