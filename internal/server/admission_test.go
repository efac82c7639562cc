package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"relsim/internal/datasets"
	"relsim/internal/eval"
	"relsim/internal/rre"
	"relsim/internal/store"
)

// newAdmServer is newTestServer with options, also handing back the
// store so tests can probe PinStats.
func newAdmServer(t *testing.T, opts ...Option) (*store.Store, *Server, *httptest.Server) {
	t.Helper()
	st := store.New(testGraph())
	srv := New(st, nil, opts...)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return st, srv, ts
}

// queueWait bounds how long one queued request waits for admission
// capacity (admission.DefaultQueueWait otherwise).
func queueWait(d time.Duration) Option {
	return func(s *Server) { s.admCfg.QueueWait = d }
}

// postKeyed posts body with an API key, returning the status, the
// Retry-After header, and the decoded error body (zero on success).
func postKeyed(t *testing.T, ts *httptest.Server, path, key string, body any) (int, string, errorResponse) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set(APIKeyHeader, key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e errorResponse
	json.NewDecoder(resp.Body).Decode(&e)
	return resp.StatusCode, resp.Header.Get("Retry-After"), e
}

func mustPat(t *testing.T, s string) *rre.Pattern {
	t.Helper()
	p, err := rre.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRequestContextTimeoutMs pins down the ?timeout_ms= edge cases:
// zero, negative, garbage and Atoi-overflowing values are a 400, valid
// values become the deadline, and values past the server ceiling —
// including the ones that used to overflow the millisecond multiply
// into a negative Duration and silently disable the deadline — are
// clamped to it.
func TestRequestContextTimeoutMs(t *testing.T) {
	// 1e13 ms overflows the time.Millisecond multiply (> ~9.22e12); it
	// used to wrap negative and erase the deadline entirely.
	const overflowMs = "10000000000000"
	cases := []struct {
		name    string
		raw     string
		max     time.Duration
		wantErr bool
		want    time.Duration // expected remaining deadline; 0 = no deadline
	}{
		{name: "absent uses server default (none)", raw: "", max: time.Minute, want: 0},
		{name: "valid", raw: "1500", max: time.Minute, want: 1500 * time.Millisecond},
		{name: "zero", raw: "0", max: time.Minute, wantErr: true},
		{name: "negative", raw: "-5", max: time.Minute, wantErr: true},
		{name: "garbage", raw: "soon", max: time.Minute, wantErr: true},
		{name: "float", raw: "10.5", max: time.Minute, wantErr: true},
		{name: "atoi overflow", raw: "99999999999999999999", max: time.Minute, wantErr: true},
		{name: "clamped to ceiling", raw: "120000", max: 2 * time.Second, want: 2 * time.Second},
		{name: "multiply overflow clamped", raw: overflowMs, max: 2 * time.Second, want: 2 * time.Second},
		{name: "multiply overflow no ceiling", raw: overflowMs, max: -1, want: time.Duration(1 << 62)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(store.New(testGraph()), nil, WithMaxTimeout(tc.max))
			url := "/search"
			if tc.raw != "" {
				url += "?timeout_ms=" + tc.raw
			}
			r := httptest.NewRequest(http.MethodPost, url, nil)
			ctx, cancel, err := srv.requestContext(r)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("timeout_ms=%q: want error, got none", tc.raw)
				}
				return
			}
			if err != nil {
				t.Fatalf("timeout_ms=%q: %v", tc.raw, err)
			}
			defer cancel()
			dl, ok := ctx.Deadline()
			if tc.want == 0 {
				if ok {
					t.Fatalf("timeout_ms=%q: unexpected deadline %v", tc.raw, dl)
				}
				return
			}
			if !ok {
				t.Fatalf("timeout_ms=%q: no deadline (the old overflow bug)", tc.raw)
			}
			if rem := time.Until(dl); rem > tc.want || rem < tc.want-time.Second {
				t.Fatalf("timeout_ms=%q: remaining %v, want ~%v", tc.raw, rem, tc.want)
			}
		})
	}
}

func TestTimeoutMsRejectedOverHTTP(t *testing.T) {
	_, _, ts := newAdmServer(t)
	for _, raw := range []string{"0", "-1", "nope"} {
		var e errorResponse
		code := post(t, ts, "/search?timeout_ms="+raw, SearchRequest{Pattern: "by.by-", Query: "p1"}, &e)
		if code != http.StatusBadRequest || !strings.Contains(e.Error, "timeout_ms") {
			t.Fatalf("timeout_ms=%q: status %d body %+v, want 400 about timeout_ms", raw, code, e)
		}
	}
}

// TestBodyBound verifies the MaxBytesReader satellite: oversized bodies
// answer 413 with a stable code instead of being read whole.
func TestBodyBound(t *testing.T) {
	_, _, ts := newAdmServer(t, WithMaxBodyBytes(128))
	big := SearchRequest{Pattern: "by.by-", Query: strings.Repeat("x", 4096)}
	code, _, e := postKeyed(t, ts, "/search", "", big)
	if code != http.StatusRequestEntityTooLarge || e.Code != "body_too_large" {
		t.Fatalf("oversized body: status %d code %q, want 413 body_too_large", code, e.Code)
	}
	// Mutations share the bound.
	var edges []EdgeSpec
	for i := 0; i < 64; i++ {
		edges = append(edges, EdgeSpec{From: "p1", Label: "by", To: "a1"})
	}
	code, _, e = postKeyed(t, ts, "/graph/edges", "", MutationRequest{Add: edges})
	if code != http.StatusRequestEntityTooLarge || e.Code != "body_too_large" {
		t.Fatalf("oversized mutation: status %d code %q, want 413 body_too_large", code, e.Code)
	}
	// Small bodies still work.
	code, _, _ = postKeyed(t, ts, "/search", "", SearchRequest{Pattern: "by.by-", Query: "p1"})
	if code != http.StatusOK {
		t.Fatalf("small body: status %d, want 200", code)
	}
}

// TestPanicRecovery verifies the recovery satellite: a handler panic
// answers a clean 500, releases its pinned snapshot, leaves the
// in-flight gauge at zero, and bumps the panics counter.
func TestPanicRecovery(t *testing.T) {
	st, srv, ts := newAdmServer(t)
	srv.testHookEval = func(req *SearchRequest) {
		if req.Top == 99 {
			panic("kaboom")
		}
	}
	code, _, e := postKeyed(t, ts, "/search", "", SearchRequest{Pattern: "by.by-", Query: "p1", Top: 99})
	if code != http.StatusInternalServerError || e.Code != "panic" || !strings.Contains(e.Error, "kaboom") {
		t.Fatalf("panicking request: status %d body %+v, want 500 code panic", code, e)
	}
	if ps := st.PinStats(); ps.Readers != 0 {
		t.Fatalf("pins leaked across a panic: %+v", ps)
	}
	// The 500 is written inside the recovery, before the observability
	// middleware's deferred gauge decrement runs — poll briefly rather
	// than race it.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, body := scrape(t, srv)
		if v := seriesValue(t, body, "relsim_http_panics_total"); v != 1 {
			t.Fatalf("relsim_http_panics_total = %v, want 1", v)
		}
		// The scrape itself is in flight while it renders, so the drained
		// value is 1, not 0; anything higher means the panic leaked an
		// increment.
		if v := seriesValue(t, body, "relsim_http_in_flight_requests"); v == 1 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("relsim_http_in_flight_requests = %v after panic, want 1 (the scrape itself)", v)
		}
		time.Sleep(time.Millisecond)
	}
	// The server keeps serving.
	if code, _, _ := postKeyed(t, ts, "/search", "", SearchRequest{Pattern: "by.by-", Query: "p1"}); code != http.StatusOK {
		t.Fatalf("request after panic: status %d, want 200", code)
	}
}

// TestBatchWorkerPanicIsPerQueryError verifies the second half of the
// recovery satellite: batch workers are plain goroutines outside
// net/http's recovery, so a panic there used to crash the whole
// process. It must surface as that query's error with the rest of the
// batch intact.
func TestBatchWorkerPanicIsPerQueryError(t *testing.T) {
	st, srv, ts := newAdmServer(t)
	srv.testHookEval = func(req *SearchRequest) {
		if req.Top == 99 {
			panic("worker kaboom")
		}
	}
	var resp BatchResponse
	code := post(t, ts, "/batch", BatchRequest{Queries: []SearchRequest{
		{Pattern: "by.by-", Query: "p1"},
		{Pattern: "by.by-", Query: "p1", Top: 99},
	}}, &resp)
	if code != http.StatusOK {
		t.Fatalf("batch status = %d, want 200", code)
	}
	if resp.Results[0].Error != "" || resp.Results[0].SearchResponse == nil {
		t.Fatalf("healthy query harmed by sibling panic: %+v", resp.Results[0])
	}
	if !strings.Contains(resp.Results[1].Error, "worker kaboom") {
		t.Fatalf("panicking query error = %q, want the panic surfaced", resp.Results[1].Error)
	}
	if ps := st.PinStats(); ps.Readers != 0 {
		t.Fatalf("pins leaked: %+v", ps)
	}
}

// TestShedBeforePin is the tentpole's core invariant, deterministically:
// with capacity saturated by blocked requests, every further request is
// shed with 503 + Retry-After without ever pinning a snapshot —
// PinStats stays exactly at the in-flight count.
func TestShedBeforePin(t *testing.T) {
	st, srv, ts := newAdmServer(t, WithAdmissionLimits(2, 0))
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	srv.testHookEval = func(req *SearchRequest) {
		if req.Top == 77 {
			entered <- struct{}{}
			<-release
		}
	}
	done := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			code, _, _ := postKeyed(t, ts, "/search", "", SearchRequest{Pattern: "by.by-", Query: "p1", Top: 77})
			done <- code
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatal("blocked requests never entered evaluation")
		}
	}
	if ps := st.PinStats(); ps.Readers != 2 {
		t.Fatalf("admitted readers pinned = %d, want 2", ps.Readers)
	}
	// Capacity is saturated; everything else must shed O(1), pre-pin.
	for i := 0; i < 4; i++ {
		code, retry, e := postKeyed(t, ts, "/search", "", SearchRequest{Pattern: "by.by-", Query: "p1"})
		if code != http.StatusServiceUnavailable || e.Code != "overloaded" {
			t.Fatalf("overload request %d: status %d code %q, want 503 overloaded", i, code, e.Code)
		}
		if retry == "" {
			t.Fatalf("shed response missing Retry-After")
		}
	}
	if ps := st.PinStats(); ps.Readers != 2 {
		t.Fatalf("shed requests pinned snapshots: readers = %d, want 2 (shed must reject pre-pin)", ps.Readers)
	}
	if shed := srv.Admission().Shed(); shed != 4 {
		t.Fatalf("shed counter = %d, want 4", shed)
	}
	// The exempt surfaces still answer under full load.
	var h HealthzResponse
	if code := get(t, ts, "/healthz", &h); code != http.StatusOK {
		t.Fatalf("/healthz shed under load: %d", code)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Fatalf("admitted request finished %d, want 200", code)
		}
	}
	if got := srv.Admission().InFlight(); got != 0 {
		t.Fatalf("in-flight after drain = %d, want 0", got)
	}
}

// TestRateLimit verifies per-client token buckets: independent keys,
// and 429 + Retry-After on a drained bucket.
func TestRateLimit(t *testing.T) {
	_, _, ts := newAdmServer(t, WithAdmissionRate(0.5, 2))
	req := SearchRequest{Pattern: "by.by-", Query: "p1"}
	for i := 0; i < 2; i++ {
		if code, _, e := postKeyed(t, ts, "/search", "alice", req); code != http.StatusOK {
			t.Fatalf("alice burst request %d: status %d %+v", i, code, e)
		}
	}
	code, retry, e := postKeyed(t, ts, "/search", "alice", req)
	if code != http.StatusTooManyRequests || e.Code != "rate_limited" {
		t.Fatalf("drained bucket: status %d code %q, want 429 rate_limited", code, e.Code)
	}
	if retry == "" {
		t.Fatal("429 missing Retry-After")
	}
	// bob has his own bucket.
	if code, _, _ := postKeyed(t, ts, "/search", "bob", req); code != http.StatusOK {
		t.Fatalf("bob throttled by alice's bucket: %d", code)
	}
}

// TestCostCeiling verifies the 422 path on every evaluation endpoint:
// requests whose pattern set plans more matrix products than the
// ceiling are rejected before any snapshot work. The price is that of
// the halves a request reads, never of the roots it does not build:
// /search and /batch read by.by-.cites and cites-.by.by- for the long
// pattern (two products each, nothing shared) and the one half by.by-
// twice for the cheap one. /explain pushes its rows through the pattern
// and reads no half: a label chain costs 0. The nest over the long
// chain reads, over the integers, the row sums of the chain: its 5
// products and the one through J, 6. Its witness push builds the chain
// itself, 5 products at eval.AnnotationCostFactor = 2, so /explain
// costs 16 in all.
func TestCostCeiling(t *testing.T) {
	long := "by.by-.cites.by.by-.cites"
	cheap := "by.by-.by.by-"
	nest := "[" + long + "]"
	_, srv, ts := newAdmServer(t, WithAdmissionMaxCost(2))
	for _, tc := range []struct {
		pattern         string
		search, explain int
	}{{cheap, 1, 0}, {long, 4, 0}, {"by.by-", 0, 0}, {nest, 6, 16}} {
		if got := srv.searchCost(&SearchRequest{Pattern: tc.pattern, NoExpand: true}); got != tc.search {
			t.Errorf("searchCost(%s) = %d, want %d", tc.pattern, got, tc.search)
		}
		if got := explainCost(mustPat(t, tc.pattern)); got != tc.explain {
			t.Errorf("explainCost(%s) = %d, want %d", tc.pattern, got, tc.explain)
		}
	}

	code, _, e := postKeyed(t, ts, "/search", "", SearchRequest{Pattern: long, Query: "p1", NoExpand: true})
	if code != http.StatusUnprocessableEntity || e.Code != "cost_ceiling" {
		t.Fatalf("/search over ceiling: status %d code %q, want 422 cost_ceiling", code, e.Code)
	}
	code, _, e = postKeyed(t, ts, "/explain", "", ExplainRequest{Pattern: nest, From: "p1", To: "p2"})
	if code != http.StatusUnprocessableEntity || e.Code != "cost_ceiling" {
		t.Fatalf("/explain over ceiling: status %d code %q, want 422 cost_ceiling", code, e.Code)
	}
	code, _, e = postKeyed(t, ts, "/batch", "", BatchRequest{Queries: []SearchRequest{
		{Pattern: long, Query: "p1", NoExpand: true},
	}})
	if code != http.StatusUnprocessableEntity || e.Code != "cost_ceiling" {
		t.Fatalf("/batch over ceiling: status %d code %q, want 422 cost_ceiling", code, e.Code)
	}
	if got := srv.Admission().CostRejected(); got != 3 {
		t.Fatalf("cost_rejected = %d, want 3", got)
	}
	// At or under the ceiling everything still runs.
	if code, _, e := postKeyed(t, ts, "/search", "", SearchRequest{Pattern: cheap, Query: "p1"}); code != http.StatusOK {
		t.Fatalf("/search under ceiling: status %d %+v", code, e)
	}
	if code, _, e := postKeyed(t, ts, "/explain", "", ExplainRequest{Pattern: long, From: "p1", To: "p2"}); code != http.StatusOK {
		t.Fatalf("/explain under ceiling: status %d %+v", code, e)
	}
}

// TestHeadlinePricedByItsHalves: the benchmark's headline expands into
// 49 roots that would cost 195 products to materialize; a /search reads
// their seven shared halves, 14 products, and that is its price. Both
// count the product through J that reads [p-in.p-in-] as row sums.
func TestHeadlinePricedByItsHalves(t *testing.T) {
	ds, err := datasets.ByName("dblp-small")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store.New(ds.Graph), ds.Schema)
	req := &SearchRequest{Pattern: "p-in-.r-a.r-a-.p-in", Query: "proc3", Type: "proc"}
	qs, err := srv.queryPatterns(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(qs.ps); got != 49 {
		t.Fatalf("headline expands to %d patterns, want 49", got)
	}
	if got := eval.EstimateProducts(qs.ps); got != 195 {
		t.Errorf("the 49 roots price at %d products, want 195", got)
	}
	if got := srv.searchCost(req); got != 14 {
		t.Errorf("searchCost(headline) = %d, want 14", got)
	}
}

// TestStatsAndMetricsAdmission verifies the observability satellite:
// /stats grows an admission section and /metrics exposes the
// relsim_admission_* series (and still lints).
func TestStatsAndMetricsAdmission(t *testing.T) {
	_, srv, ts := newAdmServer(t,
		WithAdmissionLimits(8, 4),
		WithAdmissionRate(0.001, 1),
	)
	req := SearchRequest{Pattern: "by.by-", Query: "p1"}
	if code, _, _ := postKeyed(t, ts, "/search", "carol", req); code != http.StatusOK {
		t.Fatal("first request throttled")
	}
	if code, _, _ := postKeyed(t, ts, "/search", "carol", req); code != http.StatusTooManyRequests {
		t.Fatal("second request not throttled")
	}

	var stats StatsResponse
	if code := get(t, ts, "/stats", &stats); code != http.StatusOK {
		t.Fatalf("/stats status = %d", code)
	}
	a := stats.Admission
	if !a.Enabled || a.MaxInFlight != 8 || a.QueueDepth != 4 {
		t.Fatalf("admission stats config = %+v", a)
	}
	if a.Admitted < 1 || a.Throttled < 1 {
		t.Fatalf("admission stats counts = %+v, want admitted>=1 throttled>=1", a)
	}

	fams, body := scrape(t, srv)
	for _, fam := range []string{
		"relsim_admission_admitted_total",
		"relsim_admission_shed_total",
		"relsim_admission_throttled_total",
		"relsim_admission_cost_rejected_total",
		"relsim_admission_in_flight",
		"relsim_admission_queue_depth",
		"relsim_admission_tracked_clients",
		"relsim_admission_wait_seconds",
	} {
		if !fams[fam] {
			t.Fatalf("/metrics missing family %s", fam)
		}
	}
	if v := seriesValue(t, body, "relsim_admission_throttled_total"); v < 1 {
		t.Fatalf("relsim_admission_throttled_total = %v, want >= 1", v)
	}
	if v := seriesValue(t, body, "relsim_admission_tracked_clients"); v < 1 {
		t.Fatalf("relsim_admission_tracked_clients = %v, want >= 1", v)
	}
}

// TestAdmissionDisabledHonestZeros: without any admission config the
// series still exist (as zeros) and /stats reports enabled=false, so
// dashboards never hit absent-metric holes.
func TestAdmissionDisabledHonestZeros(t *testing.T) {
	_, srv, ts := newAdmServer(t)
	if srv.Admission() != nil {
		t.Fatal("zero config built a controller")
	}
	var stats StatsResponse
	if code := get(t, ts, "/stats", &stats); code != http.StatusOK {
		t.Fatalf("/stats status = %d", code)
	}
	if stats.Admission.Enabled {
		t.Fatalf("admission reported enabled on a bare server: %+v", stats.Admission)
	}
	fams, body := scrape(t, srv)
	if !fams["relsim_admission_admitted_total"] {
		t.Fatal("admission series absent on a bare server")
	}
	if v := seriesValue(t, body, "relsim_admission_admitted_total"); v != 0 {
		t.Fatalf("bare server admitted_total = %v, want 0", v)
	}
}

// rawPost is post without the testing.T — storm goroutines must not
// Fatal off the test goroutine.
func rawPost(ts *httptest.Server, path string, body any) (int, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

// TestOverloadStorm hammers a small admission envelope from every
// direction at once — searches far past capacity, concurrent mutations,
// and a mid-storm graceful store shutdown — while a sampler continuously
// asserts the tentpole invariant: pinned readers never exceed
// MaxInFlight, because shed requests are rejected before they pin. The
// run must see both admitted and shed traffic, survive the shutdown
// without a panic, and drain to zero. Run it under -race; that is the
// point.
func TestOverloadStorm(t *testing.T) {
	const maxInFlight = 4
	st, srv, ts := newAdmServer(t,
		WithAdmissionLimits(maxInFlight, 2),
		queueWait(50*time.Millisecond),
	)
	// Slow every search a little so the gate actually saturates.
	srv.testHookEval = func(req *SearchRequest) { time.Sleep(2 * time.Millisecond) }

	stop := make(chan struct{})
	var admitted, shed, mutated, mutRejected atomic.Int64
	var wg sync.WaitGroup

	// One uncontended mutation before the storm: at least one commit is
	// guaranteed however the storm's own mutations fare against the gate.
	if code, err := rawPost(ts, "/graph/edges", MutationRequest{
		Add:    []EdgeSpec{{From: "p4", Label: "warm", To: "a1"}},
		Remove: []EdgeSpec{{From: "p4", Label: "warm", To: "a1"}},
	}); err != nil || code != http.StatusOK {
		t.Fatalf("pre-storm mutation: code=%d err=%v", code, err)
	}
	mutated.Add(1)

	sampErr := make(chan string, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if ps := st.PinStats(); ps.Readers > maxInFlight {
				select {
				case sampErr <- fmt.Sprintf("pinned readers %d > max in-flight %d: a shed request pinned", ps.Readers, maxInFlight):
				default:
				}
				return
			}
		}
	}()
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, err := rawPost(ts, "/search", SearchRequest{Pattern: "by.by-", Query: "p1"})
				if err != nil {
					return
				}
				switch code {
				case http.StatusOK:
					admitted.Add(1)
				case http.StatusServiceUnavailable:
					shed.Add(1)
				default:
					t.Errorf("storm search: unexpected status %d", code)
					return
				}
			}
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		// Each worker churns its own label so the two never collide on
		// the same edge (a collision rolls back with a 400 and would
		// starve the "mutations committed" half of the assertion).
		label := fmt.Sprintf("storm%d", i)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, err := rawPost(ts, "/graph/edges", MutationRequest{
					Add:    []EdgeSpec{{From: "p4", Label: label, To: "a1"}},
					Remove: []EdgeSpec{{From: "p4", Label: label, To: "a1"}},
				})
				if err != nil {
					return
				}
				switch code {
				case http.StatusOK:
					mutated.Add(1)
				case http.StatusServiceUnavailable:
					// Shed by admission, or ErrClosed after the shutdown —
					// both are the clean "try elsewhere" answer.
					mutRejected.Add(1)
				case http.StatusBadRequest:
					// Two workers racing add/remove of the same edge.
				default:
					t.Errorf("storm mutation: unexpected status %d", code)
					return
				}
			}
		}()
	}

	time.Sleep(150 * time.Millisecond)
	// Graceful shutdown mid-storm: mutations flip to clean 503s, reads
	// keep flowing, nothing tears.
	if err := st.Close(); err != nil {
		t.Fatalf("close mid-storm: %v", err)
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	// With the clients gone the gate is free, so this mutation is
	// admitted — and must still be refused cleanly by the closed store.
	if code, err := rawPost(ts, "/graph/edges", MutationRequest{
		Add: []EdgeSpec{{From: "p4", Label: "late", To: "a1"}},
	}); err != nil || code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown mutation: code=%d err=%v, want 503", code, err)
	}
	mutRejected.Add(1)

	select {
	case msg := <-sampErr:
		t.Fatal(msg)
	default:
	}
	if admitted.Load() == 0 || shed.Load() == 0 {
		t.Fatalf("storm saw admitted=%d shed=%d, want both nonzero (no overload exercised)", admitted.Load(), shed.Load())
	}
	if mutated.Load() == 0 || mutRejected.Load() == 0 {
		t.Fatalf("storm saw mutated=%d rejected=%d, want both nonzero (shutdown not exercised)", mutated.Load(), mutRejected.Load())
	}
	// Clean drain: every client is gone, so nothing is admitted, queued,
	// or pinned.
	deadline := time.Now().Add(2 * time.Second)
	for {
		ps := st.PinStats()
		if srv.Admission().InFlight() == 0 && srv.Admission().Queued() == 0 && ps.Readers == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("storm did not drain: in-flight=%d queued=%d readers=%d",
				srv.Admission().InFlight(), srv.Admission().Queued(), ps.Readers)
		}
		time.Sleep(time.Millisecond)
	}
	as := srv.Admission().Stats()
	t.Logf("storm: admitted=%d shed=%d throttled=%d mutated=%d mutRejected=%d", as.Admitted, as.Shed, as.Throttled, mutated.Load(), mutRejected.Load())
}

// TestQueueAdmitsWhenCapacityFrees: a queued request (not shed — depth
// allows it) is admitted once a blocked request finishes.
func TestQueueAdmitsWhenCapacityFrees(t *testing.T) {
	_, srv, ts := newAdmServer(t, WithAdmissionLimits(1, 1), queueWait(5*time.Second))
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv.testHookEval = func(req *SearchRequest) {
		if req.Top == 77 {
			entered <- struct{}{}
			<-release
		}
	}
	blocked := make(chan int, 1)
	go func() {
		code, _, _ := postKeyed(t, ts, "/search", "", SearchRequest{Pattern: "by.by-", Query: "p1", Top: 77})
		blocked <- code
	}()
	<-entered
	queued := make(chan int, 1)
	go func() {
		code, _, _ := postKeyed(t, ts, "/search", "", SearchRequest{Pattern: "by.by-", Query: "p1"})
		queued <- code
	}()
	// Wait until the second request is actually parked in the queue,
	// then free capacity and expect it to run.
	deadline := time.After(5 * time.Second)
	for srv.Admission().Queued() == 0 {
		select {
		case <-deadline:
			t.Fatal("second request never queued")
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	if code := <-queued; code != http.StatusOK {
		t.Fatalf("queued request finished %d, want 200 after capacity freed", code)
	}
	if code := <-blocked; code != http.StatusOK {
		t.Fatalf("blocked request finished %d, want 200", code)
	}
	if w := fmt.Sprint(srv.Admission().Stats().Admitted); w == "0" {
		t.Fatal("no admissions recorded")
	}
}
