package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"testing"
	"time"

	"relsim/internal/store"
)

func TestLogFeedEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.st.SetLogRetention(4)

	add := func(from, to string) {
		var mut MutationResponse
		if code := post(t, ts, "/graph/edges", MutationRequest{Add: []EdgeSpec{{From: from, Label: "cites", To: to}}}, &mut); code != http.StatusOK {
			t.Fatalf("mutation status %d", code)
		}
	}
	add("p1", "p2")
	add("p2", "p3")

	var feed store.Feed
	if code := get(t, ts, "/log?since=0", &feed); code != http.StatusOK {
		t.Fatalf("/log status %d", code)
	}
	if feed.Gap || len(feed.Updates) != 2 || feed.Version != 2 {
		t.Fatalf("feed = %+v", feed)
	}
	if feed.Updates[0].Version != 1 || feed.Updates[0].Op != store.OpAddEdge || feed.Updates[0].Edge.Label != "cites" {
		t.Fatalf("feed record = %+v", feed.Updates[0])
	}

	// A follower resuming mid-stream gets only the tail.
	if get(t, ts, "/log?since=1", &feed); len(feed.Updates) != 1 || feed.Updates[0].Version != 2 {
		t.Fatalf("resumed feed = %+v", feed)
	}

	// Paging: max=1 truncates and says so.
	if get(t, ts, "/log?since=0&max=1", &feed); !feed.More || len(feed.Updates) != 1 {
		t.Fatalf("paged feed = %+v", feed)
	}

	// Overflow the bounded log: the gap must be signaled, not papered
	// over.
	for i := 0; i < 8; i++ {
		add("p3", "p4")
	}
	if get(t, ts, "/log?since=0", &feed); !feed.Gap || feed.DroppedThrough == 0 {
		t.Fatalf("gap not signaled after overflow: %+v", feed)
	}
	// A follower past the drop point is still contiguous.
	if get(t, ts, "/log?since="+itoa(feed.DroppedThrough), &feed); feed.Gap {
		t.Fatalf("spurious gap: %+v", feed)
	}

	// Bad parameters are rejected up front.
	var e errorResponse
	for _, q := range []string{"?since=abc", "?since=-1", "?max=0", "?max=x"} {
		if code := get(t, ts, "/log"+q, &e); code != http.StatusBadRequest {
			t.Errorf("/log%s status = %d, want 400", q, code)
		}
	}
}

func itoa(v uint64) string { return strconv.FormatUint(v, 10) }

// TestMutateDurabilityFaultIs500: a WAL append failure is the server's
// storage fault, not the client's — the mutation must answer 500, not
// 400, with the batch rolled back. The fault is injected by removing
// the data directory under a tiny-segment store: the next append must
// rotate into a directory that no longer exists (works even as root,
// unlike permission tricks).
func TestMutateDurabilityFaultIs500(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.WithSeed(testGraph()), store.WithSegmentBytes(1))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := New(st, nil)
	ts := newHTTPServer(t, srv)

	var mut MutationResponse
	if code := post(t, ts, "/graph/edges", MutationRequest{Add: []EdgeSpec{{From: "p1", Label: "cites", To: "p2"}}}, &mut); code != http.StatusOK {
		t.Fatalf("seed mutation status %d", code)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	code := post(t, ts, "/graph/edges", MutationRequest{Add: []EdgeSpec{{From: "p1", Label: "cites", To: "p2"}}}, &mut)
	if code != http.StatusInternalServerError || mut.Error == "" {
		t.Fatalf("status = %d, error = %q; want 500 with message", code, mut.Error)
	}
	if mut.Version != 1 || st.Version() != 1 {
		t.Fatalf("failed append advanced the version: %+v / %d", mut, st.Version())
	}
	// A plain validation error is still the client's 400.
	code = post(t, ts, "/graph/edges", MutationRequest{Add: []EdgeSpec{{From: "ghost", Label: "cites", To: "p2"}}}, &mut)
	if code != http.StatusBadRequest {
		t.Fatalf("validation error status = %d, want 400", code)
	}
}

// TestMutateAfterCloseIs503 is the shutdown-race regression test: a
// mutation arriving after graceful shutdown closed the store must get
// the clean "try another node" 503 — not a 500 (it is not a storage
// fault) and certainly not a torn WAL append or a panic.
func TestMutateAfterCloseIs503(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.WithSeed(testGraph()))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, nil)
	ts := newHTTPServer(t, srv)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	var mut MutationResponse
	code := post(t, ts, "/graph/edges", MutationRequest{Add: []EdgeSpec{{From: "p1", Label: "cites", To: "p2"}}}, &mut)
	if code != http.StatusServiceUnavailable || mut.Error == "" {
		t.Fatalf("post-close mutation: status = %d, error = %q; want 503 with message", code, mut.Error)
	}
	if st.Version() != 0 {
		t.Fatalf("post-close mutation advanced the version to %d", st.Version())
	}
	// Reads keep serving the last published version through the drain.
	var health HealthzResponse
	if code := get(t, ts, "/healthz", &health); code != http.StatusOK || health.Version != 0 {
		t.Fatalf("post-close read: %d %+v", code, health)
	}
}

// TestExplainTimeout is the regression test for /explain ignoring
// -timeout/?timeout_ms= entirely: it must honor the same deadline
// contract as /search — 504 + timeout counter on expiry, per-request
// override rescues it.
func TestExplainTimeout(t *testing.T) {
	srv := New(store.New(testGraph()), nil, WithTimeout(time.Nanosecond))
	ts := newHTTPServer(t, srv)

	req := ExplainRequest{Pattern: "by.by-", From: "p1", To: "p2"}
	var e errorResponse
	if code := post(t, ts, "/explain", req, &e); code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %+v)", code, e)
	}
	if got := srv.Stats().Requests["timeouts"]; got != 1 {
		t.Errorf("timeouts counter = %d, want 1", got)
	}

	// The per-request override rescues the explanation.
	var ok ExplainResponse
	if code := post(t, ts, "/explain?timeout_ms=60000", req, &ok); code != http.StatusOK {
		t.Fatalf("override status = %d", code)
	}
	if ok.Count == 0 || ok.Witness == nil {
		t.Errorf("override response = %+v", ok)
	}

	// Bad overrides are rejected like /search rejects them.
	if code := post(t, ts, "/explain?timeout_ms=abc", req, &e); code != http.StatusBadRequest {
		t.Errorf("timeout_ms=abc status = %d, want 400", code)
	}
}

// TestExpandMemoBounded is the regression test for the Algorithm-1
// expansion memo growing without bound under distinct-pattern traffic.
func TestExpandMemoBounded(t *testing.T) {
	srv := New(store.New(testGraph()), nil)
	srv.expandLimit = 2
	ts := newHTTPServer(t, srv)

	for _, p := range []string{"by", "cites", "by.by-", "cites-"} {
		var resp SearchResponse
		if code := post(t, ts, "/search", SearchRequest{Pattern: p, Query: "p1"}, &resp); code != http.StatusOK {
			t.Fatalf("search %q status %d", p, code)
		}
	}
	memo := srv.Stats().ExpandMemo
	if memo.Size > 2 {
		t.Fatalf("expand memo size = %d, exceeds limit 2", memo.Size)
	}
	if memo.Limit != 2 || memo.Evictions == 0 || memo.Misses < 4 {
		t.Fatalf("expand memo stats = %+v", memo)
	}

	// Repeats of a cached pattern hit.
	post(t, ts, "/search", SearchRequest{Pattern: "cites-", Query: "p1"}, &SearchResponse{})
	if after := srv.Stats().ExpandMemo; after.Hits == 0 {
		t.Fatalf("no memo hit on repeat: %+v", after)
	}
}

// rawSearch posts a /search request and returns the exact response
// bytes (the byte-identical round-trip check must not decode).
func rawSearch(t *testing.T, ts *httptest.Server, req SearchRequest) []byte {
	t.Helper()
	buf, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/search", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("raw search status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestSearchSurvivesCrashByteIdentical: replayed state answers /search
// byte-identically to the pre-crash store — same results, same scores,
// same version (the counter resumes exactly, keeping (version, pattern)
// cache keys globally meaningful across restarts).
func TestSearchSurvivesCrashByteIdentical(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.WithSeed(testGraph()))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, nil)
	ts := newHTTPServer(t, srv)

	// Mutate: give p3 a shared author with p1 so the ranking depends on
	// the replayed write, then add a node so node metadata replays too.
	post(t, ts, "/graph/edges", MutationRequest{
		AddNodes: []NodeSpec{{Name: "p9", Type: "paper"}},
		Add: []EdgeSpec{
			{From: "p3", Label: "by", To: "a1"},
			{From: "p9", Label: "by", To: "a2"},
		},
	}, &MutationResponse{})

	req := SearchRequest{Pattern: "by.by-", Query: "p1", Type: "paper", Top: 10}
	before := rawSearch(t, ts, req)

	// Crash: abandon the store without Close. fsync=always means every
	// committed batch is already on disk.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer st2.Close()
	if st2.Version() != st.Version() {
		t.Fatalf("recovered version %d != pre-crash %d", st2.Version(), st.Version())
	}
	srv2 := New(st2, nil)
	ts2 := newHTTPServer(t, srv2)
	after := rawSearch(t, ts2, req)
	if !bytes.Equal(before, after) {
		t.Fatalf("post-crash /search differs:\npre  %s\npost %s", before, after)
	}

	// /stats reports the durability layer.
	var stats StatsResponse
	get(t, ts2, "/stats", &stats)
	if !stats.Durability.Enabled || stats.Durability.Recovery.RecoveredVersion != st.Version() {
		t.Fatalf("durability stats = %+v", stats.Durability)
	}
}
