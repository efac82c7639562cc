package server

// The server side of the replication protocol: /log parameter
// validation (a since beyond the live version is a distinct 400, never
// an empty page masquerading as "caught up"), the /log deadline
// contract, the /checkpoint bootstrap transfer, and the follower-mode
// surface (403 mutations, healthz role + readiness, /stats
// replication).

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"relsim/internal/graph"
	"relsim/internal/replica"
	"relsim/internal/store"
)

// TestLogSinceBeyondLiveIs400 is the regression test for ?since= past
// the live version returning a normal empty page: indistinguishable
// from "caught up", it would have a follower of a diverged (wiped)
// leader polling forever. It must be a 400 with the distinct
// "since_beyond_live" code.
func TestLogSinceBeyondLiveIs400(t *testing.T) {
	srv, ts := newTestServer(t)
	var mut MutationResponse
	if code := post(t, ts, "/graph/edges", MutationRequest{Add: []EdgeSpec{{From: "p1", Label: "cites", To: "p2"}}}, &mut); code != http.StatusOK {
		t.Fatalf("mutation status %d", code)
	}

	var e errorResponse
	if code := get(t, ts, "/log?since=2", &e); code != http.StatusBadRequest {
		t.Fatalf("since=live+1 status = %d, want 400 (body %+v)", code, e)
	}
	if e.Code != "since_beyond_live" || !strings.Contains(e.Error, "beyond the live version") {
		t.Fatalf("since-beyond-live body = %+v, want code since_beyond_live", e)
	}
	// The boundary: since == live is the normal caught-up empty page.
	var feed store.Feed
	if code := get(t, ts, "/log?since=1", &feed); code != http.StatusOK || feed.Gap || len(feed.Updates) != 0 {
		t.Fatalf("since=live: %d %+v", code, feed)
	}
	if got := srv.Stats().Requests["errors"]; got != 1 {
		t.Errorf("errors counter = %d, want 1", got)
	}
}

// TestLogTimeout is the regression test for /log ignoring the server
// deadline: a WAL-backed page reads segments off disk and must answer
// 504 (counted as a timeout) when the deadline expires, with the
// per-request override rescuing it — the same contract as /search,
// /batch and /explain.
func TestLogTimeout(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.WithSeed(testGraph()), store.WithLogRetention(2))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := New(st, nil, WithTimeout(time.Nanosecond))
	ts := newHTTPServer(t, srv)
	for i := 0; i < 6; i++ {
		if err := st.AddEdge(0, "cites", 1); err != nil {
			t.Fatal(err)
		}
	}

	var e errorResponse
	if code := get(t, ts, "/log?since=0", &e); code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %+v)", code, e)
	}
	if got := srv.Stats().Requests["timeouts"]; got != 1 {
		t.Errorf("timeouts counter = %d, want 1", got)
	}
	// The per-request override rescues the page — served from the WAL
	// past the retention window, contiguously.
	var feed store.Feed
	if code := get(t, ts, "/log?since=0&timeout_ms=60000", &feed); code != http.StatusOK {
		t.Fatalf("override status = %d", code)
	}
	if feed.Gap || len(feed.Updates) != 6 || feed.Updates[0].Version != 1 {
		t.Fatalf("WAL-backed page = %+v", feed)
	}
	if code := get(t, ts, "/log?since=0&timeout_ms=abc", &e); code != http.StatusBadRequest {
		t.Errorf("timeout_ms=abc status = %d, want 400", code)
	}
}

// TestCheckpointEndpoint: the bootstrap transfer streams a parseable
// graph with its version in the header, honors the conditional request,
// and ?fresh=1 advances a durable store's checkpoint to the live
// version first.
func TestCheckpointEndpoint(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.WithSeed(testGraph()), store.WithCheckpointEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := New(st, nil)
	_ = srv
	ts := newHTTPServer(t, srv)
	for i := 0; i < 3; i++ {
		if err := st.AddEdge(0, "cites", 1); err != nil {
			t.Fatal(err)
		}
	}

	fetch := func(path string) (*http.Response, *graph.Graph) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		if resp.StatusCode != http.StatusOK {
			return resp, nil
		}
		g, err := graph.Read(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: body does not parse as a graph: %v", path, err)
		}
		return resp, g
	}

	// The newest on-disk checkpoint is the boot one: version 0, the seed
	// graph without the three added edges.
	resp, g := fetch("/checkpoint")
	if v := resp.Header.Get(replica.CheckpointVersionHeader); v != "0" {
		t.Fatalf("checkpoint version header = %q, want 0", v)
	}
	if g.Snapshot().NumEdges() != 7 {
		t.Fatalf("boot checkpoint edges = %d, want the 7 seed edges", g.Snapshot().NumEdges())
	}

	// fresh=1 checkpoints the live version before streaming.
	resp, g = fetch("/checkpoint?fresh=1")
	if v := resp.Header.Get(replica.CheckpointVersionHeader); v != "3" {
		t.Fatalf("fresh checkpoint version header = %q, want 3", v)
	}
	if g.Snapshot().NumEdges() != 10 {
		t.Fatalf("fresh checkpoint edges = %d, want 10", g.Snapshot().NumEdges())
	}

	// Conditional: a follower already at 3 gets 204 and no body.
	resp, _ = fetch("/checkpoint?if_newer_than=3")
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("conditional status = %d, want 204", resp.StatusCode)
	}
	if v := resp.Header.Get(replica.CheckpointVersionHeader); v != "3" {
		t.Fatalf("204 version header = %q, want 3", v)
	}
	resp, _ = fetch("/checkpoint?if_newer_than=2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale conditional status = %d, want 200", resp.StatusCode)
	}
	var e errorResponse
	if code := get(t, ts, "/checkpoint?if_newer_than=x", &e); code != http.StatusBadRequest {
		t.Errorf("bad conditional status = %d, want 400", code)
	}

	// An in-memory store streams its live snapshot.
	mem := New(store.New(testGraph()), nil)
	mts := newHTTPServer(t, mem)
	resp2, err := http.Get(mts.URL + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if v := resp2.Header.Get(replica.CheckpointVersionHeader); v != "0" {
		t.Fatalf("in-memory version header = %q", v)
	}
	if g, err := graph.Read(resp2.Body); err != nil || g.NumNodes() != 7 {
		t.Fatalf("in-memory checkpoint: %v", err)
	}
}

// fakeReplica satisfies Replication with a fixed status.
type fakeReplica struct{ st replica.Status }

func (f *fakeReplica) Status() replica.Status { return f.st }
func (f *fakeReplica) Leader() string         { return f.st.Leader }

// TestFollowerModeSurface: with WithFollower the server rejects
// mutations with 403 naming the leader, reports role/lag on /healthz
// (503 while syncing or lagging beyond the bound), and grows the /stats
// replication section — while the read API keeps serving.
func TestFollowerModeSurface(t *testing.T) {
	rep := &fakeReplica{st: replica.Status{Leader: "http://leader:8080"}}
	srv := New(store.New(testGraph()), nil, WithFollower(rep, 10, time.Minute))
	ts := newHTTPServer(t, srv)

	// Mutations are refused with the leader's address.
	var e errorResponse
	if code := post(t, ts, "/graph/edges", MutationRequest{Add: []EdgeSpec{{From: "p1", Label: "cites", To: "p2"}}}, &e); code != http.StatusForbidden {
		t.Fatalf("mutation status = %d, want 403", code)
	}
	if e.Code != "follower_read_only" || e.Leader != "http://leader:8080" {
		t.Fatalf("403 body = %+v", e)
	}
	if srv.Store().Version() != 0 {
		t.Fatal("rejected mutation reached the store")
	}

	// Before the first sync the follower is not ready.
	var h HealthzResponse
	if code := get(t, ts, "/healthz", &h); code != http.StatusServiceUnavailable || h.Status != "syncing" || h.Role != "follower" {
		t.Fatalf("pre-sync healthz = %d %+v", code, h)
	}

	// Synced and within the lag bound: ready.
	rep.st.SyncedOnce, rep.st.CaughtUp = true, true
	if code := get(t, ts, "/healthz", &h); code != http.StatusOK || h.Status != "ok" || h.Replication == nil {
		t.Fatalf("synced healthz = %d %+v", code, h)
	}

	// Beyond the version bound: 503 "lagging", and the lag is visible.
	rep.st.LagVersions, rep.st.CaughtUp = 11, false
	if code := get(t, ts, "/healthz", &h); code != http.StatusServiceUnavailable || h.Status != "lagging" || h.Replication.LagVersions != 11 {
		t.Fatalf("lagging healthz = %d %+v", code, h)
	}

	// Beyond the time bound with the version lag frozen — the
	// unreachable-leader case: lag-in-versions stays at the last
	// successful poll, but lag-in-seconds keeps growing and must trip
	// the gate on its own.
	rep.st.LagVersions, rep.st.LagSeconds = 0, 61
	if code := get(t, ts, "/healthz", &h); code != http.StatusServiceUnavailable || h.Status != "lagging" {
		t.Fatalf("stale-leader healthz = %d %+v", code, h)
	}
	rep.st.LagSeconds, rep.st.CaughtUp = 0, true

	// /stats reports replication; reads still serve.
	var stats StatsResponse
	if code := get(t, ts, "/stats", &stats); code != http.StatusOK || stats.Replication == nil || stats.Replication.Leader != "http://leader:8080" {
		t.Fatalf("stats replication = %+v", stats.Replication)
	}
	var sr SearchResponse
	if code := post(t, ts, "/search", SearchRequest{Pattern: "by.by-", Query: "p1", Type: "paper"}, &sr); code != http.StatusOK || len(sr.Results) == 0 {
		t.Fatalf("follower read: %d %+v", code, sr)
	}

	// A leader (no WithFollower) reports its role too.
	_, lts := newTestServer(t)
	var lh HealthzResponse
	if code := get(t, lts, "/healthz", &lh); code != http.StatusOK || lh.Role != "leader" || lh.Replication != nil {
		t.Fatalf("leader healthz = %d %+v", code, lh)
	}
}
