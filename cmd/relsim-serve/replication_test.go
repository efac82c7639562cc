package main

// End-to-end replication test: build the real binary, run a durable
// leader under a mutation storm and a durable follower tailing it over
// real HTTP, and assert the acceptance contract — the follower
// converges to the leader's version and serves byte-identical /search
// responses at it, refuses mutations with 403 naming the leader,
// recovers from an induced log gap by re-bootstrapping (SIGSTOP the
// follower, advance + checkpoint-trim the leader past its resume
// point, SIGCONT), and survives its own SIGKILL + restart mid-tail.
// This is the CI gate for the replication subsystem; the protocol
// fine print lives in internal/replica and internal/store tests.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"relsim/internal/telemetry"
)

// leaderReplFlags shape the leader so replication edge paths trigger at
// test scale: a tiny in-memory feed (WAL-backed /log kicks in almost
// immediately), small WAL segments and a short checkpoint cadence
// (trimming hard-gaps a parked follower quickly).
var leaderReplFlags = []string{
	"-dataset", "dblp-small", "-fsync", "always",
	"-log-retention", "4", "-wal-segment-bytes", "512", "-checkpoint-every", "8",
}

// version polls one node's /healthz version (0 on error: the poll
// loops).
func version(addr string) uint64 {
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var h struct {
		Version uint64 `json:"version"`
	}
	if json.NewDecoder(resp.Body).Decode(&h) != nil {
		return 0
	}
	return h.Version
}

// waitConverged waits until the follower's version reaches the
// leader's, returning the common version.
func waitConverged(t *testing.T, leaderAddr, followerAddr string) uint64 {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		lv, fv := version(leaderAddr), version(followerAddr)
		if lv != 0 && lv == fv {
			return lv
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged: leader %d, follower %d", lv, fv)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// scrapeMetrics fetches a node's /metrics, lint-checks the Prometheus
// exposition, and requires every named family to carry samples.
func scrapeMetrics(t *testing.T, node, base string, families ...string) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("%s /metrics: %v", node, err)
	}
	body, readErr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if readErr != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s /metrics: status %d, err %v", node, resp.StatusCode, readErr)
	}
	fams, err := telemetry.Lint(body)
	if err != nil {
		t.Fatalf("%s /metrics exposition invalid: %v", node, err)
	}
	for _, name := range families {
		if !fams[name] {
			t.Errorf("%s /metrics missing family %s", node, name)
		}
	}
}

// storm commits n batches (one new node + one edge each: 2 versions)
// against the leader.
func storm(t *testing.T, base string, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		httpJSON(t, "POST", base+"/graph/edges", map[string]any{
			"add_nodes": []map[string]string{{"name": fmt.Sprintf("r-paper-%d", i), "type": "paper"}},
			"add":       []map[string]string{{"from": fmt.Sprintf("r-paper-%d", i), "label": "cites", "to": "r-paper-0"}},
		})
	}
}

func TestReplicationEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives two real processes")
	}
	bin := filepath.Join(t.TempDir(), "relsim-serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build: %v", err)
	}

	leaderDir := filepath.Join(t.TempDir(), "leader")
	leaderAddr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	leaderBase := "http://" + leaderAddr
	leader := startServe(t, bin, leaderAddr, append([]string{"-data-dir", leaderDir}, leaderReplFlags...)...)
	defer func() {
		leader.Process.Signal(syscall.SIGTERM)
		leader.Wait()
	}()
	storm(t, leaderBase, 0, 10) // 20 versions before the follower exists

	followerDir := filepath.Join(t.TempDir(), "follower")
	followerAddr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	followerBase := "http://" + followerAddr
	followerArgs := []string{"-follow", leaderBase, "-data-dir", followerDir, "-schema", "dblp", "-poll-interval", "25ms"}
	follower := startServe(t, bin, followerAddr, followerArgs...)

	// Convergence: same version, byte-identical /search at it. The
	// leader is quiet here, so both sit at the same version; /search
	// responses embed that version, making the comparison exact.
	v1 := waitConverged(t, leaderAddr, followerAddr)
	if v1 != 20 {
		t.Fatalf("converged at version %d, want 20", v1)
	}
	search := map[string]any{"pattern": "cites.cites-", "query": "r-paper-1", "type": "paper", "top": 5}
	if l, f := httpJSON(t, "POST", leaderBase+"/search", search), httpJSON(t, "POST", followerBase+"/search", search); !bytes.Equal(l, f) {
		t.Fatalf("/search differs at version %d:\nleader   %s\nfollower %s", v1, l, f)
	}

	// Mutations bounce off the follower with the leader's address.
	buf, _ := json.Marshal(map[string]any{"add": []map[string]string{{"from": "r-paper-1", "label": "cites", "to": "r-paper-2"}}})
	resp, err := http.Post(followerBase+"/graph/edges", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	var reject struct {
		Code   string `json:"code"`
		Leader string `json:"leader"`
	}
	err = json.NewDecoder(resp.Body).Decode(&reject)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusForbidden || reject.Code != "follower_read_only" || reject.Leader != leaderBase {
		t.Fatalf("follower mutation: status %d, body %+v, err %v", resp.StatusCode, reject, err)
	}

	// Mid-storm telemetry: with a mutation storm in flight against the
	// leader and the follower tailing it, both nodes must serve valid
	// Prometheus expositions carrying their layer's series — HTTP and
	// store+WAL families on the durable leader, replica families on the
	// follower.
	scrapeStorm := make(chan struct{})
	go func() {
		defer close(scrapeStorm)
		storm(t, leaderBase, 500, 6)
	}()
	scrapeMetrics(t, "leader", leaderBase,
		"relsim_http_requests_total", "relsim_http_request_seconds",
		"relsim_http_in_flight_requests",
		"relsim_store_commits_total", "relsim_store_commit_seconds",
		"relsim_store_version",
		"relsim_wal_appended_bytes_total", "relsim_wal_fsync_seconds",
		"relsim_wal_records_total", "relsim_wal_segments",
		"relsim_eval_products_total", "relsim_uptime_seconds",
	)
	scrapeMetrics(t, "follower", followerBase,
		"relsim_http_requests_total", "relsim_http_request_seconds",
		"relsim_replica_lag_versions", "relsim_replica_synced",
		"relsim_replica_bootstraps_total", "relsim_replica_updates_applied_total",
		"relsim_replica_leader_version",
		"relsim_wal_appended_bytes_total", // follower is durable: applied updates hit its own WAL
	)
	<-scrapeStorm
	waitConverged(t, leaderAddr, followerAddr)

	// Induced log gap: park the follower (SIGSTOP — the process is
	// alive, just not polling), push the leader far past the in-memory
	// retention and wait for checkpoint trimming to hard-gap the
	// follower's resume point, then SIGCONT. The tailer must observe
	// gap=true and re-bootstrap automatically.
	if err := follower.Process.Signal(syscall.SIGSTOP); err != nil {
		t.Fatal(err)
	}
	storm(t, leaderBase, 10, 12) // 24 more versions; checkpoints at 8-version cadence
	gapDeadline := time.Now().Add(60 * time.Second)
	for {
		var feed struct {
			Gap bool `json:"gap"`
		}
		if err := json.Unmarshal(httpJSON(t, "GET", leaderBase+fmt.Sprintf("/log?since=%d", v1), nil), &feed); err != nil {
			t.Fatal(err)
		}
		if feed.Gap {
			break
		}
		if time.Now().After(gapDeadline) {
			t.Fatalf("leader never hard-gapped version %d", v1)
		}
		// Another commit re-triggers the background checkpoint cadence.
		storm(t, leaderBase, 1000+int(time.Now().UnixNano()%100000), 1)
		time.Sleep(50 * time.Millisecond)
	}
	if err := follower.Process.Signal(syscall.SIGCONT); err != nil {
		t.Fatal(err)
	}
	v2 := waitConverged(t, leaderAddr, followerAddr)
	var stats struct {
		Replication struct {
			GapResyncs uint64 `json:"gap_resyncs"`
			Bootstraps uint64 `json:"bootstraps"`
			Updates    uint64 `json:"updates_applied"`
		} `json:"replication"`
	}
	if err := json.Unmarshal(httpJSON(t, "GET", followerBase+"/stats", nil), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Replication.GapResyncs < 1 || stats.Replication.Bootstraps < 2 {
		t.Fatalf("gap not handled by re-bootstrap: %+v", stats.Replication)
	}
	if l, f := httpJSON(t, "POST", leaderBase+"/search", search), httpJSON(t, "POST", followerBase+"/search", search); !bytes.Equal(l, f) {
		t.Fatalf("/search differs at version %d after gap recovery:\nleader   %s\nfollower %s", v2, l, f)
	}

	// SIGKILL mid-tail + restart on the same data directory: the
	// follower recovers its applied prefix from its own WAL and resumes
	// tailing (or re-bootstraps if it fell past the leader's history).
	killStorm := make(chan struct{})
	go func() {
		defer close(killStorm)
		storm(t, leaderBase, 2000, 10)
	}()
	time.Sleep(30 * time.Millisecond) // land the kill mid-storm
	if err := follower.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	follower.Wait()
	<-killStorm

	followerAddr2 := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	followerBase2 := "http://" + followerAddr2
	follower2 := startServe(t, bin, followerAddr2, followerArgs...)
	defer func() {
		follower2.Process.Signal(syscall.SIGTERM)
		follower2.Wait()
	}()
	v3 := waitConverged(t, leaderAddr, followerAddr2)
	if l, f := httpJSON(t, "POST", leaderBase+"/search", search), httpJSON(t, "POST", followerBase2+"/search", search); !bytes.Equal(l, f) {
		t.Fatalf("/search differs at version %d after SIGKILL restart:\nleader   %s\nfollower %s", v3, l, f)
	}

	// Steady state: one more committed batch must reach the follower.
	preV := version(leaderAddr)
	lagStart := time.Now()
	storm(t, leaderBase, 3000, 1)
	for version(followerAddr2) < preV+2 {
		if time.Since(lagStart) > 30*time.Second {
			t.Fatal("steady-state propagation never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
