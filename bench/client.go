package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"relsim/internal/server"
)

// conn is one keep-alive HTTP connection: its transport holds at most
// one socket to the server, so "two connections" means two sockets.
type conn struct {
	client *http.Client
	base   string
}

func newConn(base string) *conn {
	return &conn{
		base: base,
		client: &http.Client{
			Timeout: 60 * time.Second, // the server's own deadline is 30 s
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
	}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// result is one answered (or failed) request as the client saw it.
type result struct {
	status  int
	body    []byte
	timing  string // Server-Timing header
	start   time.Time
	latency time.Duration // send to last body byte
	err     error
}

func (c *conn) do(method, path string, body []byte) result {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return result{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	res := result{start: time.Now()}
	resp, err := c.client.Do(req)
	if err != nil {
		res.err = err
		return res
	}
	res.body, res.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	res.latency = time.Since(res.start)
	res.status = resp.StatusCode
	res.timing = resp.Header.Get("Server-Timing")
	return res
}

// ok reports whether the request was answered 200 and, for a /batch,
// carried no per-query error (those arrive inside a 200).
func (r result) ok(kind opKind) bool {
	if r.err != nil || r.status != http.StatusOK {
		return false
	}
	return kind != opBatch || !bytes.Contains(r.body, []byte(`"error":`))
}

// parseServerTiming reads a Server-Timing header value such as
// "expand;dur=0.24, score;dur=290.49, total;dur=290.92" into
// milliseconds per phase. A phase that appears twice is summed.
func parseServerTiming(h string) (map[string]float64, error) {
	out := map[string]float64{}
	if strings.TrimSpace(h) == "" {
		return out, nil
	}
	for _, part := range strings.Split(h, ",") {
		name, rest, found := strings.Cut(strings.TrimSpace(part), ";")
		if !found {
			return nil, fmt.Errorf("server-timing entry %q has no parameter", part)
		}
		var dur *float64
		for _, param := range strings.Split(rest, ";") {
			if v, ok := strings.CutPrefix(strings.TrimSpace(param), "dur="); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return nil, fmt.Errorf("server-timing entry %q: %w", part, err)
				}
				dur = &f
			}
		}
		if dur == nil {
			return nil, fmt.Errorf("server-timing entry %q has no dur", part)
		}
		out[name] += *dur
	}
	return out, nil
}

// scrape is one reading of the server's own counters: the /stats body
// and the plain (unlabelled) samples of /metrics.
type scrape struct {
	stats   server.StatsResponse
	metrics map[string]float64
}

// scrape reads /stats, once no checkpoint is due, and /metrics.
func (c *conn) scrape() (scrape, error) {
	st, err := c.settledStats()
	if err != nil {
		return scrape{}, err
	}
	res := c.do("GET", "/metrics", nil)
	if res.err != nil || res.status != 200 {
		return scrape{}, fmt.Errorf("GET /metrics: status %d: %v", res.status, res.err)
	}
	return scrape{stats: st, metrics: parseMetrics(res.body)}, nil
}

// counters flattens the reading into one name → value map: every
// /metrics sample under its own name, the /stats fields the layer table
// needs under short ones.
func (s scrape) counters() map[string]float64 {
	st := s.stats
	out := map[string]float64{
		"cache.hits":        float64(st.Cache.Hits),
		"cache.misses":      float64(st.Cache.Misses),
		"cache.evictions":   float64(st.Cache.Evictions),
		"cache.size":        float64(st.Cache.Size),
		"workload.products": float64(st.Workload.ProductsMaterialized),
		"workload.saved":    float64(st.Workload.ProductsSaved),
		"workload.batches":  float64(st.Workload.PlannedBatches),
		"memo.hits":         float64(st.ExpandMemo.Hits),
		"memo.misses":       float64(st.ExpandMemo.Misses),
		"delta.seconds":     st.Delta.MaintenanceSeconds,
		"delta.maintained":  float64(st.Delta.Maintained),
		"delta.fallbacks":   float64(st.Delta.Fallbacks),
		"delta.products":    float64(st.Delta.Products),
		"checkpoints":       float64(st.Durability.Checkpoints),
		"wal.fsyncs":        float64(st.Durability.WAL.Fsyncs),
	}
	for name, v := range s.metrics {
		out[name] = v
	}
	return out
}

// parseMetrics keeps the label-free samples of a Prometheus text
// exposition; the store and WAL series this benchmark reads have none.
func parseMetrics(body []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = f
		}
	}
	return out
}

// settledStats polls /stats until no checkpoint is due or in flight, so
// the on-disk state — and with it recovery time and the checkpoint count
// — does not depend on how a background checkpoint raced the last
// commit.
func (c *conn) settledStats() (server.StatsResponse, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st server.StatsResponse
		res := c.do("GET", "/stats", nil)
		if res.err != nil || res.status != 200 {
			return st, fmt.Errorf("GET /stats: status %d: %v", res.status, res.err)
		}
		if err := json.Unmarshal(res.body, &st); err != nil {
			return st, fmt.Errorf("GET /stats: %w", err)
		}
		if !st.Durability.Enabled || st.Store.Version-st.Durability.LastCheckpointVersion < checkpointGap {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("checkpoint still due at version %d (last %d)", st.Store.Version, st.Durability.LastCheckpointVersion)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
