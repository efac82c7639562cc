// Package server exposes the RelSim query engine as a concurrent
// HTTP/JSON service over an MVCC store.Store:
//
//	POST /search       one similarity query (structurally robust pipeline)
//	POST /batch        many queries over one pinned snapshot and a worker pool
//	POST /explain      why are u and v similar under p? count, score and one witness derivation
//	POST /graph/edges  mutations: add nodes, add edges, remove edges
//	GET  /healthz      liveness + role (leader/follower) + follower readiness
//	GET  /stats        store version, pinned-version spread, cache and request counters
//	GET  /log          replication catch-up feed (in-memory log, WAL-backed past it)
//	GET  /checkpoint   follower bootstrap transfer (newest checkpoint + its version)
//
// With WithFollower the server is a read replica: the read API serves
// from the locally replicated store, mutations answer 403 naming the
// leader, and /healthz + /stats expose replication lag.
//
// Every request pins exactly one immutable snapshot for its lifetime:
// queries evaluate against that frozen version with zero lock cost and
// are never blocked by writers; /batch shares a single pinned snapshot
// and a single snapshot-bound evaluator across its whole worker pool,
// so every query of a batch reads one version even while writes land
// concurrently. Mutations commit copy-on-write versions through the
// store, and the store's pre-publication hook moves the shared
// commuting-matrix cache across each commit before the new version is
// visible (ageCache): each entry is valid over an interval of versions,
// an entry the commit does not touch stays valid at the new version
// without moving, a touched one has its interval closed and, when the
// delta allows, a patched successor opened at the new version. A
// closed interval still serves the readers pinned inside it, so a
// write can never corrupt a pinned reader's results.
//
// /search and /batch run under a context deadline (WithTimeout default,
// ?timeout_ms= per-request override); cancellation is checked between
// matrix products, so a timed-out query stops burning CPU. A timed-out
// /search answers 504; a timed-out /batch still answers 200, delivering
// the queries that beat the deadline and per-query errors for the rest.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"relsim/internal/admission"
	"relsim/internal/eval"
	"relsim/internal/graph"
	"relsim/internal/replica"
	"relsim/internal/schema"
	"relsim/internal/sparse"
	"relsim/internal/store"
	"relsim/internal/telemetry"
)

// DefaultWorkers is the /batch worker-pool size when the request does
// not choose one.
const DefaultWorkers = 4

// DefaultExpandCacheLimit bounds the Algorithm-1 expansion memo.
// Expansions are keyed by request pattern string, so adversarial
// traffic with ever-distinct patterns would otherwise grow the memo
// without bound.
const DefaultExpandCacheLimit = 1024

// DefaultLogFeedPage bounds one GET /log page when the request does not
// choose ?max=.
const DefaultLogFeedPage = 512

// DefaultMaxBodyBytes bounds request bodies (WithMaxBodyBytes): an
// unbounded /batch JSON body would be read fully into memory before any
// validation. 4 MiB comfortably fits thousands of queries.
const DefaultMaxBodyBytes = 4 << 20

// DefaultMaxTimeout caps the per-request ?timeout_ms= override
// (WithMaxTimeout): a client may shorten the server deadline but not
// extend it arbitrarily — and a huge override used to overflow the
// millisecond multiply into a negative Duration, silently disabling the
// deadline altogether.
const DefaultMaxTimeout = 5 * time.Minute

// maxLogFeedPage is the hard ceiling on ?max=.
const maxLogFeedPage = 10000

// Server is the HTTP handler. Construct with New; the zero value is not
// usable.
type Server struct {
	st      *store.Store
	cache   *eval.Cache
	schema  *schema.Schema
	workers int
	timeout time.Duration // default per-request deadline; 0 = none

	// Traffic hardening (see admission.go): admCfg collects the
	// WithAdmission* options and New compiles it into adm (nil when
	// every mechanism is disabled — the zero-overhead path). maxBody
	// bounds request bodies (413 past it), maxTimeout caps the
	// ?timeout_ms= override, admWait is the queued-wait histogram
	// handle.
	admCfg     admission.Config
	adm        *admission.Controller
	maxBody    int64
	maxTimeout time.Duration
	admWait    *telemetry.Metric
	mux        *http.ServeMux
	start      time.Time

	// replica, when set, puts the server in follower mode: the read API
	// serves as usual from the local store, mutations answer 403
	// pointing at the leader, and /healthz + /stats report replication
	// lag. maxLag is the /healthz readiness bound in versions, maxLagAge
	// the bound in wall time (each 0 = unbounded).
	replica   Replication
	maxLag    uint64
	maxLagAge time.Duration

	// expand memoizes query sets — a pattern or its Algorithm-1
	// expansion, canonicalized and cut for scoring — by the pattern
	// string as the client sent it. The schema and generation options are fixed for the
	// server's lifetime, so entries never go stale — unlike commuting
	// matrices, expansions do not depend on the graph's edges. The memo is
	// LRU-bounded at expandLimit (DefaultExpandCacheLimit; tests lower
	// it): pattern strings come straight off the wire, so an unbounded
	// memo is a memory leak under adversarial traffic.
	expandMu        sync.Mutex
	expand          map[expandKey]*querySet
	expandLimit     int
	expandTick      uint64
	expandHits      uint64
	expandMisses    uint64
	expandEvictions uint64

	// Observability. reg is the server's telemetry registry; obs holds
	// the HTTP-layer metric handles the middleware feeds.
	// Request/error/timeout counting is status-based in the middleware —
	// see observed in obs.go — so no handler error path can skip it.
	reg           *telemetry.Registry
	obs           *serverObs
	slow          *slowLog
	slowThreshold time.Duration
	pprofEnabled  bool
	accessW       io.Writer
	accessJSON    bool
	accessMu      sync.Mutex

	// n holds the server's workload, semiring and delta counters as
	// telemetry handles: /metrics exposes them and /stats reads them back
	// with Value(), so the two surfaces share one store.
	n serverCounters

	// testHookEval, when set (tests only), runs at the start of every
	// query scoring pass with the request about to be scored — the
	// lever tests use to inject controlled slowness or panics into the
	// serving path.
	testHookEval func(req *SearchRequest)
}

// Option configures a Server.
type Option func(*Server)

// WithWorkers sets the default /batch worker-pool size.
func WithWorkers(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.workers = n
		}
	}
}

// WithCacheLimit bounds the shared commuting-matrix cache to n matrices
// (LRU eviction across all versions). n <= 0 leaves it unbounded.
func WithCacheLimit(n int) Option {
	return func(s *Server) { s.cache.SetLimit(n) }
}

// WithTimeout sets the default deadline for /search and /batch
// evaluation. Requests may override it with ?timeout_ms=. d <= 0
// disables the default (the zero value).
func WithTimeout(d time.Duration) Option {
	return func(s *Server) { s.timeout = d }
}

// Replication is the view the server needs of a replication tailer —
// satisfied by *replica.Follower. The indirection keeps the server
// testable with a fake and the tailer free of HTTP-handler concerns.
type Replication interface {
	// Status reports current replication lag and sync counters.
	Status() replica.Status
	// Leader returns the leader's base URL (the 403 body points
	// mutation traffic at it).
	Leader() string
}

// WithFollower puts the server in follower (read-replica) mode, backed
// by rep: mutations are rejected with 403 naming the leader, /healthz
// reports role "follower" and turns unready (503) while replication
// lag exceeds maxLag versions or maxLagAge of wall time (each 0 =
// unbounded), and /stats grows a replication section. The two bounds
// cover different failures: the version bound catches a follower that
// cannot keep up with a live leader, while the time bound catches an
// unreachable leader — lag-in-versions freezes at the last successful
// poll, but lag-in-seconds keeps growing, so a partitioned replica
// drops out of rotation instead of serving arbitrarily stale reads as
// "ok". The read API — /search, /batch, /explain, /stats, and the
// replication surface for chained followers — serves from the local
// store as usual.
func WithFollower(rep Replication, maxLag uint64, maxLagAge time.Duration) Option {
	return func(s *Server) {
		s.replica = rep
		s.maxLag = maxLag
		s.maxLagAge = maxLagAge
	}
}

// WithSlowQuery enables the slow-query log: requests slower than d are
// captured — pattern, cache behavior, phase timings — into a bounded
// ring served at GET /debug/queries. d <= 0 disables capture (the
// default).
func WithSlowQuery(d time.Duration) Option {
	return func(s *Server) { s.slowThreshold = d }
}

// WithPprof mounts net/http/pprof under /debug/pprof/ (default off:
// profiles expose memory contents, so the surface is opt-in).
func WithPprof(on bool) Option {
	return func(s *Server) { s.pprofEnabled = on }
}

// WithAccessLog emits one structured line per request to w — JSON when
// jsonFormat, a stable text form otherwise. Each line carries the
// request id, endpoint, status, duration, and per-phase breakdown.
// Writes are serialized; w need not be safe for concurrent use.
func WithAccessLog(w io.Writer, jsonFormat bool) Option {
	return func(s *Server) {
		s.accessW = w
		s.accessJSON = jsonFormat
	}
}

// New builds a server over st. sc may be nil; the schema then has no
// constraints and simple patterns are scored without expansion (the
// label set is taken from the graph at construction time). The server
// registers itself as the store's pre-publication hook, so every commit
// moves the versioned cache to the new version before readers see it
// (ageCache).
func New(st *store.Store, sc *schema.Schema, opts ...Option) *Server {
	if sc == nil {
		v, _ := st.Snapshot()
		sc = schema.New(v.Labels())
	}
	s := &Server{
		st:          st,
		cache:       eval.NewCache(),
		schema:      sc,
		workers:     DefaultWorkers,
		mux:         http.NewServeMux(),
		start:       time.Now(),
		expand:      make(map[expandKey]*querySet),
		expandLimit: DefaultExpandCacheLimit,
		maxBody:     DefaultMaxBodyBytes,
		maxTimeout:  DefaultMaxTimeout,
	}
	for _, o := range opts {
		o(s)
	}
	s.adm = admission.New(s.admCfg)
	s.mux.HandleFunc("POST /search", s.handleSearch)
	s.mux.HandleFunc("POST /batch", s.handleBatch)
	s.mux.HandleFunc("POST /explain", s.handleExplain)
	s.mux.HandleFunc("POST /graph/edges", s.handleMutate)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /log", s.handleLog)
	s.mux.HandleFunc("GET /checkpoint", s.handleCheckpoint)
	s.reg = telemetry.NewRegistry()
	s.obs = newServerObs(s.reg)
	s.instrumentEngine(s.reg)
	s.instrumentSemiring(s.reg)
	s.instrumentAdmission(s.reg)
	st.Instrument(s.reg)
	// A replication tailer that can describe itself (the concrete
	// *replica.Follower does) joins the registry; test fakes that
	// cannot simply stay out of /metrics.
	if in, ok := s.replica.(interface{ Instrument(*telemetry.Registry) }); ok {
		in.Instrument(s.reg)
	}
	s.mux.Handle("GET /metrics", s.reg.Handler())
	// Registered once the counter handles exist: a commit observed from
	// here on is counted.
	st.BeforePublish(s.ageCache)
	if s.slowThreshold > 0 {
		s.slow = newSlowLog()
	}
	s.mux.HandleFunc("GET /debug/queries", s.handleSlowQueries)
	if s.pprofEnabled {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP implements http.Handler. Every request flows through the
// observability middleware, then the hardened path (panic recovery,
// admission, body bound — see protected in admission.go) before
// reaching the mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.observed(w, r)
}

// Registry returns the server's telemetry registry — the cmd layer and
// tests scrape or extend it.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Cache returns the server's shared versioned commuting-matrix cache
// (tests and stats probing).
func (s *Server) Cache() *eval.Cache { return s.cache }

// Store returns the server's store.
func (s *Server) Store() *store.Store { return s.st }

// evaluator binds a snapshot-scoped evaluator over the shared cache, so
// /search, /batch and /explain share the matrices any of them builds
// (every evaluator keys them canonically), and all evaluators feed the
// server's product counter through the mul hook.
func (s *Server) evaluator(g *graph.Snapshot, version uint64) *eval.Evaluator {
	ev := eval.NewVersioned(g, version, s.cache)
	// Annotated (non-integer) products fire the hook with nil operands —
	// the discriminator the semiring counters rely on.
	ev.SetMulHook(func(a, _ *sparse.Matrix) {
		s.n.products.Inc()
		if a == nil {
			s.n.annotatedProducts.Inc()
		}
	})
	return ev
}

// ageCache is the store's pre-publication hook: it moves the versioned
// cache across each commit before any reader can see the new version
// (Cache.Commit). The batch is summarized as a signed sparse delta per
// touched label, every cached pattern it touches is patched to the new
// version by delta-shaped products — so the first read of a hot
// pattern there hits instead of recomputing — and entries no pinned
// reader can read any more are dropped. A Reset touches everything. It
// runs on the writer's goroutine, so commits reach the cache in order.
func (s *Server) ageCache(c store.Commit) {
	start := time.Now()
	d := eval.CommitDelta{From: c.From, To: c.To, All: c.Updates == nil}
	if !d.All {
		b := store.SummarizeUpdates(c.Updates)
		n := c.Snap.NumNodes()
		d.OldN, d.NewN, d.Labels = n-b.NodesAdded, n, b.LabelDeltas(n)
	}
	res := s.cache.Commit(c.Snap, d, func() uint64 {
		// The oldest pinned version, or c.To when no reader pins one
		// (the store's live version is still c.From).
		if ps := s.st.PinStats(); len(ps.Pinned) > 0 {
			return ps.Pinned[0]
		}
		return c.To
	})
	s.n.deltaRoots.Add(float64(res.Roots))
	s.n.deltaMaintained.Add(float64(res.Maintained))
	s.n.deltaFallbacks.Add(float64(res.Fallbacks))
	s.n.deltaProducts.Add(float64(res.Products))
	s.n.deltaDur.Observe(time.Since(start).Seconds())
}

// requestContext derives the evaluation context: the server default
// timeout, overridden by a positive ?timeout_ms= query parameter.
// Zero, negative, non-numeric and integer-overflowing overrides are a
// 400 (they used to be partially silent); values past the server's
// maxTimeout ceiling are clamped — a huge override used to overflow the
// millisecond multiply into a negative Duration and silently disable
// the deadline altogether.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	d := s.timeout
	if raw := r.URL.Query().Get("timeout_ms"); raw != "" {
		ms, err := strconv.Atoi(raw)
		if err != nil || ms <= 0 {
			return nil, nil, fmt.Errorf("invalid timeout_ms %q (want a positive integer of milliseconds)", raw)
		}
		if int64(ms) > int64(1<<62)/int64(time.Millisecond) {
			// Would overflow the Duration multiply; any sane ceiling is
			// lower, and with no ceiling the largest representable
			// deadline is morally "unbounded" anyway.
			d = time.Duration(1 << 62)
		} else {
			d = time.Duration(ms) * time.Millisecond
		}
		if s.maxTimeout > 0 && d > s.maxTimeout {
			d = s.maxTimeout
		}
	}
	if d <= 0 {
		return r.Context(), func() {}, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// errorResponse is the uniform error body. Code, when set, is a stable
// machine-readable discriminator for errors a client must tell apart
// (a follower distinguishing "since beyond the live version" from a
// malformed request); Leader points mutation traffic at the leader on
// follower-mode 403s.
type errorResponse struct {
	Error  string `json:"error"`
	Code   string `json:"code,omitempty"`
	Leader string `json:"leader,omitempty"`
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError writes the uniform error body. Error accounting is NOT
// done here: the middleware counts every >= 400 response from the
// status it observes, so handlers that produce errors through other
// paths (writeJSON with an error status, the mux's own 404/405) are
// counted identically.
func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, errorResponse{Error: err.Error()})
}

// HealthzResponse is the GET /healthz body. Role is "leader" (the
// default: a writable store) or "follower"; a follower additionally
// reports its replication status, and the endpoint doubles as the
// readiness probe — 503 with status "syncing" before the first
// successful sync and "lagging" while lag exceeds the follower's
// max-lag bound, so a load balancer stops routing reads to a replica
// that has fallen too far behind.
type HealthzResponse struct {
	Status      string          `json:"status"`
	Role        string          `json:"role"`
	Version     uint64          `json:"version"`
	Replication *replica.Status `json:"replication,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthzResponse{Status: "ok", Role: "leader", Version: s.st.Version()}
	status := http.StatusOK
	if s.replica != nil {
		rs := s.replica.Status()
		resp.Role = "follower"
		resp.Replication = &rs
		switch {
		case !rs.SyncedOnce:
			resp.Status = "syncing"
			status = http.StatusServiceUnavailable
		case s.maxLag > 0 && rs.LagVersions > s.maxLag,
			s.maxLagAge > 0 && rs.LagSeconds > s.maxLagAge.Seconds():
			resp.Status = "lagging"
			status = http.StatusServiceUnavailable
		}
	}
	s.writeJSON(w, status, resp)
}

// WorkloadStats is the /stats view of evaluation work: the matrix
// products performed server-wide.
type WorkloadStats struct {
	// Deprecated: /batch no longer plans; reads 0.
	PlannedBatches uint64 `json:"planned_batches"`
	// Deprecated: /batch no longer plans; reads 0.
	ProductsSaved        uint64 `json:"products_saved"`
	ProductsMaterialized uint64 `json:"products_materialized"`
}

// DeltaStats is the /stats view of incremental cache maintenance:
// commits the cache went through (Resets included), stale patterns
// eligible (roots), patterns patched forward vs. left to recompute,
// sparse products spent on deltas, and total maintenance wall time.
type DeltaStats struct {
	MaxDensity         float64 `json:"max_density"`
	Commits            uint64  `json:"commits"`
	Roots              uint64  `json:"roots"`
	Maintained         uint64  `json:"maintained"`
	Fallbacks          uint64  `json:"fallbacks"`
	Products           uint64  `json:"products"`
	MaintenanceSeconds float64 `json:"maintenance_seconds"`
}

// ExpandMemoStats is the /stats view of the bounded Algorithm-1
// expansion memo, keyed by the pattern string as the client sent it
// and the expansion flag: a hit parses nothing, and only a miss parses
// and expands.
type ExpandMemoStats struct {
	Size      int    `json:"size"`
	Limit     int    `json:"limit"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// StatsResponse is the GET /stats body.
type StatsResponse struct {
	Store store.Stats     `json:"store"`
	Pins  store.PinStats  `json:"pins"`
	Cache eval.CacheStats `json:"cache"`
	// CacheVersions maps graph versions to the cached matrices valid
	// there (eval.Cache.VersionOccupancy): the live version, and each
	// version a still-pinned reader may read at which an entry begins.
	CacheVersions map[uint64]int        `json:"cache_versions"`
	Workload      WorkloadStats         `json:"workload"`
	Delta         DeltaStats            `json:"delta"`
	Semiring      SemiringStats         `json:"semiring"`
	Admission     AdmissionStats        `json:"admission"`
	Durability    store.DurabilityStats `json:"durability"`
	ExpandMemo    ExpandMemoStats       `json:"expand_memo"`
	// Replication reports follower lag and sync counters; nil on a
	// leader.
	Replication   *replica.Status   `json:"replication,omitempty"`
	Requests      map[string]uint64 `json:"requests"`
	UptimeSeconds float64           `json:"uptime_seconds"`
}

// Stats assembles the /stats body (also used by the CLI's shutdown
// flush).
func (s *Server) Stats() StatsResponse {
	s.expandMu.Lock()
	memo := ExpandMemoStats{
		Size:      len(s.expand),
		Limit:     s.expandLimit,
		Hits:      s.expandHits,
		Misses:    s.expandMisses,
		Evictions: s.expandEvictions,
	}
	s.expandMu.Unlock()
	var repl *replica.Status
	if s.replica != nil {
		rs := s.replica.Status()
		repl = &rs
	}
	return StatsResponse{
		Store:         s.st.Stats(),
		Pins:          s.st.PinStats(),
		Cache:         s.cache.Stats(),
		CacheVersions: s.cache.VersionOccupancy(),
		Workload: WorkloadStats{
			ProductsMaterialized: count(s.n.products),
		},
		Delta:         s.deltaStats(),
		Semiring:      s.semiringStats(),
		Admission:     s.adm.Stats(),
		Durability:    s.st.DurabilityStats(),
		ExpandMemo:    memo,
		Replication:   repl,
		Requests:      s.requestCounts(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
}

// deltaStats snapshots the incremental-maintenance counters. Commits
// and seconds are the maintenance histogram's count and sum.
func (s *Server) deltaStats() DeltaStats {
	return DeltaStats{
		MaxDensity:         eval.DefaultMaxDeltaDensity,
		Commits:            s.n.deltaDur.Count(),
		Roots:              count(s.n.deltaRoots),
		Maintained:         count(s.n.deltaMaintained),
		Fallbacks:          count(s.n.deltaFallbacks),
		Products:           count(s.n.deltaProducts),
		MaintenanceSeconds: s.n.deltaDur.Value(),
	}
}

// requestCounts assembles the Requests section of /stats from the
// telemetry registry's own counters — the single source of truth, so
// /stats and /metrics cannot disagree. The JSON shape predates the
// registry and is kept: per-endpoint counts for the four request
// surfaces plus totals for errors and timeouts. "errors" folds in
// /batch's per-query errors and "timeouts" its soft timeouts, matching
// the pre-registry accounting.
func (s *Server) requestCounts() map[string]uint64 {
	req := map[string]uint64{
		"search": 0, "batch": 0, "explain": 0,
		"mutations": 0, "errors": 0, "timeouts": 0,
	}
	o := s.obs
	for _, ep := range []string{"search", "batch", "explain", "mutations"} {
		req[ep] = uint64(o.requests[ep].Value())
	}
	var errs, touts float64
	for _, m := range o.errors {
		errs += m.Value()
	}
	for _, m := range o.timeouts {
		touts += m.Value()
	}
	req["errors"] = uint64(errs + o.queryErrors.Value())
	req["timeouts"] = uint64(touts)
	return req
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Stats())
}

// nodeResolver is the lookup surface resolveNode needs; satisfied by
// snapshots, graphs and write transactions (read-your-writes).
type nodeResolver interface {
	NodeByName(name string) (graph.Node, bool)
	Has(id graph.NodeID) bool
}

// resolveNode resolves a node reference: first as a display name, then
// as a decimal node id.
func resolveNode(g nodeResolver, ref string) (graph.NodeID, bool) {
	if n, ok := g.NodeByName(ref); ok {
		return n.ID, true
	}
	// Parse at NodeID's width: an id past int32 must not wrap onto a
	// small one.
	id, err := strconv.ParseInt(ref, 10, 32)
	if err != nil || !g.Has(graph.NodeID(id)) {
		return 0, false
	}
	return graph.NodeID(id), true
}
