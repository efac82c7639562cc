// Command relsim-serve runs the RelSim query service: it loads a
// built-in dataset or a graph file and serves similarity queries,
// instance-level explanations and live graph mutations over HTTP/JSON,
// with MVCC snapshot isolation — every request evaluates one pinned
// immutable graph version, so long queries never block writers and vice
// versa.
//
// Usage:
//
//	relsim-serve -dataset dblp-small [-addr :8080] [-timeout 30s]
//	relsim-serve -in g.jsonl -schema dblp [-workers 8] [-cache-limit 512]
//	relsim-serve -dataset dblp-small -data-dir /var/lib/relsim [-fsync always]
//	relsim-serve -follow http://leader:8080 [-data-dir /var/lib/replica] [-max-lag 1024]
//
// With -data-dir the store is durable: every committed mutation batch
// is appended to a write-ahead log before publication, the graph is
// checkpointed every -checkpoint-every versions, and on boot the
// service recovers checkpoint + WAL tail — resuming the version counter
// exactly — before it starts listening. The -dataset/-in graph seeds a
// fresh directory only; recovered state always wins.
//
// With -follow the process is a read replica: it bootstraps from the
// leader's GET /checkpoint, tails GET /log, serves the full read API at
// the replicated versions, rejects mutations with 403 naming the
// leader, and re-bootstraps automatically when the leader signals a
// feed gap. A follower with -data-dir persists what it applies and
// resumes tailing from its recovered version after a restart.
//
// Endpoints: POST /search, POST /batch, POST /explain,
// POST /graph/edges, GET /healthz, GET /stats, GET /log (the
// replication catch-up feed), GET /checkpoint (the bootstrap
// transfer). See internal/server for the request and response shapes,
// and the top-level README for curl examples.
//
// On SIGINT/SIGTERM the server stops tailing (followers), drains
// in-flight requests for -drain, flushes a final /stats snapshot to the
// log, and closes the store (final WAL fsync) before exiting; a
// mutation racing the drain gets a clean 503.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"relsim/internal/datasets"
	"relsim/internal/graph"
	"relsim/internal/replica"
	"relsim/internal/schema"
	"relsim/internal/server"
	"relsim/internal/store"
	"relsim/internal/wal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "relsim-serve:", err)
		os.Exit(1)
	}
}

// config is every relsim-serve setting. The flags bind into it once
// (bindFlags) and both roles — leader and follower — read it through
// the same two functions, openStore and serverOptions, so a setting
// cannot exist for one role and be forgotten for the other.
type config struct {
	addr, dataset, in, schemaName string
	workers, cacheLimit           int
	timeout, drain                time.Duration
	dataDir, fsync                string
	fsyncInterval                 time.Duration
	checkpointEvery               uint64
	segmentBytes                  int64
	logRetention                  int
	follow                        string
	pollInterval                  time.Duration
	maxLag                        uint64
	maxLagAge                     time.Duration
	maxInflight, queueDepth       int
	rate                          float64
	burst, maxCost                int
	maxBodyBytes                  int64
	maxTimeout                    time.Duration
	slowQuery                     time.Duration
	pprof                         bool
	logFormat                     string

	// Resolved by validate from fsync, logFormat and schemaName (nil
	// without -schema).
	syncPolicy wal.SyncPolicy
	accessJSON bool
	schema     *schema.Schema
}

// bindFlags registers every relsim-serve flag on fs, bound to the
// returned config.
func bindFlags(fs *flag.FlagSet) *config {
	cfg := &config{}
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.StringVar(&cfg.dataset, "dataset", "", fmt.Sprintf("built-in dataset to serve %v", datasets.Names()))
	fs.StringVar(&cfg.in, "in", "", "graph file to serve (JSON lines, see internal/graph/io.go)")
	fs.StringVar(&cfg.schemaName, "schema", "", "built-in schema for Algorithm-1 expansion (dblp|wsu|biomed); defaults to the dataset's own schema")
	fs.IntVar(&cfg.workers, "workers", server.DefaultWorkers, "default /batch worker-pool size")
	fs.IntVar(&cfg.cacheLimit, "cache-limit", 0, "max cached commuting matrices across versions, 0 = unbounded")
	fs.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "default /search and /batch evaluation deadline (0 = none; per-request override via ?timeout_ms=)")
	fs.DurationVar(&cfg.drain, "drain", 5*time.Second, "graceful-shutdown drain deadline for in-flight requests")
	fs.StringVar(&cfg.dataDir, "data-dir", "", "durable data directory (write-ahead log + checkpoints); empty serves in-memory only")
	fs.StringVar(&cfg.fsync, "fsync", "always", "WAL fsync policy: always (no committed batch is ever lost), interval, never")
	fs.DurationVar(&cfg.fsyncInterval, "fsync-interval", wal.DefaultSyncInterval, "fsync cadence for -fsync interval")
	fs.Uint64Var(&cfg.checkpointEvery, "checkpoint-every", store.DefaultCheckpointEvery, "versions between graph checkpoints (0 = only the boot checkpoint)")
	fs.Int64Var(&cfg.segmentBytes, "wal-segment-bytes", wal.DefaultSegmentBytes, "WAL segment rotation bound in bytes (smaller segments let checkpoints trim history sooner)")
	fs.IntVar(&cfg.logRetention, "log-retention", store.DefaultLogCap, "in-memory replication feed retention in records (a durable store falls back to the WAL past it)")
	fs.StringVar(&cfg.follow, "follow", "", "leader base URL (e.g. http://leader:8080); run as a read replica of it")
	fs.DurationVar(&cfg.pollInterval, "poll-interval", replica.DefaultPollInterval, "follower: feed poll cadence while caught up")
	fs.Uint64Var(&cfg.maxLag, "max-lag", 0, "follower: /healthz turns 503 while replication lag exceeds this many versions (0 = unbounded)")
	fs.DurationVar(&cfg.maxLagAge, "max-lag-age", 0, "follower: /healthz turns 503 while behind for longer than this (0 = unbounded; catches an unreachable leader, whose version lag freezes)")
	fs.IntVar(&cfg.maxInflight, "max-inflight", 0, "admission control: max concurrently admitted evaluation/mutation requests, shedding the excess with 503 before any snapshot is pinned (0 = unlimited)")
	fs.IntVar(&cfg.queueDepth, "queue-depth", 0, "admission control: bounded wait queue above -max-inflight; a full queue sheds immediately (0 = no queue)")
	fs.Float64Var(&cfg.rate, "rate", 0, "per-client token-bucket rate limit in requests/second, keyed by X-Relsim-Api-Key or remote address; drained buckets answer 429 + Retry-After (0 = unlimited)")
	fs.IntVar(&cfg.burst, "burst", 0, "per-client burst capacity above -rate (0 = a sensible default)")
	fs.IntVar(&cfg.maxCost, "max-cost", 0, "per-request cost ceiling in estimated matrix products; costlier requests answer 422 before materialization (0 = unlimited)")
	fs.Int64Var(&cfg.maxBodyBytes, "max-body-bytes", server.DefaultMaxBodyBytes, "request-body size bound; larger bodies answer 413 (0 = unbounded)")
	fs.DurationVar(&cfg.maxTimeout, "max-timeout", server.DefaultMaxTimeout, "ceiling for the per-request ?timeout_ms= override; larger values are clamped (0 = no ceiling)")
	fs.DurationVar(&cfg.slowQuery, "slow-query", 250*time.Millisecond, "slow-query log threshold: requests slower than this are captured into GET /debug/queries (0 = disabled)")
	fs.BoolVar(&cfg.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default: profiles expose process memory)")
	fs.StringVar(&cfg.logFormat, "log-format", "text", "access-log format, one line per request to stderr: text or json")
	return cfg
}

// validate checks the enumerated flags up front, whatever the role or
// store mode: a typo'd log format, schema or fsync policy must die with
// a clear message before anything is opened or listens, not fall
// through to a stack of store-layer errors — or, for -fsync without
// -data-dir, not be noticed at all.
func (cfg *config) validate() error {
	switch cfg.logFormat {
	case "text":
	case "json":
		cfg.accessJSON = true
	default:
		return fmt.Errorf("invalid -log-format %q (want text or json)", cfg.logFormat)
	}
	policy, err := wal.ParseSyncPolicy(cfg.fsync)
	if err != nil {
		return fmt.Errorf("invalid -fsync: %w", err)
	}
	cfg.syncPolicy = policy
	if cfg.schemaName != "" {
		if cfg.schema = datasets.SchemaByName(cfg.schemaName); cfg.schema == nil {
			return fmt.Errorf("unknown schema %q (have dblp|wsu|biomed)", cfg.schemaName)
		}
	}
	return nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("relsim-serve", flag.ExitOnError)
	cfg := bindFlags(fs)
	fs.Parse(args)
	if err := cfg.validate(); err != nil {
		return err
	}
	if cfg.follow != "" {
		return runFollower(cfg)
	}

	g, sc, err := load(cfg.dataset, cfg.in, cfg.schema)
	if err != nil {
		return err
	}
	st, err := openStore(cfg, g)
	if err != nil {
		return err
	}
	defer st.Close()
	srv := server.New(st, sc, serverOptions(cfg)...)

	stats := st.Stats()
	log.Printf("serving %d nodes, %d edges, labels %v on %s (MVCC snapshot isolation, timeout %v, durable %v, slow-query %v, pprof %v, max-inflight %d, rate %g, max-cost %d)",
		stats.Nodes, stats.Edges, stats.Labels, cfg.addr, cfg.timeout, st.Durable(), cfg.slowQuery, cfg.pprof, cfg.maxInflight, cfg.rate, cfg.maxCost)

	return serve(srv, st, cfg.addr, cfg.drain, nil, nil)
}

// openStore builds the store both roles serve from: durable under
// -data-dir, in-memory otherwise. seed is the leader's -dataset/-in
// graph and nil on a follower, whose graph comes from the leader's
// checkpoint.
func openStore(cfg *config, seed *graph.Graph) (*store.Store, error) {
	if cfg.dataDir == "" {
		ms := store.New(seed)
		ms.SetLogRetention(cfg.logRetention)
		return ms, nil
	}
	openOpts := []store.OpenOption{
		store.WithSeed(seed),
		store.WithSync(cfg.syncPolicy),
		store.WithSyncInterval(cfg.fsyncInterval),
		store.WithCheckpointEvery(cfg.checkpointEvery),
		store.WithSegmentBytes(cfg.segmentBytes),
		store.WithLogRetention(cfg.logRetention),
	}
	// Recovery happens here, before the listener exists: no request
	// can observe a half-replayed store.
	st, err := store.Open(cfg.dataDir, openOpts...)
	if err != nil {
		return nil, err
	}
	ds := st.DurabilityStats()
	log.Printf("durable store %s: recovered version %d (checkpoint %d + %d replayed records, %d torn records truncated), fsync %s, checkpoint every %d",
		cfg.dataDir, ds.Recovery.RecoveredVersion, ds.Recovery.CheckpointVersion,
		ds.Recovery.ReplayedRecords, ds.WAL.TornTruncated, ds.SyncPolicy, ds.CheckpointEvery)
	return st, nil
}

// serverOptions folds the flags into server options. Followers get the
// identical envelope, admission included: a replica is just as
// overloadable as its leader, and the exempt replication surface
// (/log, /checkpoint) is never gated on either.
func serverOptions(cfg *config) []server.Option {
	return []server.Option{
		server.WithWorkers(cfg.workers),
		server.WithCacheLimit(cfg.cacheLimit),
		server.WithTimeout(cfg.timeout),
		server.WithSlowQuery(cfg.slowQuery),
		server.WithPprof(cfg.pprof),
		server.WithAccessLog(os.Stderr, cfg.accessJSON),
		server.WithAdmissionLimits(cfg.maxInflight, cfg.queueDepth),
		server.WithAdmissionRate(cfg.rate, cfg.burst),
		server.WithAdmissionMaxCost(cfg.maxCost),
		server.WithMaxBodyBytes(cfg.maxBodyBytes),
		server.WithMaxTimeout(cfg.maxTimeout),
	}
}

// serve runs the HTTP server until SIGINT/SIGTERM, then drains and —
// when stopTailer is set (follower mode) — stops the replication loop
// first so no page lands mid-teardown. The caller's deferred st.Close
// runs after serve returns; mutations racing the drain hit the
// closed-store 503, never a torn WAL append. A nil sigc registers a
// fresh signal channel; follower mode passes its own, registered
// before the bootstrap began, so no delivery window ever reverts to
// the default die-without-drain disposition.
func serve(srv *server.Server, st *store.Store, addr string, drain time.Duration, stopTailer func(), sigc <-chan os.Signal) error {
	hs := &http.Server{Addr: addr, Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	if sigc == nil {
		c := make(chan os.Signal, 1)
		signal.Notify(c, os.Interrupt, syscall.SIGTERM)
		sigc = c
	}
	select {
	case err := <-errc:
		if stopTailer != nil {
			stopTailer()
		}
		return err
	case sig := <-sigc:
		log.Printf("received %v, draining for up to %v", sig, drain)
		if stopTailer != nil {
			stopTailer()
		}
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		shutdownErr := hs.Shutdown(ctx)
		if shutdownErr != nil {
			// Drain deadline exceeded: force-close lingering connections.
			// An in-flight mutation now races store.Close — which refuses
			// it cleanly (503) instead of panicking on a closed WAL.
			log.Printf("drain incomplete (%v), closing", shutdownErr)
			hs.Close()
		}
		flushStats(srv)
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return shutdownErr
	}
}

// runFollower boots a read replica: build the (optionally durable)
// store, bootstrap + catch up from the leader synchronously — the
// listener only opens on a converged replica, mirroring how a durable
// leader recovers before listening — then serve reads while the tailer
// keeps following.
func runFollower(cfg *config) error {
	if cfg.dataset != "" || cfg.in != "" {
		return fmt.Errorf("-follow is mutually exclusive with -dataset/-in: a follower's graph comes from the leader's checkpoint")
	}
	leaderURL, err := replica.LeaderURL(cfg.follow)
	if err != nil {
		return err
	}
	st, err := openStore(cfg, nil)
	if err != nil {
		return err
	}
	defer st.Close()

	tailCtx, stopTail := context.WithCancel(context.Background())
	defer stopTail()
	f := replica.New(st, leaderURL, replica.Options{
		PollInterval: cfg.pollInterval,
		Logf:         log.Printf,
	})
	// One signal channel for the follower's whole lifetime, registered
	// before the bootstrap begins: a SIGINT/SIGTERM at any point cancels
	// the tailer and is relayed onward for serve's graceful drain — no
	// window where the default die-without-drain disposition applies,
	// and no signal consumed without acting on it.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	relay := make(chan os.Signal, 1)
	go func() {
		for sig := range sigc {
			stopTail()
			select {
			case relay <- sig:
			default:
			}
		}
	}()
	err = f.Start(tailCtx)
	// A signal that landed during the initial sync cancelled tailCtx,
	// and Start may still have returned nil if the last page had just
	// finished. Honoring the shutdown here matters: proceeding would
	// open the listener with a dead tailer (Run exits immediately on
	// the cancelled context) and the replica would serve, frozen,
	// forever.
	if tailCtx.Err() != nil {
		log.Printf("shutdown requested during initial sync, exiting")
		return nil
	}
	if err != nil {
		return err
	}

	tailDone := make(chan struct{})
	go func() {
		defer close(tailDone)
		f.Run(tailCtx)
	}()

	srv := server.New(st, cfg.schema, append(serverOptions(cfg), server.WithFollower(f, cfg.maxLag, cfg.maxLagAge))...)

	stats := st.Stats()
	log.Printf("follower of %s serving %d nodes, %d edges at version %d on %s (poll %v, max lag %d, durable %v)",
		leaderURL, stats.Nodes, stats.Edges, stats.Version, cfg.addr, cfg.pollInterval, cfg.maxLag, st.Durable())

	return serve(srv, st, cfg.addr, cfg.drain, func() {
		stopTail()
		<-tailDone
	}, relay)
}

// flushStats logs the final /stats snapshot so post-mortems see the
// closing version, pin spread and cache counters.
func flushStats(srv *server.Server) {
	buf, err := json.Marshal(srv.Stats())
	if err != nil {
		log.Printf("final stats: marshal: %v", err)
		return
	}
	log.Printf("final stats: %s", buf)
}

// load builds the graph and schema from the flags: either a built-in
// dataset (which brings its own schema unless -schema overrides it) or
// a graph file plus an optional built-in schema.
func load(dataset, in string, override *schema.Schema) (*graph.Graph, *schema.Schema, error) {
	switch {
	case dataset != "" && in != "":
		return nil, nil, fmt.Errorf("-dataset and -in are mutually exclusive")
	case dataset != "":
		ds, err := datasets.ByName(dataset)
		if err != nil {
			return nil, nil, err
		}
		if override != nil {
			return ds.Graph, override, nil
		}
		return ds.Graph, ds.Schema, nil
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		g, err := graph.Read(f)
		if err != nil {
			return nil, nil, err
		}
		return g, override, nil
	}
	return nil, nil, fmt.Errorf("one of -dataset or -in is required")
}
