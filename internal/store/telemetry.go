package store

import (
	"time"

	"relsim/internal/telemetry"
)

// storeObs holds the event-driven metrics the store feeds at commit and
// checkpoint time. Snapshot-style values (version, pins, WAL occupancy)
// are registered as scrape-time callbacks instead and never touch the
// hot path.
type storeObs struct {
	commitSeconds     *telemetry.Metric
	commits           *telemetry.Metric
	checkpointSeconds *telemetry.Metric
}

// commitBuckets resolve the latencies that matter on the commit path:
// sub-millisecond in-memory publishes up through slow-disk fsyncs.
var commitBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// Instrument registers the store's metrics with reg and starts feeding
// them: commit latency and count, checkpoint duration, and — on a
// durable store — WAL fsync latency, appended bytes, and
// segment/checkpoint occupancy gauges. Gauges are scrape-time callbacks
// over the store's existing stats, so /stats and /metrics can never
// disagree. Call once, before serving; a nil registry is a no-op.
func (s *Store) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	obs := &storeObs{
		commitSeconds: reg.Histogram("relsim_store_commit_seconds",
			"Latency of committed write transactions (WAL append + publish).",
			commitBuckets).With(),
		commits: reg.Counter("relsim_store_commits_total",
			"Committed write transactions.").With(),
		checkpointSeconds: reg.Histogram("relsim_store_checkpoint_seconds",
			"Duration of completed graph checkpoints.", nil).With(),
	}
	s.obs.Store(obs)

	reg.GaugeFunc("relsim_store_version",
		"Current published graph version.",
		func() float64 { return float64(s.Version()) })
	reg.GaugeFunc("relsim_store_pinned_readers",
		"Readers currently pinning a snapshot.",
		func() float64 { return float64(s.PinStats().Readers) })
	reg.GaugeFunc("relsim_store_pin_spread_versions",
		"Live version minus the oldest pinned version.",
		func() float64 { return float64(s.PinStats().Spread) })
	reg.GaugeFunc("relsim_store_log_records",
		"Records retained in the in-memory replication log.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.log))
		})

	d := s.dur
	if d == nil {
		return
	}
	reg.CounterFunc("relsim_store_checkpoints_total",
		"Checkpoints written this process.",
		func() float64 { return float64(d.checkpoints.Load()) })
	reg.CounterFunc("relsim_store_checkpoint_errors_total",
		"Checkpoint attempts that failed.",
		func() float64 { return float64(d.checkpointErrs.Load()) })
	reg.CounterFunc("relsim_store_checkpoint_bytes_total",
		"Bytes checkpoints appended to the block log this process: the blocks no earlier checkpoint of the log generation holds, manifests excluded.",
		func() float64 { return float64(d.checkpointBytes.Load()) })
	reg.CounterFunc("relsim_store_checkpoint_encoded_bytes_total",
		"Bytes of checkpoint blocks encoded afresh; the rest were blocks carried from an earlier checkpoint.",
		func() float64 { return float64(d.checkpointEncoded.Load()) })
	reg.GaugeFunc("relsim_store_last_checkpoint_version",
		"Version of the newest checkpoint on disk.",
		func() float64 { return float64(d.lastCheckpoint.Load()) })

	fsync := reg.Histogram("relsim_wal_fsync_seconds",
		"Latency of WAL fsyncs.", commitBuckets).With()
	appended := reg.Counter("relsim_wal_appended_bytes_total",
		"Bytes appended to the WAL (headers included).").With()
	d.wal.SetObservers(
		func(seconds float64) { fsync.Observe(seconds) },
		func(bytes int) { appended.Add(float64(bytes)) },
	)
	reg.CounterFunc("relsim_wal_records_total",
		"Records appended to the WAL this process.",
		func() float64 { return float64(d.wal.Stats().Appended) })
	reg.CounterFunc("relsim_wal_fsyncs_total",
		"WAL fsyncs this process.",
		func() float64 { return float64(d.wal.Stats().Fsyncs) })
	reg.GaugeFunc("relsim_wal_segments",
		"Live WAL segment files.",
		func() float64 { return float64(d.wal.Stats().Segments) })
	reg.GaugeFunc("relsim_wal_active_segment_bytes",
		"Bytes in the active WAL segment.",
		func() float64 { return float64(d.wal.Stats().ActiveSegmentBytes) })
}

// observeCommit records one committed transaction. No-op until
// Instrument runs.
func (s *Store) observeCommit(start time.Time) {
	if obs := s.obs.Load(); obs != nil {
		obs.commits.Inc()
		obs.commitSeconds.Observe(time.Since(start).Seconds())
	}
}

// observeCheckpoint records one completed checkpoint's duration.
func (s *Store) observeCheckpoint(start time.Time) {
	if obs := s.obs.Load(); obs != nil {
		obs.checkpointSeconds.Observe(time.Since(start).Seconds())
	}
}
