package store

// Durability. A store built with Open(dir) survives its process:
// every committed mutation batch is appended to a write-ahead log
// (internal/wal) before the new version is published, and the graph is
// periodically checkpointed so recovery replays checkpoint + tail
// instead of the full history. Open recovers on boot — loading the
// newest readable checkpoint, replaying the WAL records past it, and
// resuming the version counter exactly where the crash left it, so
// (version, pattern) cache keys stay globally meaningful across
// restarts. A torn or corrupted tail record is truncated by the WAL
// scan; because the append happens before publication, anything lost
// that way was never observable, and every batch survives or vanishes
// whole (all-or-nothing per Tx).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"relsim/internal/graph"
	"relsim/internal/wal"
)

const (
	checkpointPrefix = "checkpoint-"
	checkpointSuffix = ".ckpt"

	// DefaultCheckpointEvery is the default number of versions between
	// graph checkpoints.
	DefaultCheckpointEvery = 1024
)

// ErrDurability marks a commit that failed in the durability layer (WAL
// append or fsync) rather than in the transaction callback: the batch
// rolled back, but the fault is the server's storage, not the caller's
// request. Test with errors.Is.
var ErrDurability = errors.New("durability failure")

// durable is the store's durability state.
type durable struct {
	dir             string
	wal             *wal.Log
	syncPolicy      wal.SyncPolicy
	checkpointEvery uint64

	lastCheckpoint    atomic.Uint64 // version of the newest checkpoint
	checkpoints       atomic.Uint64 // checkpoints written this process
	checkpointErrs    atomic.Uint64
	checkpointBytes   atomic.Uint64 // bytes checkpoints wrote
	checkpointEncoded atomic.Uint64 // the part of them encoded afresh

	// ckptMu serializes checkpoint writers (the background cadence
	// goroutine and manual Checkpoint calls); inFlight dedupes cadence
	// triggers so at most one background checkpoint runs at a time;
	// ckptWG lets Close drain a spawned checkpoint goroutine even before
	// it reaches ckptMu.
	ckptMu   sync.Mutex
	inFlight atomic.Bool
	ckptWG   sync.WaitGroup

	recovery RecoveryStats
}

// RecoveryStats describes what Open had to do to reconstruct the
// store.
type RecoveryStats struct {
	// CheckpointVersion is the version of the checkpoint recovery
	// started from (0 when the directory was fresh).
	CheckpointVersion uint64 `json:"checkpoint_version"`
	// ReplayedRecords is the number of WAL records (mutation batches)
	// replayed past the checkpoint.
	ReplayedRecords uint64 `json:"replayed_records"`
	// ReplayedVersions is the number of individual mutations those
	// batches carried.
	ReplayedVersions uint64 `json:"replayed_versions"`
	// RecoveredVersion is the version the store resumed at.
	RecoveredVersion uint64 `json:"recovered_version"`
	// CorruptCheckpointsSkipped counts newer checkpoint files that
	// failed to parse and were passed over for an older one.
	CorruptCheckpointsSkipped int `json:"corrupt_checkpoints_skipped,omitempty"`
}

// DurabilityStats is the monitoring view of the durability layer.
type DurabilityStats struct {
	Enabled               bool          `json:"enabled"`
	Dir                   string        `json:"dir,omitempty"`
	SyncPolicy            string        `json:"sync_policy,omitempty"`
	WAL                   wal.Stats     `json:"wal"`
	CheckpointEvery       uint64        `json:"checkpoint_every"`
	LastCheckpointVersion uint64        `json:"last_checkpoint_version"`
	Checkpoints           uint64        `json:"checkpoints_written"`
	CheckpointErrors      uint64        `json:"checkpoint_errors"`
	Recovery              RecoveryStats `json:"recovery"`
}

// DurabilityStats reports the durability layer's counters; for an
// in-memory store only Enabled=false is meaningful.
func (s *Store) DurabilityStats() DurabilityStats {
	d := s.dur
	if d == nil {
		return DurabilityStats{}
	}
	return DurabilityStats{
		Enabled:               true,
		Dir:                   d.dir,
		SyncPolicy:            d.syncPolicy.String(),
		WAL:                   d.wal.Stats(),
		CheckpointEvery:       d.checkpointEvery,
		LastCheckpointVersion: d.lastCheckpoint.Load(),
		Checkpoints:           d.checkpoints.Load(),
		CheckpointErrors:      d.checkpointErrs.Load(),
		Recovery:              d.recovery,
	}
}

// Durable reports whether the store persists its updates.
func (s *Store) Durable() bool { return s.dur != nil }

// openConfig collects Open options.
type openConfig struct {
	seed            *graph.Graph
	walOpt          wal.Options
	checkpointEvery uint64
	logCap          int
}

// OpenOption configures Open.
type OpenOption func(*openConfig)

// WithSeed supplies the initial graph for a fresh data directory. A
// directory that already holds a checkpoint or WAL records ignores the
// seed: recovered state always wins, so restarting with a different
// dataset flag cannot silently shadow committed mutations. The seed is
// never mutated.
func WithSeed(g *graph.Graph) OpenOption {
	return func(c *openConfig) { c.seed = g }
}

// WithSync sets the WAL fsync policy (default wal.SyncAlways: a
// committed batch survives any crash).
func WithSync(p wal.SyncPolicy) OpenOption {
	return func(c *openConfig) { c.walOpt.Sync = p }
}

// WithSyncInterval sets the cadence for wal.SyncEvery.
func WithSyncInterval(d time.Duration) OpenOption {
	return func(c *openConfig) { c.walOpt.SyncInterval = d }
}

// WithSegmentBytes sets the WAL segment rotation bound.
func WithSegmentBytes(n int64) OpenOption {
	return func(c *openConfig) { c.walOpt.SegmentBytes = n }
}

// WithCheckpointEvery checkpoints the graph every n committed versions
// (default DefaultCheckpointEvery). 0 disables periodic checkpoints;
// recovery then replays the whole WAL since the boot checkpoint.
func WithCheckpointEvery(n uint64) OpenOption {
	return func(c *openConfig) { c.checkpointEvery = n }
}

// WithLogRetention bounds the in-memory replication feed (see
// SetLogRetention).
func WithLogRetention(n int) OpenOption {
	return func(c *openConfig) {
		if n > 0 {
			c.logCap = n
		}
	}
}

// Open opens (creating if needed) a durable store in dir and recovers
// its state: the newest readable checkpoint is loaded, the WAL tail
// past it is replayed batch-by-batch (each batch all-or-nothing, with
// version continuity verified), and the version counter resumes at the
// last committed mutation. A torn tail record — a crash mid-append —
// is truncated, never an error. On a fresh directory the seed graph
// (WithSeed, or empty) becomes version 0 and an initial checkpoint is
// written so the directory is self-contained from then on.
func Open(dir string, opts ...OpenOption) (*Store, error) {
	cfg := openConfig{
		walOpt:          wal.Options{Sync: wal.SyncAlways},
		checkpointEvery: DefaultCheckpointEvery,
		logCap:          DefaultLogCap,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	base, ckptVersion, hadCkpt, corruptSkipped, err := loadCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	if base == nil {
		if base = cfg.seed; base == nil {
			base = graph.New()
		}
	}
	w, err := wal.Open(dir, cfg.walOpt)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}

	// Replay the tail: one copy-on-write builder per batch, so a batch
	// that fails integrity checks leaves the prefix intact.
	snap := base.Snapshot()
	version := ckptVersion
	var records, mutations uint64
	var ring []Update
	ringDropped := ckptVersion
	replayErr := w.Replay(ckptVersion, func(seq uint64, payload []byte) error {
		var ups []Update
		if err := json.Unmarshal(payload, &ups); err != nil {
			return fmt.Errorf("store: wal record %d: %w", seq, err)
		}
		if len(ups) == 0 {
			return fmt.Errorf("store: wal record %d: empty batch", seq)
		}
		b := graph.NewBuilder(snap)
		for _, u := range ups {
			if u.Version != version+1 {
				return fmt.Errorf("store: wal record %d: version %d after %d (gap)", seq, u.Version, version)
			}
			if err := applyUpdate(b, u); err != nil {
				return fmt.Errorf("store: wal record %d: %w", seq, err)
			}
			version++
		}
		if seq != version {
			return fmt.Errorf("store: wal record %d commits at version %d (mismatch)", seq, version)
		}
		snap = b.Build()
		records++
		mutations += uint64(len(ups))
		ring = append(ring, ups...)
		if over := len(ring) - cfg.logCap; over > 0 {
			ringDropped = ring[over-1].Version
			ring = append(ring[:0:0], ring[over:]...)
		}
		return nil
	})
	if replayErr != nil {
		w.Close()
		return nil, replayErr
	}

	s := &Store{logCap: cfg.logCap, pins: make(map[uint64]int)}
	s.current.Store(&versioned{snap: snap, version: version})
	s.log = ring
	s.logDropped = ringDropped
	d := &durable{
		dir:             dir,
		wal:             w,
		syncPolicy:      cfg.walOpt.Sync,
		checkpointEvery: cfg.checkpointEvery,
		recovery: RecoveryStats{
			CheckpointVersion:         ckptVersion,
			ReplayedRecords:           records,
			ReplayedVersions:          mutations,
			RecoveredVersion:          version,
			CorruptCheckpointsSkipped: corruptSkipped,
		},
	}
	d.lastCheckpoint.Store(ckptVersion)
	s.dur = d
	if !hadCkpt {
		// Fresh directory: persist the seed so the directory alone can
		// reconstruct version 0 on the next boot.
		if err := s.checkpointNow(s.current.Load()); err != nil {
			w.Close()
			return nil, err
		}
	}
	return s, nil
}

// Close drains in-flight commits, marks the store closed — every later
// Update fails fast with ErrClosed instead of racing the teardown — and
// flushes and closes the durability layer. Idempotent. Taking writeMu
// first means a mutation that already entered its commit path finishes
// (and reaches the WAL) before the WAL is closed; a mutation arriving
// after gets the clean ErrClosed, never a torn append or a panic.
func (s *Store) Close() error {
	s.writeMu.Lock()
	already := s.closed.Swap(true)
	s.writeMu.Unlock()
	if already || s.dur == nil {
		return nil
	}
	// Drain in-flight checkpoints so their file writes don't race the
	// caller tearing the directory down: ckptWG covers background ones
	// (even one spawned but not yet running), and cycling ckptMu waits
	// out a synchronous Checkpoint()/CheckpointReader() caller that
	// passed its closed check before we set the flag. No new checkpoint
	// can start: checkpointNow re-checks closed under ckptMu.
	s.dur.ckptWG.Wait()
	s.dur.ckptMu.Lock()
	s.dur.ckptMu.Unlock() //nolint:staticcheck // empty critical section = barrier
	return s.dur.wal.Close()
}

// Checkpoint forces a graph checkpoint of the current version and trims
// WAL history it makes redundant. Synchronous: it returns once the
// checkpoint is durable. Refused with ErrClosed after Close — Close
// promises no further writes to the directory, and a late checkpoint
// would create files and trim segments under an operator tearing the
// directory down.
func (s *Store) Checkpoint() error {
	if s.dur == nil {
		return fmt.Errorf("store: not durable")
	}
	if s.closed.Load() {
		return fmt.Errorf("store: %w", ErrClosed)
	}
	return s.checkpointNow(s.current.Load())
}

// CheckpointVersion returns the version a checkpoint transfer would
// carry right now — the newest on-disk checkpoint's version for a
// durable store, the live version for an in-memory one — without
// materializing the stream. The cheap probe behind the conditional
// GET /checkpoint?if_newer_than= answer.
func (s *Store) CheckpointVersion() uint64 {
	if d := s.dur; d != nil {
		return d.lastCheckpoint.Load()
	}
	return s.current.Load().version
}

// walFeed assembles one replication-feed page from the write-ahead log:
// the path for a follower whose resume point has aged out of the
// bounded in-memory log. It reports whether the page is contiguous from
// since; false means the WAL cannot bridge the range (checkpoint
// trimming retired the needed segments, or the store is not durable)
// and the caller must fall back to the hard-gap signal. live is the
// published version captured before the scan: a WAL record past it may
// belong to a commit that is still in flight — or one whose fsync
// failed and is about to be rewound — so nothing beyond live is ever
// served (a version a follower applies must be one the leader
// published). Scan faults degrade to false, never to an error; the only
// error surfaced is the context's.
func (s *Store) walFeed(ctx context.Context, since uint64, max int, live uint64) (Feed, bool) {
	d := s.dur
	if d == nil || since >= live {
		return Feed{Since: since, Version: live}, false
	}
	f := Feed{Since: since, Version: live}
	next := since + 1
	err := d.wal.ReadFrom(since, func(seq uint64, payload []byte) (bool, error) {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		var ups []Update
		if json.Unmarshal(payload, &ups) != nil {
			return false, nil // unreadable batch: the contiguous prefix ends here
		}
		for _, u := range ups {
			if u.Version < next {
				continue // the batch started before the cut
			}
			if u.Version > next || u.Version > live {
				// A hole (a segment trimmed mid-scan) or a record appended
				// ahead of publication: the page ends here.
				return false, nil
			}
			if max > 0 && len(f.Updates) >= max {
				f.More = true
				return false, nil
			}
			f.Updates = append(f.Updates, u)
			next++
		}
		return next <= live, nil
	})
	if err != nil {
		return f, false // context canceled; LogFeedContext surfaces it
	}
	if len(f.Updates) == 0 || f.Updates[0].Version != since+1 {
		return f, false
	}
	return f, true
}

// CheckpointReader returns a stream of the newest checkpoint — the
// bootstrap-transfer primitive behind GET /checkpoint. The stream is
// the line-oriented graph serialization (graph.Read parses it) of the
// returned version; a follower Resets onto it and tails the feed from
// there. For a durable store the bytes come straight off the newest
// on-disk checkpoint file (its version is exactly the WAL trim floor,
// so checkpoint + feed is always contiguous); size is the exact byte
// count, or -1 when unknown. For an in-memory store the current
// snapshot is serialized on the spot. The caller must Close the reader.
func (s *Store) CheckpointReader() (rc io.ReadCloser, version uint64, size int64, err error) {
	d := s.dur
	if d == nil {
		cur := s.current.Load()
		var buf bytes.Buffer
		if _, err := graph.WriteView(&buf, cur.snap); err != nil {
			return nil, 0, 0, fmt.Errorf("store: checkpoint stream: %w", err)
		}
		return io.NopCloser(bytes.NewReader(buf.Bytes())), cur.version, int64(buf.Len()), nil
	}
	for attempt := 0; ; attempt++ {
		// Under ckptMu no concurrent checkpointer can retire the file
		// between the listing and the open; once the fd is held the file
		// may be unlinked freely (the stream keeps reading it).
		d.ckptMu.Lock()
		cs := listCheckpoints(d.dir)
		if len(cs) > 0 {
			f, oerr := os.Open(cs[0].path)
			if oerr == nil {
				size := int64(-1)
				if info, serr := f.Stat(); serr == nil {
					size = info.Size()
				}
				d.ckptMu.Unlock()
				return f, cs[0].version, size, nil
			}
			d.ckptMu.Unlock()
			if attempt > 0 {
				return nil, 0, 0, fmt.Errorf("store: checkpoint stream: %w", oerr)
			}
		} else {
			d.ckptMu.Unlock()
			if attempt > 0 {
				return nil, 0, 0, fmt.Errorf("store: no readable checkpoint")
			}
		}
		// No readable checkpoint (a fresh-directory write failed earlier,
		// or the file vanished under us): write one now and retry once.
		if cerr := s.Checkpoint(); cerr != nil {
			return nil, 0, 0, cerr
		}
	}
}

// appendBatch writes one committed batch to the WAL, durable per the
// sync policy, before the caller publishes it.
func (d *durable) appendBatch(version uint64, ups []Update) error {
	payload, err := json.Marshal(ups)
	if err != nil {
		return err
	}
	return d.wal.Append(version, payload)
}

// maybeCheckpointLocked launches a background checkpoint when the
// cadence says so. writeMu held (commit path) — the checkpoint writes
// an immutable snapshot on its own goroutine, adding no commit latency
// but taking CPU (see checkpointNow); at most one is in flight, and
// while one runs further cadence triggers are skipped (the next commit
// re-checks). Checkpoint failure never fails a commit — the batch is
// already durable in the WAL — it only bumps the error counter; replay
// just stays longer until a checkpoint succeeds.
func (s *Store) maybeCheckpointLocked(v *versioned) {
	d := s.dur
	if d.checkpointEvery == 0 || v.version-d.lastCheckpoint.Load() < d.checkpointEvery {
		return
	}
	if !d.inFlight.CompareAndSwap(false, true) {
		return
	}
	d.ckptWG.Add(1)
	go func() {
		defer d.ckptWG.Done()
		defer d.inFlight.Store(false)
		if err := s.checkpointNow(v); err != nil {
			d.checkpointErrs.Add(1)
		}
	}()
}

// checkpointNow writes v's graph atomically (temp file + rename),
// retires older checkpoints and trims covered WAL segments. v.snap is
// immutable, so no store lock is needed; ckptMu serializes concurrent
// checkpointers, and a version already covered by a newer checkpoint is
// skipped. It encodes only the blocks of v.snap that no checkpoint of
// an ancestor wrote, those the commits since touched, and copies the
// rest as they are: it costs those blocks plus writing and fsyncing the
// whole file.
func (s *Store) checkpointNow(v *versioned) error {
	start := time.Now()
	d := s.dur
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	// Re-checked under ckptMu — the lock Close cycles after setting the
	// flag — so a caller that passed an earlier closed check can never
	// create files or trim segments after Close returned.
	if s.closed.Load() {
		return fmt.Errorf("store: %w", ErrClosed)
	}
	if v.version < d.lastCheckpoint.Load() {
		return nil
	}
	final := filepath.Join(d.dir, fmt.Sprintf("%s%016x%s", checkpointPrefix, v.version, checkpointSuffix))
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	st, err := graph.WriteView(f, v.snap)
	d.checkpointBytes.Add(uint64(st.Bytes))
	d.checkpointEncoded.Add(uint64(st.Encoded))
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	wal.SyncDir(d.dir)
	// Retire superseded checkpoints and the WAL history below the new
	// one; failures here cost disk, not correctness.
	for _, c := range listCheckpoints(d.dir) {
		if c.version < v.version {
			os.Remove(c.path)
		}
	}
	d.wal.TrimThrough(v.version)
	d.lastCheckpoint.Store(v.version)
	d.checkpoints.Add(1)
	s.observeCheckpoint(start)
	return nil
}

// applyUpdate replays one logged mutation into a builder.
func applyUpdate(b *graph.Builder, u Update) error {
	switch u.Op {
	case OpAddNode:
		if id := b.AddNode(u.Name, u.Type); id != u.Node {
			return fmt.Errorf("replayed node id %d, log says %d", id, u.Node)
		}
		return nil
	case OpAddEdge:
		return b.AddEdge(u.Edge.From, u.Edge.Label, u.Edge.To)
	case OpRemoveEdge:
		if !b.RemoveEdge(u.Edge.From, u.Edge.Label, u.Edge.To) {
			return fmt.Errorf("replayed remove of absent edge (%d,%q,%d)", u.Edge.From, u.Edge.Label, u.Edge.To)
		}
		return nil
	}
	return fmt.Errorf("unknown op %q", u.Op)
}

type checkpointFile struct {
	version uint64
	path    string
}

// listCheckpoints returns dir's checkpoint files sorted newest first.
func listCheckpoints(dir string) []checkpointFile {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var cs []checkpointFile
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, checkpointPrefix) || !strings.HasSuffix(name, checkpointSuffix) {
			continue
		}
		v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, checkpointPrefix), checkpointSuffix), 16, 64)
		if err != nil {
			continue
		}
		cs = append(cs, checkpointFile{version: v, path: filepath.Join(dir, name)})
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].version > cs[j].version })
	return cs
}

// loadCheckpoint loads the newest readable checkpoint, skipping
// corrupt ones in favor of older good ones. No checkpoint at all is a
// fresh directory, not an error; checkpoints present but all unreadable
// is an error (silently restarting from scratch would shadow committed
// history).
func loadCheckpoint(dir string) (g *graph.Graph, version uint64, ok bool, corruptSkipped int, err error) {
	cs := listCheckpoints(dir)
	if len(cs) == 0 {
		return nil, 0, false, 0, nil
	}
	for _, c := range cs {
		f, ferr := os.Open(c.path)
		if ferr != nil {
			corruptSkipped++
			continue
		}
		g, gerr := graph.Read(f)
		f.Close()
		if gerr != nil {
			corruptSkipped++
			continue
		}
		return g, c.version, true, corruptSkipped, nil
	}
	return nil, 0, false, corruptSkipped, fmt.Errorf("store: all %d checkpoints in %s are unreadable", len(cs), dir)
}
