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
//
// A checkpoint is a manifest over an append-only block log. The graph's
// checkpoint text is a sequence of blocks (graph.Snapshot.Blocks), each
// shared by every version that shares its rows; the log holds each
// block's text once, and a checkpoint appends only the blocks the log
// does not hold yet, then writes a small manifest naming the log and
// the extents whose concatenation is the graph, with its size and
// CRC-32C. That CRC is folded from per-block CRCs the store keeps with
// the extents, each computed once as its block is appended (crc.go),
// so a checkpoint checksums only the bytes it appends. A new log
// generation, written whole, starts at the first checkpoint after
// Open, after a failed one, and when appending would leave the log over
// logGrowth times the graph's bytes; the older generation goes once a
// manifest over the new one is durable. So a log holds at most
// logGrowth times the graph's bytes as of its last checkpoint, and the
// directory one more generation, the graph's size, while a new one is
// being written. Recovery still reads a checkpoint file written whole
// (checkpointSuffix), as stores before the block log wrote them.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
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
	checkpointSuffix = ".ckpt"     // a checkpoint written whole
	manifestSuffix   = ".manifest" // a checkpoint over the block log
	logPrefix        = "blocks-"
	logSuffix        = ".log"

	// logGrowth bounds the block log: a checkpoint that would leave it
	// over logGrowth times the live bytes starts a new generation.
	logGrowth = 4

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
	checkpointBytes   atomic.Uint64 // bytes checkpoints appended to the block log
	checkpointEncoded atomic.Uint64 // bytes of blocks they encoded afresh

	// The block log, under ckptMu. log is the current generation's file,
	// open for appends, and nil when the next checkpoint must start a
	// generation; logEnd is its length. extents locates in it every
	// block the newest checkpoint references, and only those. newest is
	// the newest checkpoint on disk, which CheckpointReader streams.
	log     *os.File
	logEnd  int64
	nextGen uint64
	extents map[*graph.BlockID]extent
	newest  *manifest

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
	base, newest, corruptSkipped, err := loadCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	var ckptVersion uint64
	if newest != nil {
		ckptVersion = newest.Version
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
		nextGen:         lastLogGen(dir) + 1,
		newest:          newest,
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
	if newest == nil {
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
	s.dur.dropLog()
	s.dur.ckptMu.Unlock()
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
// there. For a durable store the bytes come straight off disk, the
// newest checkpoint's extents of the block log read through one held
// file descriptor (its version is exactly the WAL trim floor, so
// checkpoint + feed is always contiguous); size is the exact byte
// count. For an in-memory store the current snapshot is serialized on
// the spot. The caller must Close the reader.
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
		// Under ckptMu no concurrent checkpointer can retire the log
		// between reading newest and the open; once the fd is held the
		// file may be unlinked freely (the stream keeps reading it), and
		// appends past the extents change nothing it reads.
		d.ckptMu.Lock()
		m := d.newest
		var oerr error
		if m != nil {
			var f *os.File
			if f, oerr = os.Open(filepath.Join(d.dir, m.Log)); oerr == nil {
				d.ckptMu.Unlock()
				return m.reader(f), m.Version, m.Size, nil
			}
		}
		d.ckptMu.Unlock()
		if attempt > 0 {
			if oerr != nil {
				return nil, 0, 0, fmt.Errorf("store: checkpoint stream: %w", oerr)
			}
			return nil, 0, 0, fmt.Errorf("store: no readable checkpoint")
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

// checkpointNow makes v's graph the newest checkpoint: it appends to
// the block log the blocks of v.snap the log does not hold (all of them
// when a new generation starts, see logGrowth), fsyncs
// the log, and writes the manifest atomically (temp file + fsync +
// rename + directory sync). Only then does it retire older manifests
// and logs and trim covered WAL segments. v.snap is immutable, so no
// store lock is needed; ckptMu serializes concurrent checkpointers, and
// a version already covered by a newer checkpoint is skipped. It
// encodes only the blocks no checkpoint of an ancestor wrote, and costs
// those blocks and their CRCs, a 32-step GF(2) multiply for each block
// the log holds already, and a manifest. On disk,
// the log it leaves holds at most logGrowth times the graph's bytes;
// while a new generation is written, the old one (as large) is kept
// until the manifest over the new one is durable.
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
	m, err := d.writeCheckpoint(v)
	if err != nil {
		// What reached the log is unknown: start the next generation
		// afresh. The manifest on disk still reads.
		d.dropLog()
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	d.newest = m
	// Retire superseded checkpoints, stray temp files and older logs,
	// and the WAL history below the new checkpoint; failures here cost
	// disk, not correctness.
	if ents, err := os.ReadDir(d.dir); err == nil {
		for _, e := range ents {
			name := e.Name()
			if name != manifestName(m.Version) && name != m.Log && (strings.HasPrefix(name, checkpointPrefix) || strings.HasPrefix(name, logPrefix)) {
				os.Remove(filepath.Join(d.dir, name))
			}
		}
	}
	d.wal.TrimThrough(v.version)
	d.lastCheckpoint.Store(v.version)
	d.checkpoints.Add(1)
	s.observeCheckpoint(start)
	return nil
}

// extent is a block's place in the log, length bytes from offset, with
// the block's CRC-32C and its crcShift, both computed once, when the
// block is appended.
type extent struct {
	offset, length int64
	crc, shift     uint32
}

// manifest is one checkpoint: the graph at Version is the concatenation
// of the extents of the file Log, each an [offset, length] pair, Size
// bytes in all with CRC-32C CRC, the CRC of the whole text as recovery
// reads it back, though writeCheckpoint folds it from the blocks'. A
// checkpoint written whole is read as one extent of its own file, and
// carries no CRC.
type manifest struct {
	Version uint64     `json:"version"`
	Log     string     `json:"log"`
	Size    int64      `json:"size"`
	CRC     uint32     `json:"crc32c"`
	Extents [][2]int64 `json:"extents"`
}

// add appends e to m's extents, merging it into the last when it
// continues it in the log.
func (m *manifest) add(e extent) {
	m.Size += e.length
	if n := len(m.Extents); n > 0 && m.Extents[n-1][0]+m.Extents[n-1][1] == e.offset {
		m.Extents[n-1][1] += e.length
		return
	}
	m.Extents = append(m.Extents, [2]int64{e.offset, e.length})
}

// reader streams m's bytes from f, its log, and closes f on Close.
func (m *manifest) reader(f *os.File) io.ReadCloser {
	parts := make([]io.Reader, len(m.Extents))
	for i, e := range m.Extents {
		parts[i] = io.NewSectionReader(f, e[0], e[1])
	}
	return struct {
		io.Reader
		io.Closer
	}{io.MultiReader(parts...), f}
}

// writeCheckpoint appends v.snap's missing blocks to the log, starting
// a generation if none is open or the log would outgrow logGrowth times
// the live bytes, and writes v's manifest. The manifest's CRC is
// crcCombine folded over the blocks' extents, so only an appended
// block's bytes are checksummed. ckptMu held.
func (d *durable) writeCheckpoint(v *versioned) (*manifest, error) {
	type part struct {
		id    *graph.BlockID
		text  []byte
		at    extent
		fresh bool
	}
	var parts []part
	var live, fresh int64
	for blk := range v.snap.Blocks() {
		text, encoded := blk.Text()
		if encoded {
			d.checkpointEncoded.Add(uint64(len(text)))
		}
		at, held := d.extents[blk.ID]
		parts = append(parts, part{id: blk.ID, text: text, at: at, fresh: !held})
		live += int64(len(text))
		if !held {
			fresh += int64(len(text))
		}
	}
	if d.log != nil && d.logEnd+fresh > logGrowth*live {
		d.dropLog()
	}
	if d.log == nil {
		if err := d.startLog(); err != nil {
			return nil, err
		}
		for i := range parts {
			parts[i].fresh = true
		}
	}
	m := &manifest{Version: v.version, Log: filepath.Base(d.log.Name())}
	extents := make(map[*graph.BlockID]extent, len(parts))
	end := d.logEnd
	var crc uint32
	for _, p := range parts {
		if p.fresh {
			if _, err := d.log.Write(p.text); err != nil {
				return nil, err
			}
			p.at = extent{end, int64(len(p.text)), crc32.Checksum(p.text, castagnoli), crcShift(int64(len(p.text)))}
			end += p.at.length
		}
		extents[p.id] = p.at
		m.add(p.at)
		crc = crcCombine(crc, p.at.crc, p.at.shift)
	}
	m.CRC = crc
	if err := d.log.Sync(); err != nil {
		return nil, err
	}
	d.checkpointBytes.Add(uint64(end - d.logEnd))
	d.logEnd = end
	if err := writeManifest(d.dir, m); err != nil {
		return nil, err
	}
	d.extents = extents
	return m, nil
}

// startLog opens a new, empty generation of the block log. ckptMu held.
func (d *durable) startLog() error {
	f, err := os.OpenFile(filepath.Join(d.dir, fmt.Sprintf("%s%016x%s", logPrefix, d.nextGen, logSuffix)), os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	d.nextGen++
	wal.SyncDir(d.dir)
	d.log, d.logEnd, d.extents = f, 0, nil
	return nil
}

// dropLog closes the current generation of the block log, so the next
// checkpoint starts one. ckptMu held.
func (d *durable) dropLog() {
	if d.log != nil {
		d.log.Close()
	}
	d.log, d.logEnd, d.extents = nil, 0, nil
}

func manifestName(version uint64) string {
	return fmt.Sprintf("%s%016x%s", checkpointPrefix, version, manifestSuffix)
}

// writeManifest writes m atomically: a temp file, fsynced, renamed over
// its name, and the directory synced.
func writeManifest(dir string, m *manifest) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	final := filepath.Join(dir, manifestName(m.Version))
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	wal.SyncDir(dir)
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

// listCheckpoints returns dir's checkpoints, manifests and files written
// whole, sorted newest first; at one version a manifest comes first.
func listCheckpoints(dir string) []checkpointFile {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var cs []checkpointFile
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, checkpointPrefix) {
			continue
		}
		hex, ok := strings.CutSuffix(name[len(checkpointPrefix):], manifestSuffix)
		if !ok {
			if hex, ok = strings.CutSuffix(name[len(checkpointPrefix):], checkpointSuffix); !ok {
				continue
			}
		}
		v, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			continue
		}
		cs = append(cs, checkpointFile{version: v, path: filepath.Join(dir, name)})
	}
	sort.SliceStable(cs, func(i, j int) bool {
		if cs[i].version != cs[j].version {
			return cs[i].version > cs[j].version
		}
		return strings.HasSuffix(cs[i].path, manifestSuffix) && !strings.HasSuffix(cs[j].path, manifestSuffix)
	})
	return cs
}

// lastLogGen returns the newest block log generation in dir, 0 if none.
func lastLogGen(dir string) uint64 {
	var last uint64
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		hex, ok := strings.CutPrefix(e.Name(), logPrefix)
		if hex, ok2 := strings.CutSuffix(hex, logSuffix); ok && ok2 {
			if gen, err := strconv.ParseUint(hex, 16, 64); err == nil {
				last = max(last, gen)
			}
		}
	}
	return last
}

// loadCheckpoint loads the newest readable checkpoint, skipping
// corrupt ones in favor of older good ones, and returns it with its
// manifest. No checkpoint at all is a fresh directory, not an error;
// checkpoints present but all unreadable is an error (silently
// restarting from scratch would shadow committed history).
func loadCheckpoint(dir string) (g *graph.Graph, m *manifest, corruptSkipped int, err error) {
	cs := listCheckpoints(dir)
	if len(cs) == 0 {
		return nil, nil, 0, nil
	}
	for _, c := range cs {
		g, m, err := readCheckpoint(dir, c)
		if err != nil {
			corruptSkipped++
			continue
		}
		return g, m, corruptSkipped, nil
	}
	return nil, nil, corruptSkipped, fmt.Errorf("store: all %d checkpoints in %s are unreadable", len(cs), dir)
}

// readCheckpoint reads one checkpoint: a manifest's extents of its log,
// whose size and CRC must match, or a file written whole.
func readCheckpoint(dir string, c checkpointFile) (*graph.Graph, *manifest, error) {
	m := &manifest{Version: c.version, Log: filepath.Base(c.path)}
	isManifest := strings.HasSuffix(c.path, manifestSuffix)
	if isManifest {
		b, err := os.ReadFile(c.path)
		if err != nil {
			return nil, nil, err
		}
		if err := json.Unmarshal(b, m); err != nil {
			return nil, nil, err
		}
		if m.Version != c.version || filepath.Base(m.Log) != m.Log {
			return nil, nil, fmt.Errorf("manifest %s names version %d, log %q", c.path, m.Version, m.Log)
		}
	}
	f, err := os.Open(filepath.Join(dir, m.Log))
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	if !isManifest {
		m.Size, m.Extents = info.Size(), [][2]int64{{0, info.Size()}}
	}
	var total int64
	for _, e := range m.Extents {
		if e[0] < 0 || e[1] < 0 || e[0]+e[1] > info.Size() {
			return nil, nil, fmt.Errorf("manifest %s: extent %v past the log's %d bytes", c.path, e, info.Size())
		}
		total += e[1]
	}
	if total != m.Size {
		return nil, nil, fmt.Errorf("manifest %s: extents hold %d bytes, want %d", c.path, total, m.Size)
	}
	crc := crc32.New(castagnoli)
	g, err := graph.Read(io.TeeReader(m.reader(f), crc))
	if err != nil {
		return nil, nil, err
	}
	if isManifest && crc.Sum32() != m.CRC {
		return nil, nil, fmt.Errorf("manifest %s: CRC-32C %08x, want %08x", c.path, crc.Sum32(), m.CRC)
	}
	return g, m, nil
}
