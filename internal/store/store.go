// Package store is a multi-version concurrency-control (MVCC) graph
// store. The current version is an immutable graph.Snapshot behind an
// atomic pointer: Snapshot() costs one atomic load — readers never take
// a lock and are never blocked by writers. Write transactions build the
// next version copy-on-write through a graph.Builder (only the 256-row
// chunks of adjacency holding a touched row are rebuilt, under copied
// directories; node additions extend the node table in place) and
// publish it atomically; a transaction whose callback fails
// publishes nothing, so batches are all-or-nothing.
//
// Version numbers are monotonic and bump once per mutation; a batch of
// k mutations moves the store forward k versions in one publish. The
// bounded update log records every committed mutation with the version
// it produced, and a registered pre-publication hook (BeforePublish)
// sees each commit before readers do — internal/server uses it to move
// the evaluator's versioned commuting-matrix cache to the new version.
//
// Readers that want their version accounted for in monitoring pin it:
// Pin() registers the version until Release, and PinStats reports the
// live version and the spread of pinned versions, which is the lag a
// slow reader imposes on memory (old snapshots stay reachable while
// pinned).
package store

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"relsim/internal/graph"
)

// ErrClosed marks a mutation refused because the store has been closed
// (graceful shutdown already ran). It is a clean, expected condition —
// the server maps it to 503 — unlike ErrDurability, which is a storage
// fault on a live store. Test with errors.Is.
var ErrClosed = errors.New("store is closed")

// Op discriminates update-log records.
type Op string

// The mutation kinds recorded in the update log.
const (
	OpAddNode    Op = "add-node"
	OpAddEdge    Op = "add-edge"
	OpRemoveEdge Op = "remove-edge"
)

// Update is one record of the update log: the mutation and the version
// the store reached by applying it. Records are self-contained — an
// add-node record carries the display name and type — so replaying a
// log (crash recovery, a catching-up follower) reconstructs the graph
// exactly, metadata included.
type Update struct {
	Version uint64       `json:"version"`
	Op      Op           `json:"op"`
	Node    graph.NodeID `json:"node"`           // OpAddNode
	Name    string       `json:"name,omitempty"` // OpAddNode
	Type    string       `json:"type,omitempty"` // OpAddNode
	Edge    graph.Edge   `json:"edge"`           // edge ops
}

// DefaultLogCap bounds the retained update log. Older records are
// dropped; the version counter itself is never reset.
const DefaultLogCap = 256

// versioned pairs a snapshot with the version it represents; it is the
// unit published through the atomic pointer.
type versioned struct {
	snap    *graph.Snapshot
	version uint64
}

// Store is an MVCC graph store safe for concurrent use.
type Store struct {
	current atomic.Pointer[versioned]

	// writeMu serializes writers (version chain is single-writer);
	// readers never touch it.
	writeMu       sync.Mutex
	beforePublish func(Commit)

	// mu guards the update log and the pin registry.
	mu     sync.Mutex
	log    []Update
	logCap int
	// logDropped is the highest version ever dropped from the bounded
	// log — the gap-detection watermark for the replication feed: a
	// follower asking for records since < logDropped has missed some and
	// must resynchronize from a checkpoint.
	logDropped uint64
	pins       map[uint64]int

	// dur is the durability layer (write-ahead log + checkpoints); nil
	// for a purely in-memory store built with New.
	dur *durable

	// closed is set by Close under writeMu: every later write
	// transaction fails fast with ErrClosed instead of racing the WAL
	// teardown into a 500 or a panic.
	closed atomic.Bool

	// obs is the telemetry sink (commit latency, checkpoint duration);
	// nil until Instrument installs it. Atomic so instrumentation can
	// land on a store that is already serving.
	obs atomic.Pointer[storeObs]
}

// New wraps g in a store at version 0: it publishes g.Snapshot(). The
// caller may keep writing to g; those writes go to a builder over the
// store's snapshot and never reach the store.
func New(g *graph.Graph) *Store {
	if g == nil {
		g = graph.New()
	}
	s := &Store{logCap: DefaultLogCap, pins: make(map[uint64]int)}
	s.current.Store(&versioned{snap: g.Snapshot(), version: 0})
	return s
}

// Commit is one commit as the pre-publication hook sees it: the
// version it moves from and the one it publishes, that version's
// snapshot, and the batch. Updates is nil for a Reset, which replaces
// the whole graph: everything is touched.
type Commit struct {
	From, To uint64
	Snap     *graph.Snapshot
	Updates  []Update
}

// BeforePublish registers fn to run in every commit and Reset after
// everything that can fail has succeeded (the batch, the WAL append, a
// Reset's checkpoint) and before the new snapshot is published, under
// the writer lock. So fn sees commits in order exactly once, while
// Snapshot still returns c.From, and whatever fn prepares for c.To is
// visible to the first reader of c.To. Nothing that can fail runs
// after fn: c.To is always published once fn returns. fn must not call
// Update or Reset (writer re-entry deadlocks). Only one hook is
// supported; a second call replaces it.
func (s *Store) BeforePublish(fn func(c Commit)) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.beforePublish = fn
}

// Snapshot returns the current immutable snapshot and its version with
// a single atomic load — the zero-lock read path. The snapshot stays
// consistent forever; hold it as long as needed.
func (s *Store) Snapshot() (*graph.Snapshot, uint64) {
	cur := s.current.Load()
	return cur.snap, cur.version
}

// Version returns the current store version: the number of mutations
// ever committed. It starts at 0 and bumps by one per mutation.
func (s *Store) Version() uint64 { return s.current.Load().version }

// Read runs fn against the current snapshot. It is sugar over
// Snapshot(): no lock is held, fn may run as long as it likes without
// blocking writers, and the snapshot may be retained past the call.
func (s *Store) Read(fn func(snap *graph.Snapshot, version uint64) error) error {
	snap, v := s.Snapshot()
	return fn(snap, v)
}

// Pin pins the current version for monitoring: the returned Pin's
// snapshot is the reader's consistent view, and the version counts
// toward PinStats until Release. Release is idempotent. The load and
// the registration happen under the same mutex commits publish under,
// so a pin holds either a version a commit replaces, registered before
// the commit publishes, or the version it publishes.
func (s *Store) Pin() *Pin {
	s.mu.Lock()
	cur := s.current.Load()
	s.pins[cur.version]++
	s.mu.Unlock()
	return &Pin{owner: s, snap: cur.snap, version: cur.version}
}

// unpin deregisters one reader of version (Pin.Release).
func (s *Store) unpin(version uint64) {
	s.mu.Lock()
	if n := s.pins[version]; n <= 1 {
		delete(s.pins, version)
	} else {
		s.pins[version] = n - 1
	}
	s.mu.Unlock()
}

// Pin is a pinned snapshot: one reader's consistent view of one
// version.
type Pin struct {
	owner    *Store
	snap     *graph.Snapshot
	version  uint64
	released atomic.Bool
}

// Snapshot returns the pinned snapshot.
func (p *Pin) Snapshot() *graph.Snapshot { return p.snap }

// Version returns the pinned version.
func (p *Pin) Version() uint64 { return p.version }

// Release unpins. Idempotent; safe to defer.
func (p *Pin) Release() {
	if p.released.Swap(true) {
		return
	}
	p.owner.unpin(p.version)
}

// PinStats reports the live version and the currently pinned versions
// (ascending, with reader counts). Spread is live − oldest pinned: how
// far the slowest pinned reader trails the writers.
type PinStats struct {
	Live    uint64   `json:"live_version"`
	Pinned  []uint64 `json:"pinned_versions,omitempty"`
	Readers int      `json:"pinned_readers"`
	Spread  uint64   `json:"version_spread"`
}

// PinStats returns a point-in-time pin summary.
func (s *Store) PinStats() PinStats {
	live := s.Version()
	s.mu.Lock()
	ps := PinStats{Live: live}
	for v, n := range s.pins {
		ps.Pinned = append(ps.Pinned, v)
		ps.Readers += n
	}
	s.mu.Unlock()
	sort.Slice(ps.Pinned, func(i, j int) bool { return ps.Pinned[i] < ps.Pinned[j] })
	if len(ps.Pinned) > 0 && ps.Pinned[0] < live {
		ps.Spread = live - ps.Pinned[0]
	}
	return ps
}

// Log returns the retained update records with version > since, oldest
// first. Records older than the retention bound are gone; a caller that
// finds a gap (first returned version > since+1) must resynchronize.
func (s *Store) Log(since uint64) []Update {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Update
	for _, u := range s.log {
		if u.Version > since {
			out = append(out, u)
		}
	}
	return out
}

// Feed is one page of the replication feed (GET /log): the committed
// updates with version > Since, oldest first, bounded by the caller's
// page size. Gap reports that records in (Since, DroppedThrough] have
// aged out of the bounded log — the follower's view cannot be made
// contiguous from this feed and it must resynchronize (re-bootstrap
// from a snapshot or checkpoint) before resuming.
type Feed struct {
	Since uint64 `json:"since"`
	// Version is the store's live version at feed time. A follower is
	// caught up when the last delivered update reaches it.
	Version uint64 `json:"version"`
	Gap     bool   `json:"gap"`
	// DroppedThrough is the highest version evicted from the bounded
	// log; 0 when nothing has been dropped.
	DroppedThrough uint64 `json:"dropped_through"`
	// More reports that the page bound truncated the answer: call again
	// with since = the last delivered version.
	More    bool     `json:"more"`
	Updates []Update `json:"updates"`
}

// LogFeed assembles one replication-feed page: up to max records with
// version > since (max <= 0 means unbounded), plus the gap signal. The
// page is cut at batch granularity only in the sense that updates are
// versioned individually; a follower resumes from the last version it
// received.
func (s *Store) LogFeed(since uint64, max int) Feed {
	f, _ := s.LogFeedContext(context.Background(), since, max)
	return f
}

// LogFeedContext is LogFeed honoring a deadline. A page the in-memory
// bounded log can serve contiguously comes from memory; when since has
// aged out of it (since < logDropped) and the store is durable, the
// page is read back from the WAL instead — so a follower that was
// partitioned longer than the in-memory retention catches up from disk
// rather than re-bootstrapping, as long as checkpoint trimming has not
// retired the segments it needs. Only when the WAL cannot bridge the
// range contiguously does the feed report a (now hard) gap. The
// returned error is only ever the context's: WAL read faults degrade to
// the gap signal, never to a failed page.
func (s *Store) LogFeedContext(ctx context.Context, since uint64, max int) (Feed, error) {
	if err := ctx.Err(); err != nil {
		return Feed{Since: since}, err
	}
	mem, ok := s.memFeed(since, max)
	if ok {
		return mem, nil
	}
	// The in-memory log has dropped records the page needs; read them
	// back from the WAL. No store lock is held during the file scan, so
	// a slow disk page never blocks commits.
	live := s.Version()
	if f, ok := s.walFeed(ctx, since, max, live); ok {
		return f, nil
	} else if err := ctx.Err(); err != nil {
		return f, err
	}
	// The WAL could not bridge (since+1 trimmed by a checkpoint, or no
	// durability layer at all): hard gap. Serve the already-built
	// retained-tail page with its gap signal, exactly like the
	// pre-WAL-backed feed.
	return mem, nil
}

// memFeed builds a feed page from the bounded in-memory log, reporting
// whether the page is contiguous from since (no gap). The version is
// read inside the critical section commits publish under, so the
// reported version is never older than the page's last update (the
// follower's caught-up check relies on that ordering).
func (s *Store) memFeed(since uint64, max int) (Feed, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	live := s.current.Load().version
	f := Feed{Since: since, Version: live, DroppedThrough: s.logDropped, Gap: since < s.logDropped}
	for _, u := range s.log {
		if u.Version <= since {
			continue
		}
		if max > 0 && len(f.Updates) >= max {
			f.More = true
			break
		}
		f.Updates = append(f.Updates, u)
	}
	return f, !f.Gap
}

// SetLogRetention bounds the in-memory update log to n records,
// trimming immediately. The version counter and the WAL are unaffected;
// only the replication feed's reach shrinks. n <= 0 resets to
// DefaultLogCap.
func (s *Store) SetLogRetention(n int) {
	if n <= 0 {
		n = DefaultLogCap
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.logCap = n
	s.trimLogLocked()
}

// Stats summarizes the store for monitoring.
type Stats struct {
	Version uint64   `json:"version"`
	Nodes   int      `json:"nodes"`
	Edges   int      `json:"edges"`
	Labels  []string `json:"labels"`
}

// Stats returns a consistent snapshot of version and graph size.
func (s *Store) Stats() Stats {
	snap, v := s.Snapshot()
	return Stats{Version: v, Nodes: snap.NumNodes(), Edges: snap.NumEdges(), Labels: snap.Labels()}
}

// Tx is a write transaction: a batch of mutations built copy-on-write
// against the version current at transaction start, committed
// atomically (all-or-nothing). Obtain one via Update.
type Tx struct {
	b       *graph.Builder
	base    uint64
	updates []Update
}

// Has reports whether id is a node, seeing the transaction's own
// additions (read-your-writes).
func (tx *Tx) Has(id graph.NodeID) bool { return tx.b.Has(id) }

// NodeByName resolves a display name, seeing the transaction's own
// additions.
func (tx *Tx) NodeByName(name string) (graph.Node, bool) { return tx.b.NodeByName(name) }

// AddNode adds a node and returns its id.
func (tx *Tx) AddNode(name, typ string) graph.NodeID {
	id := tx.b.AddNode(name, typ)
	tx.record(Update{Op: OpAddNode, Node: id, Name: name, Type: typ})
	return id
}

// AddEdge adds the edge (u, label, v), validating endpoints and label.
func (tx *Tx) AddEdge(u graph.NodeID, label string, v graph.NodeID) error {
	if err := tx.b.AddEdge(u, label, v); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tx.record(Update{Op: OpAddEdge, Edge: graph.Edge{From: u, Label: label, To: v}})
	return nil
}

// RemoveEdge removes one (u, label, v) edge.
func (tx *Tx) RemoveEdge(u graph.NodeID, label string, v graph.NodeID) error {
	if !tx.b.RemoveEdge(u, label, v) {
		return fmt.Errorf("store: remove edge (%d,%q,%d): no such edge", u, label, v)
	}
	tx.record(Update{Op: OpRemoveEdge, Edge: graph.Edge{From: u, Label: label, To: v}})
	return nil
}

// Apply replays one logged update into the transaction — the single
// op-dispatch shared by every feed consumer (a follower applying a
// replication page uses it verbatim). Node ids must land exactly where
// the log says (ids are dense and assigned in order, so same-order
// replay is deterministic); version continuity across updates is the
// caller's check, since only the caller knows what stream it is
// applying.
func (tx *Tx) Apply(u Update) error {
	switch u.Op {
	case OpAddNode:
		if id := tx.AddNode(u.Name, u.Type); id != u.Node {
			return fmt.Errorf("store: applied node id %d, log says %d", id, u.Node)
		}
		return nil
	case OpAddEdge:
		return tx.AddEdge(u.Edge.From, u.Edge.Label, u.Edge.To)
	case OpRemoveEdge:
		return tx.RemoveEdge(u.Edge.From, u.Edge.Label, u.Edge.To)
	}
	return fmt.Errorf("store: unknown op %q", u.Op)
}

// Version returns the version the transaction commits at: the base
// version plus the mutations recorded so far. If the transaction's
// callback returns an error nothing commits and the store stays at the
// base version.
func (tx *Tx) Version() uint64 { return tx.base + uint64(len(tx.updates)) }

func (tx *Tx) record(u Update) {
	u.Version = tx.base + uint64(len(tx.updates)) + 1
	tx.updates = append(tx.updates, u)
}

// Update runs fn as a write transaction. Mutations accumulate in a
// copy-on-write builder; if fn returns nil the batch is appended to the
// write-ahead log (when the store is durable), the BeforePublish hook
// runs, then the next snapshot is published atomically and the update
// log grows by the batch. If fn returns an error — or the WAL
// append fails — NOTHING is published: the batch rolls back wholesale
// and readers never see partial state. The append happens strictly
// before publication, so a version a reader can observe is always
// already on disk (as durable as the fsync policy promises). Writers
// are serialized; readers are never blocked.
func (s *Store) Update(fn func(tx *Tx) error) error {
	start := time.Now()
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	// Checked under writeMu, the same lock Close sets it under: a
	// mutation either fully commits before Close proceeds or fails fast
	// here — it can never race the WAL teardown into a torn append.
	if s.closed.Load() {
		return fmt.Errorf("store: %w", ErrClosed)
	}
	cur := s.current.Load()
	b := graph.NewBuilder(cur.snap)
	tx := &Tx{b: b, base: cur.version}
	if err := fn(tx); err != nil {
		return err
	}
	if len(tx.updates) == 0 {
		return nil
	}
	next := &versioned{snap: b.Build(), version: cur.version + uint64(len(tx.updates))}
	if s.dur != nil {
		if err := s.dur.appendBatch(next.version, tx.updates); err != nil {
			// Nothing published: the batch rolls back, and any torn bytes
			// the failed append left behind are exactly what recovery cuts.
			// ErrDurability lets callers distinguish this server-side fault
			// (disk full, I/O error) from a validation error fn returned.
			return fmt.Errorf("store: wal append (batch rolled back): %w: %w", ErrDurability, err)
		}
	}
	s.runBeforePublish(Commit{From: cur.version, To: next.version, Snap: next.snap, Updates: tx.updates})
	// Publish under s.mu (alongside the log append) so Pin's
	// load-and-register is atomic with respect to commits: after this
	// critical section, any reader pinning the old version is already
	// registered, and any new Pin sees the new version. Lock-free
	// Snapshot()/Version() readers are unaffected — the pointer store
	// is still atomic.
	s.mu.Lock()
	s.current.Store(next)
	s.log = append(s.log, tx.updates...)
	s.trimLogLocked()
	s.mu.Unlock()
	// Observed before the (asynchronous) checkpoint cadence check: commit
	// latency is what the caller waited, writeMu wait included.
	s.observeCommit(start)
	if s.dur != nil {
		s.maybeCheckpointLocked(next)
	}
	return nil
}

// runBeforePublish runs the BeforePublish hook, if any. writeMu held.
func (s *Store) runBeforePublish(c Commit) {
	if s.beforePublish != nil {
		s.beforePublish(c)
	}
}

// trimLogLocked enforces the bounded-log retention and advances the
// gap-detection watermark past every dropped record. s.mu held. The
// dropped records are sliced off the front, not the kept ones copied:
// append moves the kept ones once it runs out of room, so a full log
// costs a commit one record moved on average, not the whole log. Log
// and memFeed copy the records they return, so nothing aliases the
// backing array.
func (s *Store) trimLogLocked() {
	if over := len(s.log) - s.logCap; over > 0 {
		s.logDropped = s.log[over-1].Version
		clear(s.log[:over]) // the strings they hold go with them
		s.log = s.log[over:]
	}
}

// Reset replaces the store's entire state with snap at version — the
// follower-bootstrap primitive. A replica that finds a gap in the
// leader's feed fetches a checkpoint and Resets onto it, then resumes
// tailing from version. The version may only move forward (equal is
// allowed: re-bootstrapping onto the version already held is a no-op
// graph-wise on a same-lineage leader). The in-memory update log is
// cleared and the gap watermark set to version — records at or below it
// were never applied here and must not be served contiguously. On a
// durable store the new state is checkpointed before it is published
// (the same durability-before-visibility discipline commits follow), so
// a restart recovers the bootstrapped state, not the pre-gap one.
// The BeforePublish hook runs with no updates: everything is touched,
// since the new graph may differ anywhere, even at an equal version.
func (s *Store) Reset(snap *graph.Snapshot, version uint64) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.closed.Load() {
		return fmt.Errorf("store: %w", ErrClosed)
	}
	cur := s.current.Load()
	if version < cur.version {
		return fmt.Errorf("store: reset to version %d would move backwards (live %d)", version, cur.version)
	}
	next := &versioned{snap: snap, version: version}
	if s.dur != nil {
		if err := s.checkpointNow(next); err != nil {
			return err
		}
	}
	s.runBeforePublish(Commit{From: cur.version, To: version, Snap: next.snap})
	s.mu.Lock()
	s.current.Store(next)
	s.log = nil
	s.logDropped = version
	s.mu.Unlock()
	return nil
}

// AddNode adds a single node outside a batch.
func (s *Store) AddNode(name, typ string) graph.NodeID {
	var id graph.NodeID
	s.Update(func(tx *Tx) error {
		id = tx.AddNode(name, typ)
		return nil
	})
	return id
}

// AddEdge adds a single edge outside a batch.
func (s *Store) AddEdge(u graph.NodeID, label string, v graph.NodeID) error {
	return s.Update(func(tx *Tx) error { return tx.AddEdge(u, label, v) })
}

// RemoveEdge removes a single edge outside a batch.
func (s *Store) RemoveEdge(u graph.NodeID, label string, v graph.NodeID) error {
	return s.Update(func(tx *Tx) error { return tx.RemoveEdge(u, label, v) })
}
