package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"relsim/internal/graph"
	"relsim/internal/wal"
)

func seedGraph() *graph.Graph {
	g := graph.New()
	a := g.AddNode("a", "t")
	b := g.AddNode("b", "t")
	g.AddEdge(a, "x", b)
	return g
}

// sameDatabase reports whether a and b hold the same nodes and the same
// edge multiset.
func sameDatabase(a, b *graph.Snapshot) bool {
	if a.NumNodes() != b.NumNodes() || !slices.Equal(a.Labels(), b.Labels()) {
		return false
	}
	for id := graph.NodeID(0); int(id) < a.NumNodes(); id++ {
		if a.Node(id) != b.Node(id) {
			return false
		}
	}
	for _, l := range a.Labels() {
		if !a.Adjacency(l).Equal(b.Adjacency(l)) {
			return false
		}
	}
	return true
}

// checkpointFiles reads the store directory's checkpoint: each manifest
// and block log, by name.
func checkpointFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	for _, pattern := range []string{checkpointPrefix + "*", logPrefix + "*"} {
		m, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range m {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			files[filepath.Base(p)] = b
		}
	}
	return files
}

// walFiles returns the store directory's WAL segment paths, sorted.
func walFiles(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestOpenFreshSeedsAndPersists(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithSeed(seedGraph()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Version() != 0 {
		t.Fatalf("fresh durable store version = %d", s.Version())
	}
	// The fresh directory is self-contained: a checkpoint exists before
	// any mutation.
	if cs := listCheckpoints(dir); len(cs) != 1 || cs[0].version != 0 {
		t.Fatalf("fresh checkpoints = %+v, want one at version 0", cs)
	}
	c := s.AddNode("c", "t")
	if err := s.AddEdge(0, "y", c); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with a DIFFERENT seed: recovered state must win.
	other := graph.New()
	other.AddNode("imposter", "t")
	s2, err := Open(dir, WithSeed(other))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Version() != 2 {
		t.Fatalf("recovered version = %d, want 2", s2.Version())
	}
	snap, _ := s2.Snapshot()
	if snap.NumNodes() != 3 || snap.NumEdges() != 2 {
		t.Fatalf("recovered graph = %v", snap)
	}
	// Node metadata replays too (names and types ride the log records).
	if n, ok := snap.NodeByName("c"); !ok || n.Type != "t" {
		t.Fatalf("replayed node metadata lost: %+v ok=%v", n, ok)
	}
	if _, ok := snap.NodeByName("imposter"); ok {
		t.Fatal("seed overrode recovered state")
	}
	ds := s2.DurabilityStats()
	if !ds.Enabled || ds.Recovery.RecoveredVersion != 2 || ds.Recovery.ReplayedRecords != 2 {
		t.Fatalf("durability stats = %+v", ds)
	}
	// The replication feed is primed from the replayed tail.
	feed := s2.LogFeed(0, 0)
	if len(feed.Updates) != 2 || feed.Gap {
		t.Fatalf("post-recovery feed = %+v", feed)
	}
}

func TestCrashRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithSeed(seedGraph()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.AddEdge(0, "y", 1); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: no Close. Tear the WAL tail mid-record.
	segs := walFiles(t, dir)
	last := segs[len(segs)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("recovery failed on torn tail: %v", err)
	}
	defer s2.Close()
	// The torn batch is gone whole; everything before it survives whole.
	if got := s2.Version(); got != 4 {
		t.Fatalf("recovered version = %d, want 4 (torn batch dropped)", got)
	}
	snap, _ := s2.Snapshot()
	if want := 1 + 4; snap.NumEdges() != want {
		t.Fatalf("recovered edges = %d, want %d", snap.NumEdges(), want)
	}
	if s2.DurabilityStats().WAL.TornTruncated != 1 {
		t.Fatalf("torn counter = %+v", s2.DurabilityStats().WAL)
	}
	// The store keeps working: the version counter resumes, no
	// collision with the truncated record.
	if err := s2.AddEdge(0, "y", 1); err != nil {
		t.Fatal(err)
	}
	if s2.Version() != 5 {
		t.Fatalf("post-recovery version = %d, want 5", s2.Version())
	}
}

// TestCrashRecoveryPropertyRandomCuts is the kill-mid-append property
// test: commit a random mutation history, then "crash" by cutting the
// WAL at arbitrary byte offsets (torn tail) or flipping a tail byte
// (corrupted checksum). Open must always recover a prefix-consistent
// store: the version is exactly a batch boundary, the graph is exactly
// the state at that boundary, and re-opening never errors.
func TestCrashRecoveryPropertyRandomCuts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := t.TempDir()
	src := filepath.Join(base, "src")
	s, err := Open(src, WithSeed(seedGraph()), WithCheckpointEvery(0))
	if err != nil {
		t.Fatal(err)
	}

	// Mutate through the store while maintaining the expected graph at
	// every batch boundary.
	expect := []*graph.Snapshot{seedGraph().Snapshot()} // index = batches committed
	boundaries := []uint64{0}                           // version at each boundary
	version := uint64(0)
	const batches = 12
	for i := 0; i < batches; i++ {
		model := graph.NewBuilder(expect[len(expect)-1])
		size := 1 + rng.Intn(3)
		err := s.Update(func(tx *Tx) error {
			for j := 0; j < size; j++ {
				switch rng.Intn(4) {
				case 0:
					name := fmt.Sprintf("n%d-%d", i, j)
					tx.AddNode(name, "t")
					model.AddNode(name, "t")
				default:
					u := graph.NodeID(rng.Intn(model.NumNodes()))
					v := graph.NodeID(rng.Intn(model.NumNodes()))
					label := []string{"x", "y", "z"}[rng.Intn(3)]
					if rng.Intn(3) == 0 && model.EdgeCount(u, label, v) > 0 {
						if err := tx.RemoveEdge(u, label, v); err != nil {
							return err
						}
						model.RemoveEdge(u, label, v)
					} else {
						if err := tx.AddEdge(u, label, v); err != nil {
							return err
						}
						if err := model.AddEdge(u, label, v); err != nil {
							return err
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		version += uint64(size)
		expect = append(expect, model.Build())
		boundaries = append(boundaries, version)
	}
	// Crash without Close; fsync=always means every byte is on disk.
	segs := walFiles(t, src)
	if len(segs) != 1 {
		t.Fatalf("expected one segment, got %v", segs)
	}
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	ckpts := listCheckpoints(src)
	if len(ckpts) != 1 {
		t.Fatalf("checkpoints = %+v", ckpts)
	}
	ckptFiles := checkpointFiles(t, src)

	versionToBatch := make(map[uint64]int, len(boundaries))
	for i, v := range boundaries {
		versionToBatch[v] = i
	}

	// Sampled byte cuts plus a few checksum corruptions.
	cuts := map[int64]bool{0: true, int64(len(full)): true}
	for len(cuts) < 60 {
		cuts[int64(rng.Intn(len(full)+1))] = true
	}
	caseNo := 0
	runCase := func(mutate func(buf []byte) []byte) {
		caseNo++
		dir := filepath.Join(base, fmt.Sprintf("case-%d", caseNo))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, b := range ckptFiles {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[0])), mutate(append([]byte(nil), full...)), 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Open(dir)
		if err != nil {
			t.Fatalf("case %d: recovery error: %v", caseNo, err)
		}
		defer rec.Close()
		got := rec.Version()
		bi, ok := versionToBatch[got]
		if !ok {
			t.Fatalf("case %d: recovered version %d is not a batch boundary %v (torn batch leaked)", caseNo, got, boundaries)
		}
		snap, _ := rec.Snapshot()
		if !sameDatabase(snap, expect[bi]) {
			t.Fatalf("case %d: recovered graph at version %d does not match the committed prefix", caseNo, got)
		}
	}
	for cut := range cuts {
		runCase(func(buf []byte) []byte { return buf[:cut] })
	}
	for i := 0; i < 10; i++ {
		pos := len(full) - 1 - rng.Intn(len(full)/3)
		runCase(func(buf []byte) []byte { buf[pos] ^= 0x55; return buf })
	}
	s.Close()
}

func TestCheckpointCadenceAndTrim(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithSeed(seedGraph()), WithCheckpointEvery(10), WithSegmentBytes(256))
	if err != nil {
		t.Fatal(err)
	}
	const n = 55
	for i := 0; i < n; i++ {
		if err := s.AddEdge(0, "y", 1); err != nil {
			t.Fatal(err)
		}
	}
	// Cadence checkpoints run on a background goroutine (they must not
	// stall the commit path); wait for the in-flight one to settle.
	deadline := time.Now().Add(10 * time.Second)
	for s.dur.inFlight.Load() || s.dur.checkpoints.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("cadence checkpoint never completed: %+v", s.DurabilityStats())
		}
		time.Sleep(time.Millisecond)
	}
	ds := s.DurabilityStats()
	if ds.LastCheckpointVersion < 10 || ds.LastCheckpointVersion > n {
		t.Fatalf("cadence checkpoints missing: %+v", ds)
	}
	// Only the newest checkpoint file survives.
	if cs := listCheckpoints(dir); len(cs) != 1 || cs[0].version != ds.LastCheckpointVersion {
		t.Fatalf("checkpoint files = %+v", cs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Version() != n {
		t.Fatalf("recovered version = %d, want %d", s2.Version(), n)
	}
	rs := s2.DurabilityStats().Recovery
	if rs.CheckpointVersion != ds.LastCheckpointVersion {
		t.Fatalf("recovery started at %d, want the newest checkpoint %d", rs.CheckpointVersion, ds.LastCheckpointVersion)
	}
	if rs.ReplayedRecords != n-ds.LastCheckpointVersion {
		t.Fatalf("replayed %d records, want %d (checkpoint + tail, not full history)", rs.ReplayedRecords, n-ds.LastCheckpointVersion)
	}
	snap, _ := s2.Snapshot()
	if snap.NumEdges() != 1+n {
		t.Fatalf("edges = %d, want %d", snap.NumEdges(), 1+n)
	}
}

func TestWALAppendFailureRollsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithSeed(seedGraph()))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdge(0, "y", 1); err != nil {
		t.Fatal(err)
	}
	// Force append failure by closing the WAL out from under the store.
	s.dur.wal.Close()
	err = s.AddEdge(0, "y", 1)
	if err == nil || !strings.Contains(err.Error(), "rolled back") {
		t.Fatalf("append failure not surfaced: %v", err)
	}
	if !errors.Is(err, ErrDurability) {
		t.Fatalf("durability fault not marked with ErrDurability: %v", err)
	}
	if s.Version() != 1 {
		t.Fatalf("version advanced past a failed append: %d", s.Version())
	}
	snap, _ := s.Snapshot()
	if snap.NumEdges() != 2 {
		t.Fatalf("failed batch published: %d edges", snap.NumEdges())
	}
}

// TestFailedAppendLeavesNoName: a commit that named node 9 "alice" built
// its version and then failed its WAL append. The retry adds an unnamed
// node 9; "alice" must not resolve to it, and a later "alice" is its own
// node, before and after a reopen.
func TestFailedAppendLeavesNoName(t *testing.T) {
	dir := t.TempDir()
	g := graph.New()
	for i := 0; i < 8; i++ {
		g.AddNode(fmt.Sprintf("n%d", i), "t")
	}
	s, err := Open(dir, WithSeed(g))
	if err != nil {
		t.Fatal(err)
	}
	s.AddNode("x", "t")

	good := s.dur.wal
	bad, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad.Close()
	s.dur.wal = bad
	if err := s.Update(func(tx *Tx) error { tx.AddNode("alice", "t"); return nil }); !errors.Is(err, ErrDurability) {
		t.Fatalf("append on a closed log: %v", err)
	}
	s.dur.wal = good

	if id := s.AddNode("", "t"); id != 9 {
		t.Fatalf("retry added node %d, want 9", id)
	}
	if snap, _ := s.Snapshot(); func() bool { _, ok := snap.NodeByName("alice"); return ok }() {
		t.Fatal("a rolled-back batch's name resolves after the retry")
	}
	alice := s.AddNode("alice", "t")
	check := func(s *Store) {
		t.Helper()
		snap, _ := s.Snapshot()
		if nd, ok := snap.NodeByName("alice"); !ok || nd.ID != alice {
			t.Fatalf("alice = %d, %v; want %d", nd.ID, ok, alice)
		}
	}
	check(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check(s)
}

func TestManualCheckpointAndInMemoryStoreErrors(t *testing.T) {
	s := New(seedGraph())
	if s.Durable() {
		t.Fatal("in-memory store claims durability")
	}
	if err := s.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on in-memory store succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close on in-memory store: %v", err)
	}
	if ds := s.DurabilityStats(); ds.Enabled {
		t.Fatalf("in-memory durability stats = %+v", ds)
	}

	dir := t.TempDir()
	d, err := Open(dir, WithSeed(seedGraph()), WithCheckpointEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 3; i++ {
		if err := d.AddEdge(0, "y", 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if v := d.DurabilityStats().LastCheckpointVersion; v != 3 {
		t.Fatalf("manual checkpoint at version %d, want 3", v)
	}
}

func TestLogFeedPagingAndGap(t *testing.T) {
	s := New(seedGraph())
	s.SetLogRetention(4)
	for i := 0; i < 10; i++ {
		if err := s.AddEdge(0, "y", 1); err != nil {
			t.Fatal(err)
		}
	}
	// Versions 1..6 were dropped (retention 4 keeps 7..10).
	feed := s.LogFeed(0, 0)
	if !feed.Gap || feed.DroppedThrough != 6 {
		t.Fatalf("gap not signaled: %+v", feed)
	}
	if len(feed.Updates) != 4 || feed.Updates[0].Version != 7 {
		t.Fatalf("feed updates = %+v", feed.Updates)
	}
	// A follower already past the drop point sees no gap.
	feed = s.LogFeed(8, 0)
	if feed.Gap || len(feed.Updates) != 2 || feed.More {
		t.Fatalf("contiguous feed = %+v", feed)
	}
	// Paging: a bounded page signals More and resumes cleanly.
	feed = s.LogFeed(6, 2)
	if feed.Gap || !feed.More || len(feed.Updates) != 2 || feed.Updates[1].Version != 8 {
		t.Fatalf("page 1 = %+v", feed)
	}
	feed = s.LogFeed(feed.Updates[len(feed.Updates)-1].Version, 2)
	if feed.More || len(feed.Updates) != 2 || feed.Updates[1].Version != 10 {
		t.Fatalf("page 2 = %+v", feed)
	}
	// Caught up: empty page, no gap, version matches.
	feed = s.LogFeed(10, 2)
	if feed.Gap || feed.More || len(feed.Updates) != 0 || feed.Version != 10 {
		t.Fatalf("caught-up feed = %+v", feed)
	}
}

// TestDurableStoreSyncPolicies exercises the interval and never
// policies end-to-end (mutate, close, reopen) — with a clean Close both
// flush everything.
func TestDurableStoreSyncPolicies(t *testing.T) {
	for _, p := range []wal.SyncPolicy{wal.SyncEvery, wal.SyncNever} {
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, WithSeed(seedGraph()), WithSync(p))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if err := s.AddEdge(0, "y", 1); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if s2.Version() != 5 {
				t.Fatalf("recovered version = %d, want 5", s2.Version())
			}
		})
	}
}

// TestDurableConcurrentReadersAndWriters drives interleaved durable
// mutations, snapshot reads and feed reads; run with -race. The WAL
// append rides the writer lock, so this is also the mutation-storm
// shape the crash property test cuts.
func TestDurableConcurrentReadersAndWriters(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithSeed(seedGraph()), WithCheckpointEvery(64))
	if err != nil {
		t.Fatal(err)
	}
	const iters = 100
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s.AddEdge(0, "y", 1)
				s.RemoveEdge(0, "y", 1)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s.Read(func(g *graph.Snapshot, _ uint64) error {
					g.Degree(0)
					return nil
				})
				s.LogFeed(0, 32)
				s.DurabilityStats()
			}
		}()
	}
	wg.Wait()
	if got := s.Version(); got != 8*iters {
		t.Errorf("version = %d, want %d", got, 8*iters)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Version(); got != 8*iters {
		t.Errorf("recovered version = %d, want %d", got, 8*iters)
	}
}
