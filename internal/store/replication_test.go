package store

// Replication-feed correctness: the gap-predicate boundaries the
// follower protocol depends on (an off-by-one here makes a replica
// silently skip a committed batch), the WAL-backed fallback for
// followers that out-sleep the in-memory retention, the Reset bootstrap
// primitive, checkpoint streaming, and the Close/Update shutdown race.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"relsim/internal/graph"
)

// TestLogFeedGapBoundaries pins the gap predicate at the exact
// boundary: logDropped is the highest dropped version, so since ==
// logDropped is servable (the follower has version logDropped and needs
// logDropped+1, which is retained) while since == logDropped-1 is not
// (it needs version logDropped, which is gone).
func TestLogFeedGapBoundaries(t *testing.T) {
	s := New(seedGraph())
	s.SetLogRetention(4)
	for i := 0; i < 10; i++ {
		if err := s.AddEdge(0, "y", 1); err != nil {
			t.Fatal(err)
		}
	}
	// Retention 4 of 10 commits keeps versions 7..10; dropped through 6.
	const dropped = 6
	cases := []struct {
		since     uint64
		wantGap   bool
		wantFirst uint64 // first delivered version; 0 = none expected
	}{
		{since: dropped - 1, wantGap: true, wantFirst: dropped + 1},
		{since: dropped, wantGap: false, wantFirst: dropped + 1},
		{since: dropped + 1, wantGap: false, wantFirst: dropped + 2},
		{since: 0, wantGap: true, wantFirst: dropped + 1},
		{since: 10, wantGap: false, wantFirst: 0},
	}
	for _, tc := range cases {
		f := s.LogFeed(tc.since, 0)
		if f.Gap != tc.wantGap {
			t.Errorf("since=%d: gap = %v, want %v (%+v)", tc.since, f.Gap, tc.wantGap, f)
		}
		if f.DroppedThrough != dropped {
			t.Errorf("since=%d: dropped_through = %d, want %d", tc.since, f.DroppedThrough, dropped)
		}
		if tc.wantFirst == 0 {
			if len(f.Updates) != 0 {
				t.Errorf("since=%d: got %d updates, want none", tc.since, len(f.Updates))
			}
			continue
		}
		if len(f.Updates) == 0 || f.Updates[0].Version != tc.wantFirst {
			t.Errorf("since=%d: first delivered = %+v, want version %d", tc.since, f.Updates, tc.wantFirst)
		}
		// Contiguity inside the page, and the hard invariant: a page that
		// does NOT signal a gap must start exactly at since+1.
		for i, u := range f.Updates {
			if u.Version != f.Updates[0].Version+uint64(i) {
				t.Fatalf("since=%d: non-contiguous page %+v", tc.since, f.Updates)
			}
		}
		if !f.Gap && f.Updates[0].Version != tc.since+1 {
			t.Errorf("since=%d: gapless page starts at %d", tc.since, f.Updates[0].Version)
		}
	}
}

// TestLogFeedTrimRacingPagingReader hammers commits (which trim the
// bounded log) while a reader pages through the feed, asserting the
// follower-safety invariant under -race: a page either signals a gap or
// starts exactly at since+1 and is contiguous — records are never
// silently skipped.
func TestLogFeedTrimRacingPagingReader(t *testing.T) {
	s := New(seedGraph())
	s.SetLogRetention(8)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.AddEdge(0, "y", 1); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	since := uint64(0)
	for i := 0; i < 2000; i++ {
		f := s.LogFeed(since, 3)
		if len(f.Updates) > 0 {
			if !f.Gap && f.Updates[0].Version != since+1 {
				t.Fatalf("since=%d: silent skip to %d (gap not signaled)", since, f.Updates[0].Version)
			}
			for j, u := range f.Updates {
				if u.Version != f.Updates[0].Version+uint64(j) {
					t.Fatalf("non-contiguous page at since=%d: %+v", since, f.Updates)
				}
			}
			since = f.Updates[len(f.Updates)-1].Version
		} else if f.Gap {
			// Everything after since aged out before the page was cut;
			// resume from the watermark like a re-bootstrapping follower.
			since = f.DroppedThrough
		}
	}
	close(stop)
	wg.Wait()
}

// TestWALBackedLogFeed: a durable store serves feed pages past the
// in-memory retention from the WAL — no gap — until checkpoint trimming
// retires the needed segments, at which point the gap is hard and
// honestly signaled.
func TestWALBackedLogFeed(t *testing.T) {
	dir := t.TempDir()
	// One record per segment (tiny bound) so TrimThrough can retire
	// history at fine granularity; no automatic checkpoints.
	s, err := Open(dir, WithSeed(seedGraph()), WithSegmentBytes(1), WithCheckpointEvery(0), WithLogRetention(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 12; i++ {
		if err := s.AddEdge(0, "y", 1); err != nil {
			t.Fatal(err)
		}
	}
	// Memory holds 11..12 (dropped through 10), but the WAL holds
	// everything: since=0 must page contiguously with no gap.
	f := s.LogFeed(0, 0)
	if f.Gap || len(f.Updates) != 12 || f.Updates[0].Version != 1 || f.Version != 12 {
		t.Fatalf("WAL-backed full feed = gap=%v n=%d %+v", f.Gap, len(f.Updates), f)
	}
	for i, u := range f.Updates {
		if u.Version != uint64(i+1) {
			t.Fatalf("non-contiguous WAL feed: %+v", f.Updates)
		}
	}
	// Paging through the WAL region honors max and More.
	f = s.LogFeed(3, 4)
	if f.Gap || !f.More || len(f.Updates) != 4 || f.Updates[0].Version != 4 {
		t.Fatalf("WAL-backed page = %+v", f)
	}
	// A checkpoint at the live version trims the segments below it: the
	// soft gap becomes hard, and must be signaled, not papered over.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	f = s.LogFeed(0, 0)
	if !f.Gap {
		t.Fatalf("post-trim feed claims contiguity: %+v", f)
	}
	// The boundary contract survives the modality switch: asking from
	// the in-memory watermark still works gaplessly.
	f = s.LogFeed(10, 0)
	if f.Gap || len(f.Updates) != 2 || f.Updates[0].Version != 11 {
		t.Fatalf("memory tail after trim = %+v", f)
	}

	// New commits land in a fresh WAL segment: the WAL-backed path keeps
	// working after a trim for ranges it still covers.
	for i := 0; i < 4; i++ {
		if err := s.AddEdge(0, "y", 1); err != nil {
			t.Fatal(err)
		}
	}
	f = s.LogFeed(12, 0)
	if f.Gap || len(f.Updates) != 4 || f.Updates[0].Version != 13 {
		t.Fatalf("post-trim WAL feed = %+v", f)
	}
}

// TestLogFeedContextHonorsDeadline: an expired context fails the page
// with the context's error instead of scanning the WAL.
func TestLogFeedContextHonorsDeadline(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithSeed(seedGraph()), WithLogRetention(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 6; i++ {
		if err := s.AddEdge(0, "y", 1); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := s.LogFeedContext(ctx, 0, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired context: err = %v", err)
	}
	if f, err := s.LogFeedContext(context.Background(), 0, 0); err != nil || f.Gap || len(f.Updates) != 6 {
		t.Fatalf("live context: %v %+v", err, f)
	}
}

// TestResetBootstrap exercises the follower-bootstrap primitive: state
// is replaced wholesale at a forward version, the feed refuses to serve
// the skipped range contiguously, backwards resets are refused, and a
// durable store recovers the bootstrapped state after a restart.
func TestResetBootstrap(t *testing.T) {
	g2 := graph.New()
	a := g2.AddNode("a", "t")
	b := g2.AddNode("b", "t")
	c := g2.AddNode("c", "t")
	g2.AddEdge(a, "x", b)
	g2.AddEdge(b, "x", c)

	t.Run("in-memory", func(t *testing.T) {
		s := New(seedGraph())
		if err := s.AddEdge(0, "y", 1); err != nil {
			t.Fatal(err)
		}
		if err := s.Reset(g2.Snapshot(), 40); err != nil {
			t.Fatal(err)
		}
		snap, v := s.Snapshot()
		if v != 40 || snap.NumNodes() != 3 || snap.NumEdges() != 2 {
			t.Fatalf("post-reset state: v=%d nodes=%d edges=%d", v, snap.NumNodes(), snap.NumEdges())
		}
		// The skipped range must read as a gap, not as emptiness.
		if f := s.LogFeed(10, 0); !f.Gap || f.DroppedThrough != 40 {
			t.Fatalf("feed across reset = %+v", f)
		}
		if f := s.LogFeed(40, 0); f.Gap || len(f.Updates) != 0 {
			t.Fatalf("feed at reset point = %+v", f)
		}
		if err := s.Reset(g2.Snapshot(), 39); err == nil {
			t.Fatal("backwards reset accepted")
		}
		// Tailing resumes with exact version continuity.
		if err := s.AddEdge(0, "x", 1); err != nil {
			t.Fatal(err)
		}
		if f := s.LogFeed(40, 0); f.Gap || len(f.Updates) != 1 || f.Updates[0].Version != 41 {
			t.Fatalf("post-reset tail = %+v", f)
		}
	})

	t.Run("durable", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(dir, WithSeed(seedGraph()))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := s.AddEdge(0, "y", 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Reset(g2.Snapshot(), 40); err != nil {
			t.Fatal(err)
		}
		if err := s.AddEdge(0, "x", 1); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// Recovery resumes from the bootstrap checkpoint + the tail
		// committed after it, not the pre-reset history.
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		snap, v := r.Snapshot()
		if v != 41 || snap.NumNodes() != 3 || snap.NumEdges() != 3 {
			t.Fatalf("recovered post-reset state: v=%d nodes=%d edges=%d", v, snap.NumNodes(), snap.NumEdges())
		}
	})
}

// TestCheckpointReader covers both modalities of the bootstrap
// transfer: an in-memory store serializes its live snapshot, a durable
// store streams its newest on-disk checkpoint (whose version equals the
// WAL trim floor, keeping checkpoint+tail contiguous).
func TestCheckpointReader(t *testing.T) {
	t.Run("in-memory", func(t *testing.T) {
		s := New(seedGraph())
		if err := s.AddEdge(0, "y", 1); err != nil {
			t.Fatal(err)
		}
		rc, version, size, err := s.CheckpointReader()
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		var buf bytes.Buffer
		if _, err := io.Copy(&buf, rc); err != nil {
			t.Fatal(err)
		}
		if version != 1 || size != int64(buf.Len()) {
			t.Fatalf("version=%d size=%d buffered=%d", version, size, buf.Len())
		}
		g, err := graph.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if g.NumNodes() != 2 || g.Snapshot().NumEdges() != 2 {
			t.Fatalf("streamed graph: %d nodes %d edges", g.NumNodes(), g.Snapshot().NumEdges())
		}
	})

	t.Run("durable", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(dir, WithSeed(seedGraph()), WithCheckpointEvery(0))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i := 0; i < 3; i++ {
			if err := s.AddEdge(0, "y", 1); err != nil {
				t.Fatal(err)
			}
		}
		// Newest on-disk checkpoint is still the boot one at version 0.
		rc, version, _, err := s.CheckpointReader()
		if err != nil {
			t.Fatal(err)
		}
		rc.Close()
		if version != 0 {
			t.Fatalf("boot checkpoint version = %d", version)
		}
		// After a manual checkpoint the stream serves the live version.
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		rc, version, _, err = s.CheckpointReader()
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		if version != 3 {
			t.Fatalf("post-checkpoint version = %d", version)
		}
		g, err := graph.Read(rc)
		if err != nil {
			t.Fatal(err)
		}
		if g.Snapshot().NumEdges() != 4 {
			t.Fatalf("streamed graph edges = %d, want 4", g.Snapshot().NumEdges())
		}
	})
}

// TestCloseRacesMutations is the shutdown-race property: Update and
// Close may interleave freely; every Update either commits fully before
// the close or fails with ErrClosed — never a torn append, never a
// panic — and the recovered state matches exactly the commits that
// reported success.
func TestCloseRacesMutations(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithSeed(seedGraph()))
	if err != nil {
		t.Fatal(err)
	}
	var committed atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				err := s.AddEdge(0, "y", 1)
				switch {
				case err == nil:
					committed.Add(1)
				case errors.Is(err, ErrClosed):
					return
				default:
					t.Errorf("unexpected mutation error during close race: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := s.AddEdge(0, "y", 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close mutation error = %v, want ErrClosed", err)
	}
	// Checkpoints are writes too: a post-close /checkpoint?fresh=1 must
	// not create files or trim segments in a directory being torn down.
	if err := s.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close checkpoint error = %v, want ErrClosed", err)
	}
	if got := s.Version(); got != committed.Load() {
		t.Fatalf("version %d != %d successful commits", got, committed.Load())
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Version(); got != committed.Load() {
		t.Fatalf("recovered version %d != %d successful commits", got, committed.Load())
	}
}
