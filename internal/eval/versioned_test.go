package eval

import (
	"context"
	"errors"
	"testing"

	"relsim/internal/graph"
	"relsim/internal/rre"
)

// TestVersionedCacheNoAliasing: evaluators bound to different versions
// of a graph share one cache without serving each other's matrices.
func TestVersionedCacheNoAliasing(t *testing.T) {
	g := cacheTestGraph()
	v0 := g.Snapshot()
	b := graph.NewBuilder(v0)
	if err := b.AddEdge(0, "c", 3); err != nil {
		t.Fatal(err)
	}
	v1 := b.Build()

	cache := NewCache()
	e0 := NewVersioned(v0, 0, cache)
	e1 := NewVersioned(v1, 1, cache)
	pc := rre.MustParse("c")

	if got := e0.Commuting(pc).At(0, 3); got != 0 {
		t.Fatalf("v0 c(0,3) = %d, want 0", got)
	}
	if got := e1.Commuting(pc).At(0, 3); got != 1 {
		t.Fatalf("v1 c(0,3) = %d, want 1 (no aliasing from v0 entry)", got)
	}
	// Both versions' entries coexist.
	st := cache.Stats()
	if st.Size != 2 || st.Versions != 2 {
		t.Errorf("cache = %+v, want 2 entries across 2 versions", st)
	}
	occ := cache.VersionOccupancy()
	if occ[0] != 1 || occ[1] != 1 {
		t.Errorf("occupancy = %v", occ)
	}
	// Re-reads are hits on the correct entry.
	before := cache.Stats()
	if got := e0.Commuting(pc).At(0, 3); got != 0 {
		t.Errorf("v0 re-read = %d, want 0", got)
	}
	after := cache.Stats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Errorf("v0 re-read was not a pure hit: %+v → %+v", before, after)
	}
}

// TestCacheAdvance: a commit leaves untouched-label entries open, so
// they stay hot at the new version without moving, closes the touched
// ones, and a node-count change closes everything.
func TestCacheAdvance(t *testing.T) {
	g := cacheTestGraph()
	cache := NewCache()
	ev := NewVersioned(g.Snapshot(), 0, cache)
	ev.Materialize(rre.MustParse("a.b"), rre.MustParse("c"))
	if cache.Size() != 5 { // a.b, its halves a and b-, b, c
		t.Fatalf("primed size = %d, want 5", cache.Size())
	}

	if res := cache.Commit(nil, touch(0, "c"), at(1)); res.Closed != 1 || cache.Size() != 4 {
		t.Fatalf("Commit closed %d, kept %d entries; want 1 closed, 4 carried", res.Closed, cache.Size())
	}
	occ := cache.VersionOccupancy()
	if occ[0] != 0 || occ[1] != 4 {
		t.Errorf("occupancy after commit = %v, want all at version 1", occ)
	}

	// The carried a.b entry is a hit for a version-1 evaluator.
	ev1 := NewVersioned(g.Snapshot(), 1, cache)
	before := cache.Stats()
	ev1.Commuting(rre.MustParse("a.b"))
	after := cache.Stats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Errorf("carried entry missed: %+v → %+v", before, after)
	}

	// A node-count change closes everything open at the committed-from version.
	if res := cache.Commit(nil, CommitDelta{From: 1, To: 2, OldN: 4, NewN: 5}, at(2)); res.Closed != 4 {
		t.Errorf("node-change commit closed %d, want 4", res.Closed)
	}
	if cache.Size() != 0 {
		t.Errorf("size = %d, want 0", cache.Size())
	}
}

// TestCacheAdvanceKeepsPinnedVersion: with a reader still pinned at the
// pre-write version, the touched entries close but stay, so pinned
// readers keep hitting while untouched entries serve both versions, and
// the next commit drops the closed ones once the pins release.
func TestCacheAdvanceKeepsPinnedVersion(t *testing.T) {
	g := cacheTestGraph()
	cache := NewCache()
	ev0 := NewVersioned(g.Snapshot(), 0, cache)
	ev0.Materialize(rre.MustParse("a.b"), rre.MustParse("c"))

	if res := cache.Commit(nil, touch(0, "c"), at(0)); res.Closed != 1 || res.Dropped != 0 || cache.Size() != 5 {
		t.Fatalf("pinned commit = %+v with %d entries, want 1 closed, none dropped, 5 kept", res, cache.Size())
	}
	occ := cache.VersionOccupancy()
	if occ[0] != 5 || occ[1] != 4 {
		t.Errorf("occupancy = %v, want 5 at v0 (kept for pins) and 4 at v1", occ)
	}
	// The pinned reader at v0 still hits its entries.
	before := cache.Stats()
	ev0.Commuting(rre.MustParse("a.b"))
	ev0.Commuting(rre.MustParse("c"))
	after := cache.Stats()
	if after.Misses != before.Misses {
		t.Errorf("pinned reader lost its entries: %+v → %+v", before, after)
	}
	// Pins released: the old version's leftover is reaped.
	if res := cache.Commit(nil, touch(1), at(2)); res.Dropped != 1 || cache.Size() != 4 {
		t.Errorf("commit after the pins released dropped %d, kept %d; want 1 and 4", res.Dropped, cache.Size())
	}
}

// TestCacheEvictBelow: a commit drops only the closed entries no
// version from its floor up can read.
func TestCacheEvictBelow(t *testing.T) {
	g := cacheTestGraph()
	cache := NewCache()
	pa := rre.MustParse("a")
	NewVersioned(g.Snapshot(), 3, cache).Commuting(pa)
	NewVersioned(g.Snapshot(), 7, cache).Commuting(pa)
	if res := cache.Commit(nil, touch(7), at(7)); res.Dropped != 1 {
		t.Errorf("commit with floor 7 dropped %d, want 1", res.Dropped)
	}
	occ := cache.VersionOccupancy()
	if occ[3] != 0 || occ[7] != 1 {
		t.Errorf("occupancy = %v", occ)
	}
}

// TestCanceledEvaluation: a context-bound evaluator aborts between
// matrix products and Guard surfaces the context error.
func TestCanceledEvaluation(t *testing.T) {
	g := cacheTestGraph()
	ev := New(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: the very first product boundary trips
	bound := ev.WithContext(ctx)

	err := Guard(func() error {
		bound.Commuting(rre.MustParse("a.b.c"))
		return nil
	})
	var c *Canceled
	if !errors.As(err, &c) {
		t.Fatalf("err = %v, want *Canceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false")
	}
	// Nothing was cached from the aborted evaluation, and the unbound
	// evaluator still works.
	if got := ev.Commuting(rre.MustParse("a.b.c")).Dim(); got != g.NumNodes() {
		t.Errorf("post-cancel evaluation dim = %d", got)
	}
}

// TestGuardPassesThroughErrors: ordinary errors and nil flow through.
func TestGuardPassesThroughErrors(t *testing.T) {
	if err := Guard(func() error { return nil }); err != nil {
		t.Errorf("Guard(nil fn) = %v", err)
	}
	want := errors.New("boom")
	if err := Guard(func() error { return want }); !errors.Is(err, want) {
		t.Errorf("Guard passthrough = %v", err)
	}
}
