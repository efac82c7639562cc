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

// TestCacheAdvance: untouched-label entries carry to the new version
// (staying hot), touched ones are evicted, and node-count changes evict
// everything at the old version.
func TestCacheAdvance(t *testing.T) {
	g := cacheTestGraph()
	cache := NewCache()
	ev := NewVersioned(g.Snapshot(), 0, cache)
	ev.Materialize(rre.MustParse("a.b"), rre.MustParse("c"))
	if cache.Size() != 5 { // a.b, its halves a and b-, b, c
		t.Fatalf("primed size = %d, want 5", cache.Size())
	}

	carried, evicted := cache.Advance(0, 1, []string{"c"}, false, false)
	if carried != 4 || evicted != 1 {
		t.Fatalf("Advance = (%d carried, %d evicted), want (4, 1)", carried, evicted)
	}
	occ := cache.VersionOccupancy()
	if occ[0] != 0 || occ[1] != 4 {
		t.Errorf("occupancy after advance = %v, want all at version 1", occ)
	}

	// The carried a.b entry is a hit for a version-1 evaluator.
	ev1 := NewVersioned(g.Snapshot(), 1, cache)
	before := cache.Stats()
	ev1.Commuting(rre.MustParse("a.b"))
	after := cache.Stats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Errorf("carried entry missed: %+v → %+v", before, after)
	}

	// A node-count change evicts everything at the advanced-from version.
	if _, evicted := cache.Advance(1, 2, nil, true, false); evicted != 4 {
		t.Errorf("node-change advance evicted %d, want 4", evicted)
	}
	if cache.Size() != 0 {
		t.Errorf("size = %d, want 0", cache.Size())
	}
}

// TestCacheAdvanceKeepsPinnedVersion: with keepFrom (readers still
// pinned at the pre-write version), untouched entries are copied — not
// moved — so pinned readers keep hitting, and EvictBelow reaps the old
// version once the pins release.
func TestCacheAdvanceKeepsPinnedVersion(t *testing.T) {
	g := cacheTestGraph()
	cache := NewCache()
	ev0 := NewVersioned(g.Snapshot(), 0, cache)
	ev0.Materialize(rre.MustParse("a.b"), rre.MustParse("c"))

	carried, evicted := cache.Advance(0, 1, []string{"c"}, false, true)
	if carried != 4 || evicted != 0 {
		t.Fatalf("Advance keepFrom = (%d carried, %d evicted), want (4, 0)", carried, evicted)
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
	// Pins released: the old version's leftovers are reaped.
	if n := cache.EvictBelow(1); n != 5 {
		t.Errorf("EvictBelow(1) = %d, want 5", n)
	}
}

// TestCacheEvictBelow drops only entries under the floor.
func TestCacheEvictBelow(t *testing.T) {
	g := cacheTestGraph()
	cache := NewCache()
	pa := rre.MustParse("a")
	NewVersioned(g.Snapshot(), 3, cache).Commuting(pa)
	NewVersioned(g.Snapshot(), 7, cache).Commuting(pa)
	if n := cache.EvictBelow(7); n != 1 {
		t.Errorf("EvictBelow(7) = %d, want 1", n)
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
