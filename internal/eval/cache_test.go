package eval

import (
	"testing"

	"relsim/internal/graph"
	"relsim/internal/rre"
)

// cacheTestGraph builds a small graph with three labels so patterns over
// disjoint label sets can be cached side by side.
func cacheTestGraph() *graph.Graph {
	g := graph.New()
	n := make([]graph.NodeID, 4)
	for i := range n {
		n[i] = g.AddNode("", "")
	}
	g.AddEdge(n[0], "a", n[1])
	g.AddEdge(n[1], "b", n[2])
	g.AddEdge(n[2], "c", n[3])
	g.AddEdge(n[0], "c", n[2])
	return g
}

// cached returns the matrix cached under key, or nil, recording nothing
// and opening no build.
func (c *Cache) cached(key Key) CachedMatrix {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b := c.versions[key.Version]; b != nil {
		if ent := b.entries[key.entryKey()]; ent != nil {
			return ent.m
		}
	}
	return nil
}

func TestLRUEviction(t *testing.T) {
	g := cacheTestGraph()
	ev := New(g)
	ev.SetCacheLimit(2)
	pa, pb, pc := rre.MustParse("a"), rre.MustParse("b"), rre.MustParse("c")
	ev.Commuting(pa)
	ev.Commuting(pb)
	ev.Commuting(pa) // a is now more recently used than b
	ev.Commuting(pc) // evicts b
	if got := ev.CacheSize(); got != 2 {
		t.Fatalf("CacheSize = %d, want 2", got)
	}
	st := ev.Stats()
	if st.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", st.Evictions)
	}
	// a must still be cached (hit), b must have been the victim (miss).
	before := ev.Stats()
	ev.Commuting(pa)
	if after := ev.Stats(); after.Hits != before.Hits+1 {
		t.Error("a was evicted; wanted the LRU victim to be b")
	}
	before = ev.Stats()
	ev.Commuting(pb)
	if after := ev.Stats(); after.Misses != before.Misses+1 {
		t.Error("b still cached; wanted it evicted as LRU")
	}
}

func TestSetCacheLimitShrinks(t *testing.T) {
	g := cacheTestGraph()
	ev := New(g)
	ev.Materialize(rre.MustParse("a"), rre.MustParse("b"), rre.MustParse("c"))
	ev.SetCacheLimit(1)
	if got := ev.CacheSize(); got != 1 {
		t.Errorf("CacheSize after SetCacheLimit(1) = %d, want 1", got)
	}
}

// TestAdvanceRespectsLimit is the regression test for the bounded-cache
// leak: Advance carries (and with a pinned reader, *copies*) entries to
// the new version, which used to bypass evictLocked — a bounded cache
// silently exceeded SetLimit after every committed write until the next
// insert. Committing writes against a full bounded cache must keep the
// bound.
func TestAdvanceRespectsLimit(t *testing.T) {
	g := cacheTestGraph()
	c := NewCache()
	c.SetLimit(3)
	ev := NewVersioned(g.Snapshot(), 0, c)
	ev.Materialize(rre.MustParse("a"), rre.MustParse("b"), rre.MustParse("c"))
	if got := c.Size(); got != 3 {
		t.Fatalf("primed cache size = %d, want 3 (at the limit)", got)
	}

	// A committed write touching none of the cached labels, with a
	// reader still pinned at version 0: every entry is copied forward.
	c.Advance(0, 1, []string{"unrelated"}, false, true)
	if got := c.Size(); got > 3 {
		t.Fatalf("cache size after Advance = %d, exceeds limit 3", got)
	}

	// Repeated writes (the mutation-storm shape) never accumulate.
	for v := uint64(1); v < 10; v++ {
		c.Advance(v, v+1, []string{"unrelated"}, false, true)
		if got := c.Size(); got > 3 {
			t.Fatalf("cache size after write %d = %d, exceeds limit 3", v, got)
		}
	}

	// Unbounded caches are untouched by the enforcement.
	c2 := NewCache()
	ev2 := NewVersioned(g.Snapshot(), 0, c2)
	ev2.Materialize(rre.MustParse("a"), rre.MustParse("b"))
	carried, _ := c2.Advance(0, 1, nil, false, true)
	if carried != 2 || c2.Size() != 4 {
		t.Fatalf("unbounded Advance carried %d, size %d; want 2, 4", carried, c2.Size())
	}
}

// TestDiagonalsLiveAndDieWithTheirHalves pins where a kept Equation-1
// diagonal goes when its halves move: Advance carries it while both
// halves carry and drops it with a touched half, with a reader pinned
// at the old version and without; EvictBelow drops it with its version;
// an LRU eviction of a half drops it. It is never an entry.
func TestDiagonalsLiveAndDieWithTheirHalves(t *testing.T) {
	c := NewCache()
	ev := NewVersioned(cacheTestGraph().Snapshot(), 0, c)
	ab, cc := rre.MustParse("a.b"), rre.MustParse("c.c-")
	ev.Materialize(ab, cc)
	entries := c.Size()
	scoreCuts(ev, ab, cc)
	diagsAt := func(v uint64) int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.table(v))
	}
	if st := c.Stats(); st.Diagonals != 2 || st.Size != entries {
		t.Fatalf("after scoring: %d diagonals, %d entries; want 2 beside the %d entries", st.Diagonals, st.Size, entries)
	}

	// b touched, a reader pinned at v0: v0 keeps both, v1 only c.c-'s.
	// A diagonal kept at v1 beside halves neither version holds (one
	// Maintain patched beside a half evicted since) is dropped.
	for _, s := range c.table(0) {
		c.bucket(1)
		c.publish(cutTables{1: cutTable{{"x", "y"}: s}})
	}
	c.Advance(0, 1, []string{"b"}, false, true)
	if diagsAt(0) != 2 || diagsAt(1) != 1 {
		t.Fatalf("pinned advance: %d diagonals at v0, %d at v1; want 2 and 1", diagsAt(0), diagsAt(1))
	}
	if c.EvictBelow(1); diagsAt(0) != 0 {
		t.Fatalf("EvictBelow(1) left %d diagonals at v0", diagsAt(0))
	}
	// Nothing touched, nothing pinned: the bucket moves with its diagonal.
	c.Advance(1, 2, nil, false, false)
	if diagsAt(1) != 0 || diagsAt(2) != 1 {
		t.Fatalf("advance: %d diagonals at v1, %d at v2; want 0 and 1", diagsAt(1), diagsAt(2))
	}
	// An LRU eviction of c.c-'s half c, the one entry not used since
	// scoring, takes its diagonal along.
	ev2 := NewVersioned(cacheTestGraph().Snapshot(), 2, c)
	ev2.Materialize(rre.MustParse("a"), cc)
	c.SetLimit(c.Size() - 1)
	if diagsAt(2) != 0 {
		t.Fatalf("a half was evicted, but its diagonal is still kept")
	}
}
