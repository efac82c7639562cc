package eval

import (
	"maps"
	"testing"

	"relsim/internal/graph"
	"relsim/internal/rre"
	"relsim/internal/sparse"
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
func (c *Cache) cached(key Key) *sparse.Matrix {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key.Pattern].at(key.Version); e != nil {
		return e.m
	}
	return nil
}

// at returns a commit floor of v: the oldest version a reader pins.
func at(v uint64) func() uint64 { return func() uint64 { return v } }

// touch is the commit from v to v+1 touching labels, with no deltas to
// patch against.
func touch(v uint64, labels ...string) CommitDelta {
	d := CommitDelta{From: v, To: v + 1, Labels: make(map[string]*sparse.Delta, len(labels))}
	for _, l := range labels {
		d.Labels[l] = nil
	}
	return d
}

// slotsAt returns the number of slots of the published cut table valid
// at version v.
func (c *Cache) slotsAt(v uint64) int {
	n := 0
	for _, ss := range *c.cuts.Load() {
		if _, ok := slotAt(ss, v); ok {
			n++
		}
	}
	return n
}

func TestLRUEviction(t *testing.T) {
	g := cacheTestGraph()
	ev := New(g)
	ev.Cache().SetLimit(2)
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
	ev.Cache().SetLimit(1)
	if got := ev.CacheSize(); got != 1 {
		t.Errorf("CacheSize after SetLimit(1) = %d, want 1", got)
	}
}

// TestAdvanceRespectsLimit is the regression test for the bounded-cache
// leak: carrying entries across a commit used to copy them with a
// reader pinned and bypass evictLocked, so a bounded cache silently
// exceeded SetLimit after every committed write until the next insert.
// Committing writes against a full bounded cache must keep the bound,
// and an untouched entry is never copied.
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
	// reader still pinned at version 0.
	c.Commit(nil, touch(0, "unrelated"), at(0))
	if got := c.Size(); got > 3 {
		t.Fatalf("cache size after commit = %d, exceeds limit 3", got)
	}

	// Repeated writes (the mutation-storm shape) never accumulate.
	for v := uint64(1); v < 10; v++ {
		c.Commit(nil, touch(v, "unrelated"), at(v))
		if got := c.Size(); got > 3 {
			t.Fatalf("cache size after write %d = %d, exceeds limit 3", v, got)
		}
	}

	// Unbounded caches are untouched by the enforcement: both entries
	// serve the new version without a copy.
	c2 := NewCache()
	ev2 := NewVersioned(g.Snapshot(), 0, c2)
	ev2.Materialize(rre.MustParse("a"), rre.MustParse("b"))
	c2.Commit(nil, touch(0), at(0))
	before := c2.Stats()
	NewVersioned(g.Snapshot(), 1, c2).Materialize(rre.MustParse("a"), rre.MustParse("b"))
	if after := c2.Stats(); c2.Size() != 2 || after.Hits != before.Hits+2 {
		t.Fatalf("unbounded commit kept %d entries, %d hits at v1; want 2 and 2", c2.Size(), after.Hits-before.Hits)
	}
}

// TestDiagonalsLiveAndDieWithTheirHalves pins where a kept Equation-1
// diagonal goes when its halves move: its slot stays valid across a
// commit that touches neither half and closes with a touched half, with
// a reader pinned at the old version and without; it is dropped with a
// half the commit drops; a slot whose halves are not entries is dropped
// by the next writer; an LRU eviction of a half drops it. It is never
// an entry.
func TestDiagonalsLiveAndDieWithTheirHalves(t *testing.T) {
	c := NewCache()
	ev := NewVersioned(cacheTestGraph().Snapshot(), 0, c)
	ab, cc := rre.MustParse("a.b"), rre.MustParse("c.c-")
	ev.Materialize(ab, cc)
	entries := c.Size()
	scoreCuts(ev, ab, cc)
	if st := c.Stats(); st.Diagonals != 2 || st.Size != entries {
		t.Fatalf("after scoring: %d diagonals, %d entries; want 2 beside the %d entries", st.Diagonals, st.Size, entries)
	}

	// b touched, a reader pinned at v0: v0 keeps both, v1 only c.c-'s.
	// A slot beside halves the cache does not hold is dropped.
	c.mu.Lock()
	t1 := maps.Clone(*c.cuts.Load())
	for _, ss := range t1 {
		t1[cutKey{"x", "y"}] = ss
	}
	c.cuts.Store(&t1)
	c.mu.Unlock()
	c.Commit(nil, touch(0, "b"), at(0))
	if c.slotsAt(0) != 2 || c.slotsAt(1) != 1 {
		t.Fatalf("pinned commit: %d diagonals at v0, %d at v1; want 2 and 1", c.slotsAt(0), c.slotsAt(1))
	}
	// The pin released: the slot closed with b- goes with it.
	if c.Commit(nil, touch(1), at(2)); c.Stats().Diagonals != 1 {
		t.Fatalf("pins released: %d diagonals kept, want c.c-'s alone", c.Stats().Diagonals)
	}
	// Nothing touched, nothing pinned: c.c-'s slot never moved.
	if c.slotsAt(0) != 1 || c.slotsAt(2) != 1 {
		t.Fatalf("untouched slot: %d diagonals at v0, %d at v2; want 1 and 1", c.slotsAt(0), c.slotsAt(2))
	}
	// An LRU eviction of c.c-'s half c, the one entry not used since
	// scoring, takes its diagonal along.
	ev2 := NewVersioned(cacheTestGraph().Snapshot(), 2, c)
	ev2.Materialize(rre.MustParse("a"), cc)
	c.SetLimit(c.Size() - 1)
	if c.slotsAt(2) != 0 {
		t.Fatalf("a half was evicted, but its diagonal is still kept")
	}
}
