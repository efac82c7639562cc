package eval

import (
	"fmt"
	"testing"

	"relsim/internal/rre"
	"relsim/internal/sparse"
)

// primeCache inserts n entries at version v, each over one of k labels
// (entry i gets label "l<i%k>"). Patterns are distinct.
func primeCache(c *Cache, v uint64, n, k int) {
	m := sparse.Identity(2)
	for i := 0; i < n; i++ {
		label := fmt.Sprintf("l%d", i%k)
		c.land(Key{Version: v, Pattern: fmt.Sprintf("p%d", i)}, m, rre.MustParse(label))
	}
}

// TestCommitPathWorkProportionalToTouched is the deterministic guard
// for the label inverted index: a commit touching one label out of many
// must examine only the entries mentioning that label, not the whole
// cache. It gates on the internal scanned counter, which counts the keys
// a commit's close pass examines.
func TestCommitPathWorkProportionalToTouched(t *testing.T) {
	const entries, labels = 10000, 1000 // 10 entries per label
	c := NewCache()
	primeCache(c, 0, entries, labels)
	if c.Size() != entries {
		t.Fatalf("primed size = %d, want %d", c.Size(), entries)
	}

	c.mu.Lock()
	c.scanned = 0
	c.mu.Unlock()
	res := c.Commit(nil, touch(0, "l7"), at(1))
	if res.Closed != entries/labels {
		t.Fatalf("Commit closed %d, want %d", res.Closed, entries/labels)
	}
	if carried := c.Size(); carried != entries-res.Closed {
		t.Fatalf("Commit carried %d, want %d", carried, entries-res.Closed)
	}
	c.mu.Lock()
	scanned := c.scanned
	c.mu.Unlock()
	if max := uint64(4 * entries / labels); scanned > max {
		t.Fatalf("Commit examined %d entries for %d touched; want <= %d (index not used?)",
			scanned, entries/labels, max)
	}
}

// TestLabelIndexConsistentAfterChurn exercises insert/remove/commit
// churn and checks the index agrees with the entries.
func TestLabelIndexConsistentAfterChurn(t *testing.T) {
	c := NewCache()
	m := sparse.Identity(2)
	c.land(Key{Version: 0, Pattern: "a"}, m, rre.MustParse("a"))
	c.land(Key{Version: 0, Pattern: "a.b"}, m, rre.MustParse("a.b"))
	c.land(Key{Version: 0, Pattern: "c"}, m, rre.MustParse("c"))
	// Re-insert same pattern (replace path).
	c.land(Key{Version: 0, Pattern: "a.b"}, m, rre.MustParse("a.b"))
	if c.Size() != 3 {
		t.Fatalf("Size = %d, want 3 after replace", c.Size())
	}
	if res := c.Commit(nil, touch(0, "b"), at(1)); res.Closed != 1 {
		t.Fatalf("commit touching b closed %d, want 1", res.Closed)
	}
	if res := c.Commit(nil, touch(1, "b"), at(2)); res.Closed != 0 {
		t.Fatalf("second commit touching b closed %d, want 0 (index left residue)", res.Closed)
	}
	if res := c.Commit(nil, touch(2, "a"), at(3)); c.Size() != 1 || res.Closed != 1 {
		t.Fatalf("commit touching a kept %d, closed %d; want (1,1)", c.Size(), res.Closed)
	}
	occ := c.VersionOccupancy()
	if len(occ) != 1 || occ[3] != 1 {
		t.Fatalf("occupancy = %v, want only v3:1", occ)
	}
}

// BenchmarkCacheCommitPath measures the commit-path cache work for a
// single touched label at two cache sizes. With the inverted index the
// per-commit cost is flat in cache size; without it, it scales
// linearly. Run with -bench to compare sizes.
func BenchmarkCacheCommitPath(b *testing.B) {
	m := sparse.Identity(2)
	for _, size := range []int{1000, 16000} {
		b.Run(fmt.Sprintf("entries=%d", size), func(b *testing.B) {
			c := NewCache()
			primeCache(c, 0, size, size/10) // 10 entries per label
			b.ResetTimer()
			v := uint64(0)
			for i := 0; i < b.N; i++ {
				// Re-insert the touched entries so every iteration evicts
				// the same amount of work.
				for j := 0; j < 10; j++ {
					c.land(Key{Version: v, Pattern: fmt.Sprintf("p%d", j*(size/10)+7)}, m, rre.MustParse("l7"))
				}
				c.Commit(nil, touch(v, "l7"), at(v+1))
				v++
			}
		})
	}
}
