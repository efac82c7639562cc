package eval

import (
	"testing"

	"relsim/internal/rre"
)

// TestBuildLandedDuringMaintenanceIsClosed: a reader at the head that
// lands a cold build after a commit's walk, outside the cache lock and
// before the commit installs, never answers at the commit's version.
// The build lands in the floor callback, which Commit calls between the
// walk and install. The install step re-scans the label index under the
// lock, so the entries that build opened close with those the walk
// started from.
func TestBuildLandedDuringMaintenanceIsClosed(t *testing.T) {
	snap := fixtureSnap()
	cache := NewCache()
	ab := rre.MustParse("a.b")
	cache.land(Key{Pattern: ab.String()}, NewVersioned(snap, 0, NewCache()).Commuting(ab), ab)
	next, d := applyBatch(snap, 0, []deltaOp{{op: "add-edge", u: 2, v: 4, label: "a"}})
	ac := rre.MustParse("a.c")
	res := cache.Commit(next, d, func() uint64 {
		NewVersioned(snap, 0, cache).Commuting(ac) // lands a.c, a and c open at v0
		return 1
	})
	if res.Maintained != 1 {
		t.Fatalf("Commit = %+v, want a.b maintained", res)
	}

	got := NewVersioned(next, 1, cache).Commuting(ac)
	if want := NewVersioned(next, 0, NewCache()).Commuting(ac); !got.Equal(want) {
		t.Fatalf("a.c built at v0 during the commit answers at v1:\n%vwant\n%v", got, want)
	}
	checkAgainstRecompute(t, cache, 1, next)
}

// TestCommitParsesNoPattern: a commit walks the patterns its entries
// were landed with, so it parses and renders none. Every history open
// after the commit holds a node of a pattern tree the cache held before
// it, the very object, where a parse of the key would make a new one.
func TestCommitParsesNoPattern(t *testing.T) {
	snap := fixtureSnap()
	cache := NewCache()
	NewVersioned(snap, 0, cache).Commuting(rre.MustParse("(a.b + c-.a).b-.a-"))
	held := make(map[*rre.Pattern]bool)
	var walk func(p *rre.Pattern)
	walk = func(p *rre.Pattern) {
		held[p] = true
		for _, s := range p.Subs() {
			walk(s)
		}
	}
	for _, h := range cache.entries {
		walk(h.p)
	}
	next, d := applyBatch(snap, 0, []deltaOp{{op: "add-edge", u: 2, v: 4, label: "a"}, {op: "add-edge", u: 0, v: 3, label: "b"}})
	res := cache.Commit(next, d, at(1))
	if res.Maintained == 0 || res.Fallbacks != 0 {
		t.Fatalf("Commit = %+v, want every touched root maintained", res)
	}
	for key, h := range cache.entries {
		if !held[h.p] {
			t.Errorf("entry %q holds a pattern the commit made", key)
		}
	}
	checkAgainstRecompute(t, cache, 1, next)
}
