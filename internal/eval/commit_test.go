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
	cache.land(Key{Pattern: ab.String()}, NewVersioned(snap, 0, NewCache()).Commuting(ab), ab.Labels())
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
