package eval

import (
	"sync"
	"testing"

	"relsim/internal/graph"
	"relsim/internal/rre"
	"relsim/internal/sparse"
)

// pausingView is a view whose first read of one label's adjacency
// signals reached and waits for release, so a test can act while a
// commit's walk runs outside the cache lock.
type pausingView struct {
	graph.View
	label            string
	reached, release chan struct{}
	once             sync.Once
}

func (v *pausingView) Adjacency(l string) *sparse.Matrix {
	if l == v.label {
		v.once.Do(func() {
			close(v.reached)
			<-v.release
		})
	}
	return v.View.Adjacency(l)
}

// TestBuildLandedDuringMaintenanceIsClosed: a reader at the head that
// lands a cold build while a commit's walk runs outside the cache lock
// never answers at the commit's version. The install step re-scans the
// label index under the lock, so the entries that build opened close
// with those the walk started from.
func TestBuildLandedDuringMaintenanceIsClosed(t *testing.T) {
	snap := fixtureSnap()
	cache := NewCache()
	// Only the root is cached, so the walk reads label a off the view.
	ab := rre.MustParse("a.b")
	cache.land(Key{Pattern: ab.String()}, NewVersioned(snap, 0, NewCache()).Commuting(ab), ab.Labels())
	next, d := applyBatch(snap, 0, []deltaOp{{op: "add-edge", u: 2, v: 4, label: "a"}})
	view := &pausingView{View: next, label: "a", reached: make(chan struct{}), release: make(chan struct{})}
	done := make(chan CommitResult)
	go func() { done <- cache.Commit(view, d, at(1)) }()

	<-view.reached
	ac := rre.MustParse("a.c")
	NewVersioned(snap, 0, cache).Commuting(ac) // lands a.c, a and c open at v0
	close(view.release)
	if res := <-done; res.Maintained != 1 {
		t.Fatalf("Commit = %+v, want a.b maintained", res)
	}

	got := NewVersioned(next, 1, cache).Commuting(ac)
	if want := NewVersioned(next, 0, NewCache()).Commuting(ac); !got.Equal(want) {
		t.Fatalf("a.c built at v0 during the commit answers at v1:\n%vwant\n%v", got, want)
	}
	checkAgainstRecompute(t, cache, 1, next)
}
