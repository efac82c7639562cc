package eval

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"relsim/internal/graph"
	"relsim/internal/rre"
	"relsim/internal/sparse"
)

// TestWarmScoringTakesNoLock: on an unbounded cache a warm Scoring call
// reads the published cut table, so it returns while another
// goroutine holds the cache's lock, and counts its two halves as hits.
// A bounded cache keeps the locked, exactly-LRU lookup: there the same
// call waits for the lock.
func TestWarmScoringTakesNoLock(t *testing.T) {
	c := NewCache()
	ev := NewVersioned(cacheTestGraph().Snapshot(), 0, c)
	cut := []Cut{NewCut(rre.MustParse("a.b.c"))}
	ev.Scoring(cut, nop) // cold: builds the halves and publishes the slot
	hits := ev.Counters().Hits.Load()

	warm := func() <-chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			ev.Scoring(cut, nop)
		}()
		return done
	}
	c.mu.Lock()
	select {
	case <-warm():
	case <-time.After(10 * time.Second):
		c.mu.Unlock()
		t.Fatal("a warm Scoring call on an unbounded cache waited for the cache lock")
	}
	c.mu.Unlock()
	if got := ev.Counters().Hits.Load() - hits; got != 2 {
		t.Fatalf("a warm Scoring call counted %d hits, want its 2 halves", got)
	}

	c.SetLimit(100)
	c.mu.Lock()
	done := warm()
	select {
	case <-done:
		c.mu.Unlock()
		t.Fatal("a warm Scoring call on a bounded cache returned without the cache lock")
	case <-time.After(20 * time.Millisecond):
	}
	c.mu.Unlock()
	<-done
}

// scoringRead is what Scoring returns for one term.
type scoringRead struct {
	a, b *sparse.Matrix
	diag *sparse.Vector
}

// coldScoring is what Scoring must return for each term of the cuts at
// snap, in order: halves recomputed by a fresh evaluator, B transposed
// afresh, and the diagonal built in full.
func coldScoring(snap *graph.Snapshot, cuts []Cut) []scoringRead {
	cold := NewVersioned(snap, 0, NewCache())
	var out []scoringRead
	for _, t := range terms(cuts) {
		a, bt := cold.Commuting(t.Left), cold.Commuting(t.RevRight)
		out = append(out, scoringRead{a, bt.Transpose(), sparse.ProductDiagonal(a, bt)})
	}
	return out
}

// terms lists the terms of the cuts, in the order Scoring reads them.
func terms(cuts []Cut) []Term {
	var out []Term
	for _, c := range cuts {
		out = append(out, c...)
	}
	return out
}

// TestCutTableStorm runs scoring readers against a writer that commits
// through the cache (with and without a reader pinned at the old
// version, so closed entries stay or drop) and switches the cache
// between bounded and unbounded. Each reader binds to one of the
// versions still pinned and scores warm cuts; everything Scoring
// returns must equal a cold recompute at that version. Under -race this
// is the check that the lock-free read of a published table sees only
// whole slots, each holding the halves valid at its version.
func TestCutTableStorm(t *testing.T) {
	labels := []string{"a", "b", "c"}
	rng := rand.New(rand.NewSource(37))
	snap := randomGraph(rng, 30, 240, labels).Snapshot()
	var cuts []Cut
	for _, s := range []string{"a.b", "a.b-.c", "<a.b>.c", "[a.b].c-", "(a + b-).c", "a-.[b].c", "<a>.<b->", "c.c-", "a.b.c.a-"} {
		cuts = append(cuts, NewCut(rre.MustParse(s)))
	}
	ts := terms(cuts)
	type version struct {
		v    uint64
		snap *graph.Snapshot
		want []scoringRead
	}
	cache := NewCache()
	NewVersioned(snap, 0, cache).Scoring(cuts, nop)
	var mu sync.Mutex
	live := []*version{{0, snap, coldScoring(snap, cuts)}}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	reads := make([]int, 4)
	for r := range reads {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				ver := live[rng.Intn(len(live))]
				mu.Unlock()
				i, bad := 0, false
				NewVersioned(ver.snap, ver.v, cache).Scoring(cuts, func(a, b *sparse.Matrix, diag *sparse.Vector, _ bool) {
					w := ver.want[i]
					if !bad && (!a.Equal(w.a) || !b.Equal(w.b) || !diag.Equal(w.diag)) {
						t.Errorf("reader at v%d: term %d (%s | %s) reads something a cold recompute does not", ver.v, i, ts[i].Left, ts[i].RevRight)
						bad = true
					}
					i++
				})
				if bad {
					return
				}
				reads[r]++
			}
		}(r)
	}

	const commits = 60
	for i := 0; i < commits; i++ {
		n := snap.NumNodes()
		var ops []deltaOp
		if i%6 == 5 {
			ops = append(ops, deltaOp{op: "add-node"})
		}
		for k := 0; k < 1+rng.Intn(3); k++ {
			op := "add-edge"
			if rng.Intn(3) == 0 {
				op = "remove-edge"
			}
			ops = append(ops, deltaOp{op: op, u: graph.NodeID(rng.Intn(n)), v: graph.NodeID(rng.Intn(n)), label: labels[rng.Intn(len(labels))]})
		}
		v := uint64(i)
		next, d := applyBatch(snap, v, ops)
		// Readers stay pinned at the last three versions, except that
		// every third commit unpins all but the new one, so the commit
		// drops what it closes instead of keeping it. The new version
		// is read only once the commit has run.
		keep := 3
		if i%3 == 0 {
			keep = 1
		}
		mu.Lock()
		pinned := append(live, &version{v + 1, next, coldScoring(next, cuts)})
		pinned = pinned[max(0, len(pinned)-keep):]
		mu.Unlock()
		cache.Commit(next, d, at(pinned[0].v))
		mu.Lock()
		live = pinned
		mu.Unlock()
		switch i % 10 {
		case 3:
			cache.SetLimit(12)
		case 7:
			cache.SetLimit(0)
		}
		snap = next
		time.Sleep(time.Millisecond)
	}
	close(stop)
	readers.Wait()
	for r, n := range reads {
		if n == 0 {
			t.Errorf("reader %d scored nothing", r)
		}
	}
	if cache.cutHits.Load() == 0 {
		t.Error("no read was served by a cut table")
	}
}

// nop reads nothing of a term.
func nop(_, _ *sparse.Matrix, _ *sparse.Vector, _ bool) {}

// TestReplacedHalfKillsItsSlot: a slot lives while both its halves are
// its version's entries. Storing another matrix under a half's key kills
// the slot, as evicting the half does; storing the same matrix again
// keeps it.
func TestReplacedHalfKillsItsSlot(t *testing.T) {
	c := NewCache()
	ev := NewVersioned(cacheTestGraph().Snapshot(), 0, c)
	cut := NewCut(rre.MustParse("a.b.c"))
	ev.Scoring([]Cut{cut}, nop)
	k := cutKey{cut[0].Left.String(), cut[0].RevRight.String()}
	if c.slotsAt(0) != 1 {
		t.Fatal("a cold Scoring call kept no slot")
	}
	c.mu.Lock()
	c.insertLocked(Key{Pattern: k.left}, (*c.cuts.Load())[k][0].a, cut[0].Left)
	same := c.slotsAt(0) == 1
	c.insertLocked(Key{Pattern: k.right}, (*c.cuts.Load())[k][0].bt.Transpose().Transpose(), cut[0].RevRight)
	replaced := c.slotsAt(0) == 1
	c.mu.Unlock()
	if !same || replaced {
		t.Fatalf("slot kept after storing the same half: %v, after replacing a half: %v; want true, false", same, replaced)
	}
}
