package store

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"relsim/internal/graph"
)

// TestSnapshotIsolationNoTornReads is the MVCC property test: writers
// commit transactions that each add one node and one edge (so every
// committed version V = 2k has exactly 1+k nodes and k edges), while
// readers pin snapshots and assert the invariant — a torn read (a
// snapshot mixing two versions' state) breaks the arithmetic. Run with
// -race.
func TestSnapshotIsolationNoTornReads(t *testing.T) {
	g := graph.New()
	root := g.AddNode("root", "t")
	s := New(g)

	const (
		writers = 4
		readers = 4
		txPerW  = 100
	)
	var writeWG, readWG sync.WaitGroup
	var stop atomic.Bool
	errs := make(chan string, readers*4+writers)

	report := func(msg string) {
		select {
		case errs <- msg:
		default:
		}
	}

	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func() {
			defer writeWG.Done()
			for i := 0; i < txPerW; i++ {
				err := s.Update(func(tx *Tx) error {
					id := tx.AddNode("", "t")
					return tx.AddEdge(root, "e", id)
				})
				if err != nil {
					report(err.Error())
					return
				}
			}
		}()
	}

	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for !stop.Load() {
				pin := s.Pin()
				snap, v := pin.Snapshot(), pin.Version()
				if v%2 != 0 {
					report("pinned version is mid-transaction")
				}
				k := int(v / 2)
				if got := snap.NumNodes(); got != 1+k {
					report("torn read: nodes do not match version")
				}
				if got := snap.NumEdges(); got != k {
					report("torn read: edges do not match version")
				}
				// The snapshot must stay frozen: re-derive the counts
				// from the adjacency after yielding to the writers.
				runtime.Gosched()
				if got := len(snap.Out(root, "e")); got != k {
					report("pinned snapshot changed under the reader")
				}
				pin.Release()
			}
		}()
	}

	writeWG.Wait()
	stop.Store(true)
	readWG.Wait()

	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if got, want := s.Version(), uint64(2*writers*txPerW); got != want {
		t.Errorf("final version = %d, want %d", got, want)
	}
	snap, _ := s.Snapshot()
	if snap.NumNodes() != 1+writers*txPerW || snap.NumEdges() != writers*txPerW {
		t.Errorf("final graph = %d nodes %d edges", snap.NumNodes(), snap.NumEdges())
	}
	if ps := s.PinStats(); ps.Readers != 0 {
		t.Errorf("pins leaked: %+v", ps)
	}
}

// TestUpdateRollsBackAtomically: a failing transaction publishes
// nothing, even when earlier mutations in the batch succeeded.
func TestUpdateRollsBackAtomically(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a", "t")
	b := g.AddNode("b", "t")
	g.AddEdge(a, "x", b)
	s := New(g)

	var seen int
	s.BeforePublish(func(c Commit) { seen += len(c.Updates) })

	err := s.Update(func(tx *Tx) error {
		tx.AddNode("c", "t")
		if err := tx.AddEdge(a, "y", b); err != nil {
			return err
		}
		return tx.RemoveEdge(a, "nope", b) // fails
	})
	if err == nil {
		t.Fatal("want error from failing batch")
	}
	if s.Version() != 0 {
		t.Errorf("failed batch bumped version to %d", s.Version())
	}
	snap, _ := s.Snapshot()
	if snap.NumNodes() != 2 || snap.NumEdges() != 1 {
		t.Errorf("failed batch leaked state: %d nodes %d edges", snap.NumNodes(), snap.NumEdges())
	}
	if seen != 0 {
		t.Errorf("hook saw %d updates from a rolled-back batch", seen)
	}
	if len(s.Log(0)) != 0 {
		t.Errorf("rolled-back batch reached the log: %+v", s.Log(0))
	}
}

// TestPinStats tracks pin registration across versions.
func TestPinStats(t *testing.T) {
	s := New(nil)
	s.AddNode("a", "t")
	p0 := s.Pin() // version 1
	s.AddNode("b", "t")
	p1 := s.Pin() // version 2
	s.AddNode("c", "t")

	ps := s.PinStats()
	if ps.Live != 3 || ps.Readers != 2 || ps.Spread != 2 {
		t.Errorf("PinStats = %+v, want live 3, 2 readers, spread 2", ps)
	}
	if len(ps.Pinned) == 0 || ps.Pinned[0] != 1 {
		t.Errorf("oldest pinned = %v, want 1", ps.Pinned)
	}
	p0.Release()
	p0.Release() // idempotent
	if ps := s.PinStats(); ps.Readers != 1 || ps.Spread != 1 {
		t.Errorf("after release: %+v", ps)
	}
	p1.Release()
	if ps := s.PinStats(); ps.Readers != 0 || ps.Spread != 0 || len(ps.Pinned) != 0 || ps.Live != 3 {
		t.Errorf("after all releases: %+v, want no pinned version, live 3", ps)
	}
}

// TestWritersNeverBlockReaders: a reader's snapshot access completes
// while a writer transaction is deliberately parked mid-flight.
func TestWritersNeverBlockReaders(t *testing.T) {
	s := New(nil)
	a := s.AddNode("a", "t")
	b := s.AddNode("b", "t")
	s.AddEdge(a, "x", b)

	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Update(func(tx *Tx) error {
			tx.AddNode("c", "t")
			close(entered)
			<-release // writer holds the write lock ... readers must not care
			return nil
		})
	}()
	<-entered

	snap, v := s.Snapshot()
	if v != 3 || snap.NumNodes() != 2 {
		t.Errorf("reader during in-flight write saw version %d with %d nodes", v, snap.NumNodes())
	}
	if got := s.Stats(); got.Edges != 1 {
		t.Errorf("Stats during in-flight write = %+v", got)
	}
	close(release)
	<-done
	if v := s.Version(); v != 4 {
		t.Errorf("version after commit = %d, want 4", v)
	}
}
