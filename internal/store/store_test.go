package store

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"relsim/internal/graph"
)

func newTestStore(t *testing.T) (*Store, graph.NodeID, graph.NodeID) {
	t.Helper()
	g := graph.New()
	a := g.AddNode("a", "t")
	b := g.AddNode("b", "t")
	g.AddEdge(a, "x", b)
	return New(g), a, b
}

func TestVersionMonotonic(t *testing.T) {
	s, a, b := newTestStore(t)
	if s.Version() != 0 {
		t.Fatalf("fresh store version = %d, want 0", s.Version())
	}
	if err := s.AddEdge(a, "y", b); err != nil {
		t.Fatal(err)
	}
	if s.Version() != 1 {
		t.Fatalf("after AddEdge version = %d, want 1", s.Version())
	}
	c := s.AddNode("c", "t")
	if s.Version() != 2 {
		t.Fatalf("after AddNode version = %d, want 2", s.Version())
	}
	if err := s.AddEdge(b, "y", c); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveEdge(b, "y", c); err != nil {
		t.Fatal(err)
	}
	if s.Version() != 4 {
		t.Fatalf("version = %d, want 4", s.Version())
	}
}

func TestMutationsValidate(t *testing.T) {
	s, a, _ := newTestStore(t)
	if err := s.AddEdge(a, "x", 99); err == nil {
		t.Error("AddEdge to missing node: want error")
	}
	if err := s.AddEdge(a, "", a); err == nil {
		t.Error("AddEdge with empty label: want error")
	}
	if err := s.RemoveEdge(a, "nope", a); err == nil {
		t.Error("RemoveEdge of missing edge: want error")
	}
	if s.Version() != 0 {
		t.Errorf("failed mutations bumped version to %d", s.Version())
	}
}

func TestRemoveEdgeRoundTrip(t *testing.T) {
	s, a, b := newTestStore(t)
	if err := s.RemoveEdge(a, "x", b); err != nil {
		t.Fatal(err)
	}
	s.Read(func(g *graph.Snapshot, _ uint64) error {
		if g.NumEdges() != 0 {
			t.Errorf("NumEdges = %d, want 0", g.NumEdges())
		}
		if slices.Contains(g.Labels(), "x") {
			t.Error("label x still present after removing its last edge")
		}
		return nil
	})
	if err := s.AddEdge(a, "x", b); err != nil {
		t.Fatal(err)
	}
	s.Read(func(g *graph.Snapshot, _ uint64) error {
		if !g.HasEdge(a, "x", b) {
			t.Error("edge missing after re-add")
		}
		return nil
	})
}

func TestUpdateLogAndObserver(t *testing.T) {
	s, a, b := newTestStore(t)
	var observed []Update
	var published *graph.Snapshot
	s.BeforePublish(func(c Commit) {
		if snap, v := s.Snapshot(); v != c.From || snap == c.Snap {
			t.Errorf("Snapshot() inside the hook returns v%d, want the old v%d, not the one to publish", v, c.From)
		}
		published = c.Snap
		observed = append(observed, c.Updates...)
	})

	err := s.Update(func(tx *Tx) error {
		c := tx.AddNode("c", "t")
		if err := tx.AddEdge(b, "y", c); err != nil {
			return err
		}
		return tx.RemoveEdge(a, "x", b)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(observed) != 3 {
		t.Fatalf("hook saw %d updates, want 3", len(observed))
	}
	if snap, _ := s.Snapshot(); published != snap {
		t.Fatal("hook was not handed the snapshot the batch published")
	}
	wantOps := []Op{OpAddNode, OpAddEdge, OpRemoveEdge}
	for i, u := range observed {
		if u.Op != wantOps[i] {
			t.Errorf("update %d op = %s, want %s", i, u.Op, wantOps[i])
		}
		if u.Version != uint64(i+1) {
			t.Errorf("update %d version = %d, want %d", i, u.Version, i+1)
		}
	}
	log := s.Log(0)
	if len(log) != 3 {
		t.Fatalf("Log(0) returned %d records, want 3", len(log))
	}
	if tail := s.Log(2); len(tail) != 1 || tail[0].Op != OpRemoveEdge {
		t.Errorf("Log(2) = %+v, want the remove-edge record only", tail)
	}
}

// TestResetRunsBeforePublish: a Reset runs the pre-publication hook
// with no updates — everything touched — at the same version too, while
// Snapshot still returns the graph it replaces, and not for a refused
// backwards Reset.
func TestResetRunsBeforePublish(t *testing.T) {
	s, a, b := newTestStore(t)
	if err := s.AddEdge(b, "x", a); err != nil {
		t.Fatal(err)
	}
	var seen []Commit
	s.BeforePublish(func(c Commit) {
		if snap, v := s.Snapshot(); v != c.From || snap == c.Snap {
			t.Errorf("Snapshot() inside the hook returns v%d, want the old v%d, not the one to publish", v, c.From)
		}
		seen = append(seen, c)
	})
	for _, v := range []uint64{1, 4, 2} {
		g := graph.New() // a snapshot of its own per Reset
		g.AddNode("z", "t")
		s.Reset(g.Snapshot(), v)
	}
	if len(seen) != 2 {
		t.Fatalf("hook ran %d times for two Resets and a refused one", len(seen))
	}
	for i, want := range []Commit{{From: 1, To: 1}, {From: 1, To: 4}} {
		if c := seen[i]; c.From != want.From || c.To != want.To || c.Updates != nil || c.Snap.NumNodes() != 1 {
			t.Errorf("Reset %d: hook saw v%d→v%d with %d updates over %d nodes, want v%d→v%d, none, 1",
				i, c.From, c.To, len(c.Updates), c.Snap.NumNodes(), want.From, want.To)
		}
	}
}

func TestLogRetentionBound(t *testing.T) {
	s, a, b := newTestStore(t)
	for i := 0; i < DefaultLogCap+10; i++ {
		if err := s.AddEdge(a, "x", b); err != nil {
			t.Fatal(err)
		}
	}
	log := s.Log(0)
	if len(log) != DefaultLogCap {
		t.Fatalf("retained %d records, want %d", len(log), DefaultLogCap)
	}
	if got, want := log[len(log)-1].Version, s.Version(); got != want {
		t.Errorf("newest retained version = %d, want %d", got, want)
	}
}

// TestFullLogCommitAllocates: once the update log holds DefaultLogCap
// records, a commit drops the oldest by slicing, so a node-only commit
// allocates what one made before the log filled did. Copying the
// retained records on every trim made it 1,384 → 28,664 bytes here
// (1,400 with the front sliced off). Each
// commit is measured alone and the median taken, so the log's
// occasional regrowth, which moves the kept records once, is not what
// is compared. Every node takes one name, so the graph's name index,
// which copies the names added since its last fold, stays one entry.
func TestFullLogCommitAllocates(t *testing.T) {
	skipUnderRace(t)
	s, _, _ := newTestStore(t)
	commits := 0
	median := func(k int) uint64 {
		bytes := make([]uint64, k)
		var before, after runtime.MemStats
		for i := range bytes {
			runtime.ReadMemStats(&before)
			s.AddNode("n", "t")
			runtime.ReadMemStats(&after)
			bytes[i], commits = after.TotalAlloc-before.TotalAlloc, commits+1
		}
		slices.Sort(bytes)
		return bytes[k/2]
	}
	early := median(21)
	for ; commits < DefaultLogCap+300; commits++ {
		s.AddNode("n", "t")
	}
	full := median(21)
	t.Logf("a node-only commit allocates %d bytes with the log filling, %d with it full", early, full)
	if len(s.Log(0)) != DefaultLogCap {
		t.Fatalf("log holds %d records, want %d", len(s.Log(0)), DefaultLogCap)
	}
	if full*2 > early*3 {
		t.Errorf("a node-only commit allocates %d bytes with the log full, want within 1.5× of %d", full, early)
	}
}

// TestNamedCommitAllocates: a node-adding commit adds its name to an
// index the versions share, so it costs the name it adds, not the names
// added before it. The median node-only commit after 1,000 distinctly
// named commits allocates within 1.5× of one before them; cloning an
// overlay of the names added since a fold made it 28.5 KB after 556.
func TestNamedCommitAllocates(t *testing.T) {
	skipUnderRace(t)
	s, _, _ := newTestStore(t)
	commits := 0
	median := func(k int) uint64 {
		bytes := make([]uint64, k)
		var before, after runtime.MemStats
		for i := range bytes {
			name := fmt.Sprintf("named%d", commits)
			runtime.ReadMemStats(&before)
			s.AddNode(name, "t")
			runtime.ReadMemStats(&after)
			bytes[i], commits = after.TotalAlloc-before.TotalAlloc, commits+1
		}
		slices.Sort(bytes)
		return bytes[k/2]
	}
	early := median(21)
	for commits < 1000 {
		s.AddNode(fmt.Sprintf("named%d", commits), "t")
		commits++
	}
	late := median(21)
	t.Logf("a named node-only commit allocates %d bytes early, %d after %d named commits", early, late, commits-21)
	if snap, _ := s.Snapshot(); func() bool { n, ok := snap.NodeByName("named500"); return !ok || n.Name != "named500" }() {
		t.Fatal("named500 does not resolve")
	}
	if late*2 > early*3 {
		t.Errorf("a named node-only commit allocates %d bytes after %d named commits, want within 1.5× of %d", late, commits-21, early)
	}
}

// skipUnderRace skips an allocation gate when the race detector is
// compiled in: its instrumentation allocates.
func skipUnderRace(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are inflated by the race detector")
			}
		}
	}
}

// TestConcurrentReadersAndWriters drives interleaved mutations and locked
// reads; run with -race to prove the locking is sound.
func TestConcurrentReadersAndWriters(t *testing.T) {
	s, a, b := newTestStore(t)
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s.AddEdge(a, "y", b)
				s.RemoveEdge(a, "y", b)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s.Read(func(g *graph.Snapshot, _ uint64) error {
					g.Degree(a)
					g.Edges()
					return nil
				})
				s.Stats()
				s.Log(0)
			}
		}()
	}
	wg.Wait()
	if got := s.Version(); got != 8*iters {
		t.Errorf("version = %d, want %d", got, 8*iters)
	}
}
