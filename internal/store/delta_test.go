package store

import (
	"slices"
	"testing"

	"relsim/internal/graph"
	"relsim/internal/sparse"
)

// deltaTriples lists a delta's entries in row-major order (nil for a
// missing label).
func deltaTriples(d *sparse.Delta) []sparse.Triple {
	var ts []sparse.Triple
	if d != nil {
		d.Each(func(r, c int, v int64) { ts = append(ts, sparse.Triple{Row: r, Col: c, Val: v}) })
	}
	return ts
}

// TestSummarizeUpdates drives real commits through a Store and checks
// the hook-side summary matches what was committed, including the
// signed cancellation of an edge added and removed across batches.
func TestSummarizeUpdates(t *testing.T) {
	st := New(nil)
	var got []BatchDelta
	st.BeforePublish(func(c Commit) {
		d := SummarizeUpdates(c.Updates)
		if c.Snap.NumNodes() < d.NodesAdded {
			t.Errorf("snapshot to publish has %d nodes, batch added %d", c.Snap.NumNodes(), d.NodesAdded)
		}
		if d.From != c.From || d.To != c.To {
			t.Errorf("summary spans v%d→v%d, the commit v%d→v%d", d.From, d.To, c.From, c.To)
		}
		if _, v := st.Snapshot(); v != c.From {
			t.Errorf("Snapshot() inside the hook returns v%d, want the old v%d", v, c.From)
		}
		got = append(got, d)
	})

	var a, b graph.NodeID
	if err := st.Update(func(tx *Tx) error {
		a = tx.AddNode("a", "")
		b = tx.AddNode("b", "")
		if err := tx.AddEdge(a, "knows", b); err != nil {
			return err
		}
		return tx.AddEdge(a, "knows", b)
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Update(func(tx *Tx) error {
		return tx.RemoveEdge(a, "knows", b)
	}); err != nil {
		t.Fatal(err)
	}

	if len(got) != 2 {
		t.Fatalf("observed %d batches, want 2", len(got))
	}

	d0 := got[0]
	if d0.From != 0 || d0.To != 4 || d0.NodesAdded != 2 {
		t.Fatalf("batch 0 = %+v, want From=0 To=4 NodesAdded=2", d0)
	}
	snap, _ := st.Snapshot()
	n := snap.NumNodes()
	if got := deltaTriples(d0.LabelDeltas(n)["knows"]); !slices.Equal(got, []sparse.Triple{{Row: int(a), Col: int(b), Val: 2}}) {
		t.Fatalf("batch 0 knows delta = %v, want 2 at (a,b)", got)
	}

	d1 := got[1]
	if d1.From != 4 || d1.To != 5 || d1.NodesAdded != 0 {
		t.Fatalf("batch 1 = %+v, want From=4 To=5", d1)
	}
	if got := deltaTriples(d1.LabelDeltas(n)["knows"]); !slices.Equal(got, []sparse.Triple{{Row: int(a), Col: int(b), Val: -1}}) {
		t.Fatalf("batch 1 knows delta = %v, want -1 at (a,b)", got)
	}
	if _, knows := d1.Edges["knows"]; len(d1.Edges) != 1 || !knows {
		t.Fatalf("batch 1 touches %v, want knows alone", d1.Edges)
	}
}

// TestSummarizeCancellation: an edge added and removed in one batch
// cancels to an empty delta but still marks the label touched.
func TestSummarizeCancellation(t *testing.T) {
	d := SummarizeUpdates([]Update{
		{Version: 3, Op: OpAddEdge, Edge: graph.Edge{From: 0, Label: "x", To: 1}},
		{Version: 4, Op: OpRemoveEdge, Edge: graph.Edge{From: 0, Label: "x", To: 1}},
	})
	if d.From != 2 || d.To != 4 {
		t.Fatalf("range = [%d,%d], want [2,4]", d.From, d.To)
	}
	m := d.LabelDeltas(2)["x"]
	if m == nil || m.NNZ() != 0 || m.Dim() != 2 {
		t.Fatalf("cancelled delta = %v, want the empty 2×2 delta", deltaTriples(m))
	}
	if _, x := d.Edges["x"]; len(d.Edges) != 1 || !x {
		t.Fatalf("touched %v, want the touched label even when cancelled", d.Edges)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	d := SummarizeUpdates(nil)
	if len(d.Edges) != 0 || d.NodesAdded != 0 {
		t.Fatalf("empty summary = %+v", d)
	}
}
