package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"relsim/internal/datasets"
	"relsim/internal/graph"
	"relsim/internal/wal"
)

// benchCommit commits a mutation shaped like the benchmark's write k: a
// paper, an edge from it to a proc, a w edge from an author to it, and
// from k = 2 the removal of the w edge commit k-2 added, whose author is
// authors[k-2].
func benchCommit(t *testing.T, s *Store, rng *rand.Rand, k int, authors *[]graph.NodeID) {
	t.Helper()
	snap, _ := s.Snapshot()
	procs, all := snap.NodesOfType("proc"), snap.NodesOfType("author")
	author := all[rng.Intn(len(all))]
	*authors = append(*authors, author)
	err := s.Update(func(tx *Tx) error {
		paper := tx.AddNode(fmt.Sprintf("benchpaper%d", k), "paper")
		if err := tx.AddEdge(paper, "p-in", procs[rng.Intn(len(procs))]); err != nil {
			return err
		}
		if err := tx.AddEdge(author, "w", paper); err != nil {
			return err
		}
		if k >= 2 {
			old, _ := tx.NodeByName(fmt.Sprintf("benchpaper%d", k-2))
			return tx.RemoveEdge((*authors)[k-2], "w", old.ID)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("commit %d: %v", k, err)
	}
}

// referenceEncode writes s one reflected json.Encoder.Encode per record:
// the checkpoint format as encoding/json defines it.
func referenceEncode(t *testing.T, s *graph.Snapshot) []byte {
	t.Helper()
	type node struct {
		ID   graph.NodeID `json:"id"`
		Name string       `json:"name,omitempty"`
		Type string       `json:"type,omitempty"`
	}
	type edge struct {
		From  graph.NodeID `json:"from"`
		Label string       `json:"label"`
		To    graph.NodeID `json:"to"`
	}
	type record struct {
		Node *node `json:"node,omitempty"`
		Edge *edge `json:"edge,omitempty"`
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	enc := json.NewEncoder(bw)
	for i := 0; i < s.NumNodes(); i++ {
		n := s.Node(graph.NodeID(i))
		if err := enc.Encode(record{Node: &node{n.ID, n.Name, n.Type}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range s.Edges() {
		if err := enc.Encode(record{Edge: &edge{e.From, e.Label, e.To}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointEncodesWhatChanged: on FullDBLP, a durable store's seed
// checkpoint encodes the whole graph; after four benchmark-shaped
// commits the next checkpoint encodes only the blocks those commits
// touched (a node block, a p-in block and the w blocks of four authors),
// at most 16 blocks and 10 % of the graph's bytes, read off the store's
// counters, and appends to the block log exactly what it encoded:
// 147,671 bytes (and a manifest), where a checkpoint written whole
// wrote all 3,653,199. The checkpoint it streams is still the whole
// graph, byte for byte.
func TestCheckpointEncodesWhatChanged(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithSeed(datasets.DBLP(datasets.FullDBLP()).Graph), WithSync(wal.SyncNever), WithCheckpointEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	seed, _ := s.Snapshot()
	counters := func() (written, encoded uint64) { return s.dur.checkpointBytes.Load(), s.dur.checkpointEncoded.Load() }
	firstWritten, firstEncoded := counters()
	if firstWritten == 0 || firstEncoded != firstWritten {
		t.Fatalf("seed checkpoint wrote %d bytes, encoded %d: want all of them encoded", firstWritten, firstEncoded)
	}
	rng := rand.New(rand.NewSource(44))
	var authors []graph.NodeID
	for k := 0; k < 4; k++ {
		benchCommit(t, s, rng, k, &authors)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	written, encoded := counters()
	written, encoded = written-firstWritten, encoded-firstEncoded
	rc, _, size, err := s.CheckpointReader()
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("second checkpoint: encoded %d of %d bytes, appended %d", encoded, size, written)
	if encoded*10 > uint64(size) {
		t.Errorf("second checkpoint encoded %d of %d bytes, want at most 10 %%", encoded, size)
	}
	if written != encoded {
		t.Errorf("second checkpoint appended %d bytes, want the %d it encoded", written, encoded)
	}

	// The blocks the commits touched: replay the same updates from the
	// seed version in a second chain, which shares the seed's encoded
	// blocks and encodes the rest itself.
	replay := seed
	for _, u := range s.Log(0) {
		b := graph.NewBuilder(replay)
		if err := applyUpdate(b, u); err != nil {
			t.Fatal(err)
		}
		replay = b.Build()
	}
	ws, err := graph.WriteView(io.Discard, replay)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("replayed chain: encoded %d blocks", ws.EncodedBlocks)
	if ws.EncodedBlocks > 16 || uint64(ws.Encoded) != encoded || ws.Bytes != size {
		t.Errorf("replayed chain encoded %d blocks, %d of %d bytes; want at most 16 blocks and the checkpoint's %d of %d bytes",
			ws.EncodedBlocks, ws.Encoded, ws.Bytes, encoded, size)
	}

	cur, _ := s.Snapshot()
	if want := referenceEncode(t, cur); !bytes.Equal(got, want) {
		t.Fatalf("checkpoint stream (%d bytes) is not the reference encoding of the graph (%d bytes)", len(got), len(want))
	}
}

// TestNodeAddingCommitAllocates: a commit that adds one node to FullDBLP
// appends to the node table, the type column and the type's id list in
// place, so it allocates what the commit is, not what the graph is.
// Copying them cost 935,578 bytes a commit. The first commit is not
// measured: the seed snapshot's type column has no room to grow yet.
func TestNodeAddingCommitAllocates(t *testing.T) {
	skipUnderRace(t)
	s := New(datasets.DBLP(datasets.FullDBLP()).Graph)
	s.AddNode("warm", "paper")
	const commits = 16
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for k := 0; k < commits; k++ {
		s.AddNode(fmt.Sprintf("benchpaper%d", k), "paper")
	}
	runtime.ReadMemStats(&after)
	perCommit := (after.TotalAlloc - before.TotalAlloc) / commits
	t.Logf("a node-adding commit allocates %d bytes", perCommit)
	if perCommit >= 16<<10 {
		t.Errorf("a node-adding commit allocates %d bytes, want < 16 KB", perCommit)
	}
	if snap, _ := s.Snapshot(); len(snap.NodesOfType("paper")) == 0 || snap.NumNodes() != 19404+1+commits {
		t.Fatalf("store holds %d nodes, want %d", snap.NumNodes(), 19404+1+commits)
	}
}
