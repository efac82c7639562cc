package graph_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"relsim/internal/datasets"
	"relsim/internal/graph"
)

// referenceWrite is the encoder WriteView replaced: one reflected
// json.Encoder.Encode per record. WriteView's bytes must stay exactly
// these — checkpoints, the replication bootstrap and the CLI's files
// are all this format.
func referenceWrite(t *testing.T, s *graph.Snapshot) []byte {
	t.Helper()
	type nodeRecord struct {
		ID   graph.NodeID `json:"id"`
		Name string       `json:"name,omitempty"`
		Type string       `json:"type,omitempty"`
	}
	type edgeRecord struct {
		From  graph.NodeID `json:"from"`
		Label string       `json:"label"`
		To    graph.NodeID `json:"to"`
	}
	type record struct {
		Node *nodeRecord `json:"node,omitempty"`
		Edge *edgeRecord `json:"edge,omitempty"`
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	enc := json.NewEncoder(bw)
	for i := 0; i < s.NumNodes(); i++ {
		n := s.Node(graph.NodeID(i))
		if err := enc.Encode(&record{Node: &nodeRecord{ID: n.ID, Name: n.Name, Type: n.Type}}); err != nil {
			t.Fatal(err)
		}
	}
	s.EachEdge(func(e graph.Edge) {
		if err := enc.Encode(&record{Edge: &edgeRecord{From: e.From, Label: e.Label, To: e.To}}); err != nil {
			t.Fatal(err)
		}
	})
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// adversarialGraph names nodes, types and labels with everything
// encoding/json escapes or rewrites: quotes and backslashes, the
// HTML-safe set, control bytes, DEL, U+2028/U+2029, multi-byte runes
// and invalid UTF-8, besides empty names and types.
func adversarialGraph() *graph.Graph {
	names := []string{
		"", "plain", `quo"te`, `back\slash`, "<tag>", "a&b", "tab\there", "nl\nhere", "\x00nul", "\x1f", "del\x7f",
		"line sep", "para sep", "héllo", "日本語", "\xff\xfe", "trunc\xe2\x82", "mixed<\xc3>& \"",
	}
	g := graph.New()
	for i, name := range names {
		g.AddNode(name, names[(i+3)%len(names)])
	}
	for i, label := range names[1:] {
		g.AddEdge(graph.NodeID(i), label, graph.NodeID((i+5)%len(names)))
	}
	return g
}

func TestWriteViewBytesMatchReferenceEncoder(t *testing.T) {
	ds, err := datasets.ByName("dblp-small")
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{"dblp-small": ds.Graph, "adversarial": adversarialGraph()} {
		want := referenceWrite(t, g.Snapshot())
		for view, write := range map[string]func(w *bytes.Buffer) error{
			"Write":     func(w *bytes.Buffer) error { return graph.Write(w, g) },
			"WriteView": func(w *bytes.Buffer) error { _, err := graph.WriteView(w, g.Snapshot()); return err },
		} {
			var got bytes.Buffer
			if err := write(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s (%s): output differs from the reference encoder at byte %d of %d",
					name, view, firstDiff(got.Bytes(), want), len(want))
			}
		}
		// And the format still reads back: exactly for dblp-small, and
		// for the adversarial graph up to the invalid UTF-8 that json
		// replaces with U+FFFD on the way out.
		back, err := graph.Read(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("%s: Read(WriteView(g)): %v", name, err)
		}
		if back.NumNodes() != g.NumNodes() || back.Snapshot().NumEdges() != g.Snapshot().NumEdges() {
			t.Fatalf("%s: round trip kept %d nodes, %d edges of %d, %d",
				name, back.NumNodes(), back.Snapshot().NumEdges(), g.NumNodes(), g.Snapshot().NumEdges())
		}
		if name == "dblp-small" && !back.Equal(g) {
			t.Fatalf("%s: Read(WriteView(g)) is not g", name)
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestWriteViewFollowsCommitChains derives 200 versions by random
// builders: node additions that cross block boundaries, edges under old
// and new labels, removals down to a label's last edge, forks from older
// versions, and builders rolled back after they took their base's tail
// claim. Some versions are written when they are made and some are not,
// so blocks are filled by whichever version writes them first. Every
// version's WriteView must equal the reference encoding of its own
// graph, when it is made and again at the end, after every later
// version shared or extended what it holds.
func TestWriteViewFollowsCommitChains(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	types := []string{"a", "b", "c"}
	g := graph.New()
	for i := 0; i < 600; i++ {
		g.AddNode(fmt.Sprintf("n%d", i), types[i%len(types)])
	}
	for i := 0; i < 1500; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(600)), []string{"x", "y"}[rng.Intn(2)], graph.NodeID(rng.Intn(600)))
	}
	type version struct {
		snap *graph.Snapshot
		want []byte
	}
	versions := []version{{g.Snapshot(), referenceWrite(t, g.Snapshot())}}
	check := func(step int, v version) {
		t.Helper()
		var got bytes.Buffer
		if _, err := graph.WriteView(&got, v.snap); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), v.want) {
			t.Fatalf("step %d: WriteView differs from the reference encoder at byte %d of %d",
				step, firstDiff(got.Bytes(), v.want), len(v.want))
		}
	}
	labels := []string{"x", "y", "z", "w"}
	for step := 0; step < 200; step++ {
		base := versions[len(versions)-1]
		if rng.Intn(4) == 0 {
			base = versions[rng.Intn(len(versions))] // a fork
		}
		b := graph.NewBuilder(base.snap)
		adds := rng.Intn(3)
		if rng.Intn(20) == 0 {
			adds = 300
		}
		for i := 0; i < adds; i++ {
			b.AddNode(fmt.Sprintf("s%d-%d", step, i), types[rng.Intn(len(types))])
		}
		for i := rng.Intn(6); i > 0; i-- {
			n := b.NumNodes()
			if err := b.AddEdge(graph.NodeID(rng.Intn(n)), labels[rng.Intn(len(labels))], graph.NodeID(rng.Intn(n))); err != nil {
				t.Fatal(err)
			}
		}
		edges := base.snap.Edges()
		for i := rng.Intn(4); i > 0 && len(edges) > 0; i-- {
			e := edges[rng.Intn(len(edges))]
			b.RemoveEdge(e.From, e.Label, e.To)
		}
		if rng.Intn(12) == 0 { // a label loses its last edge
			l := labels[rng.Intn(len(labels))]
			for _, e := range edges {
				if e.Label == l {
					b.RemoveEdge(e.From, e.Label, e.To)
				}
			}
		}
		if rng.Intn(8) == 0 {
			continue // rolled back
		}
		next := version{snap: b.Build()}
		next.want = referenceWrite(t, next.snap)
		if rng.Intn(3) > 0 {
			check(step, next)
		}
		versions = append(versions, next)
	}
	for step, v := range versions {
		check(step, v)
		if again := referenceWrite(t, v.snap); !bytes.Equal(again, v.want) {
			t.Fatalf("version %d changed after later versions were derived from it", step)
		}
	}
}

// TestConcurrentForksShareBlocks races builders for one base's tail
// claim and writes the versions they derive, and the base, from several
// goroutines at once, so shared blocks are filled concurrently. Run it
// under -race.
func TestConcurrentForksShareBlocks(t *testing.T) {
	ds, err := datasets.ByName("dblp-small")
	if err != nil {
		t.Fatal(err)
	}
	base := ds.Graph.Snapshot()
	want := referenceWrite(t, base)
	const forks = 4
	snaps := make([]*graph.Snapshot, forks)
	got := make([][]byte, 2*forks)
	var wg sync.WaitGroup
	for i := range forks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := graph.NewBuilder(base)
			u := b.AddNode(fmt.Sprintf("fork%d", i), "paper")
			if err := b.AddEdge(u, "w", graph.NodeID(i)); err != nil {
				t.Error(err)
				return
			}
			snaps[i] = b.Build()
			for j, s := range []*graph.Snapshot{snaps[i], base} {
				var buf bytes.Buffer
				if _, err := graph.WriteView(&buf, s); err != nil {
					t.Error(err)
				}
				got[2*i+j] = buf.Bytes()
			}
		}()
	}
	wg.Wait()
	for i, s := range snaps {
		if s == nil {
			t.FailNow()
		}
		if !bytes.Equal(got[2*i], referenceWrite(t, s)) || !bytes.Equal(got[2*i+1], want) {
			t.Fatalf("fork %d: a concurrent write differs from the reference encoder", i)
		}
	}
}
