package graph_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"relsim/internal/datasets"
	"relsim/internal/graph"
)

// referenceWrite is the encoder WriteView replaced: one reflected
// json.Encoder.Encode per record. WriteView's bytes must stay exactly
// these — checkpoints, the replication bootstrap and the CLI's files
// are all this format.
func referenceWrite(t *testing.T, g *graph.Graph) []byte {
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
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(graph.NodeID(i))
		if err := enc.Encode(&record{Node: &nodeRecord{ID: n.ID, Name: n.Name, Type: n.Type}}); err != nil {
			t.Fatal(err)
		}
	}
	g.EachEdge(func(e graph.Edge) {
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
		want := referenceWrite(t, g)
		for view, v := range map[string]interface {
			NumNodes() int
			Node(graph.NodeID) graph.Node
			EachEdge(func(graph.Edge))
		}{"graph": g, "snapshot": g.Snapshot()} {
			var got bytes.Buffer
			if err := graph.WriteView(&got, v); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s (%s): WriteView differs from the reference encoder at byte %d of %d",
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
		if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: round trip kept %d nodes, %d edges of %d, %d",
				name, back.NumNodes(), back.NumEdges(), g.NumNodes(), g.NumEdges())
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
