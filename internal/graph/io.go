package graph

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The on-disk format is line-oriented JSON: one record per line, either a
// node record {"node": {...}} or an edge record {"edge": {...}}. Nodes
// must appear before edges that reference them. The format is stable and
// diff-friendly, which the examples and CLI rely on.

type nodeRecord struct {
	ID   NodeID `json:"id"`
	Name string `json:"name,omitempty"`
	Type string `json:"type,omitempty"`
}

type edgeRecord struct {
	From  NodeID `json:"from"`
	Label string `json:"label"`
	To    NodeID `json:"to"`
}

type record struct {
	Node *nodeRecord `json:"node,omitempty"`
	Edge *edgeRecord `json:"edge,omitempty"`
}

// Write serializes g to w in the line-oriented JSON format.
func Write(w io.Writer, g *Graph) error { return WriteView(w, g) }

// edgeView is the surface serialization needs; satisfied by both the
// mutable *Graph and the immutable *Snapshot, so checkpoints can be
// written straight from a served version without materializing a copy.
type edgeView interface {
	NumNodes() int
	Node(id NodeID) Node
	EachEdge(fn func(e Edge))
}

// WriteView serializes any graph view (mutable *Graph or immutable
// *Snapshot) to w in the line-oriented JSON format. A checkpoint writes
// every node and edge of the served version, so records are appended to
// one reused line buffer instead of reflected through encoding/json one
// by one; the bytes are those json.Encoder produces for record.
func WriteView(w io.Writer, g edgeView) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(NodeID(i))
		line = append(line[:0], `{"node":{"id":`...)
		line = strconv.AppendInt(line, int64(n.ID), 10)
		if n.Name != "" {
			line = appendJSONString(append(line, `,"name":`...), n.Name)
		}
		if n.Type != "" {
			line = appendJSONString(append(line, `,"type":`...), n.Type)
		}
		if _, err := bw.Write(append(line, "}}\n"...)); err != nil {
			return fmt.Errorf("graph: write node %d: %w", i, err)
		}
	}
	var werr error
	g.EachEdge(func(e Edge) {
		if werr != nil {
			return
		}
		line = append(line[:0], `{"edge":{"from":`...)
		line = strconv.AppendInt(line, int64(e.From), 10)
		line = appendJSONString(append(line, `,"label":`...), e.Label)
		line = strconv.AppendInt(append(line, `,"to":`...), int64(e.To), 10)
		_, werr = bw.Write(append(line, "}}\n"...))
	})
	if werr != nil {
		return fmt.Errorf("graph: write edge: %w", werr)
	}
	return bw.Flush()
}

// appendJSONString appends s as encoding/json writes a string. Printable
// ASCII other than the characters json escapes (quote, backslash and,
// in its default HTML-safe mode, <, > and &) is written verbatim by
// json too, so such a string is quoted in place; anything else — control
// bytes, non-ASCII (U+2028, U+2029), invalid UTF-8 — goes through
// json.Marshal itself.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			q, err := json.Marshal(s)
			if err != nil {
				panic(fmt.Sprintf("graph: json.Marshal of a string failed: %v", err)) // cannot happen: strings always marshal
			}
			return append(dst, q...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// Read parses a graph from the line-oriented JSON format produced by
// Write. Node ids must be dense and in ascending order.
func Read(r io.Reader) (*Graph, error) {
	g := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
		switch {
		case rec.Node != nil:
			id := g.AddNode(rec.Node.Name, rec.Node.Type)
			if id != rec.Node.ID {
				return nil, fmt.Errorf("graph: line %d: node id %d out of order (expected %d)", lineNo, rec.Node.ID, id)
			}
		case rec.Edge != nil:
			e := rec.Edge
			if !g.Has(e.From) || !g.Has(e.To) {
				return nil, fmt.Errorf("graph: line %d: edge references unknown node", lineNo)
			}
			g.AddEdge(e.From, e.Label, e.To)
		default:
			return nil, fmt.Errorf("graph: line %d: record has neither node nor edge", lineNo)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read: %w", err)
	}
	return g, nil
}
