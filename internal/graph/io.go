package graph

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"math"
	"strconv"
	"sync"
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
func Write(w io.Writer, g *Graph) error {
	_, err := WriteView(w, g.Snapshot())
	return err
}

// blockRows is how many nodes, or source rows of one label, a block of
// encoded lines covers, and how many rows an adjacency chunk holds.
const blockRows = 256

// BlockID is one block of checkpoint text: filled the first time a
// checkpoint writes it and never changed after, so versions equal in
// its rows share it by pointer, and the pointer identifies the text.
type BlockID struct {
	once sync.Once
	text []byte
}

// Block is one block of a snapshot's checkpoint text, as Blocks yields
// it: the node records of blockRows nodes, or the edge records of one
// label's chunk of blockRows source rows.
type Block struct {
	ID     *BlockID
	encode func(dst []byte) []byte
}

// encodeBufs holds the buffers blocks are encoded in before their text
// is copied out at its exact size.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// Text returns the block's text, encoding it unless a version sharing
// the block already did, and reports whether this call encoded it.
func (b Block) Text() (text []byte, encoded bool) {
	b.ID.once.Do(func() {
		buf := encodeBufs.Get().(*[]byte)
		*buf = b.encode((*buf)[:0])
		b.ID.text = bytes.Clone(*buf)
		encodeBufs.Put(buf)
		encoded = true
	})
	return b.ID.text, encoded
}

// Blocks yields s's checkpoint blocks in file order: its nodes in id
// order, then each label's edges by label, source node and insertion
// order. Their texts concatenated are what WriteView writes.
func (s *Snapshot) Blocks() iter.Seq[Block] {
	return func(yield func(Block) bool) {
		for k := range len(s.nodeBlocks) + 1 {
			id := s.nodeTail
			if k < len(s.nodeBlocks) {
				id = s.nodeBlocks[k]
			}
			nodes := s.nodes[k*blockRows : min((k+1)*blockRows, len(s.nodes))]
			if id != nil && !yield(Block{ID: id, encode: func(dst []byte) []byte { return appendNodes(dst, nodes) }}) {
				return
			}
		}
		for _, l := range s.Labels() {
			for k, c := range s.out[l].chunks {
				if c == nil {
					continue
				}
				lo := NodeID(k * blockRows)
				if !yield(Block{ID: &c.text, encode: func(dst []byte) []byte { return c.appendEdges(dst, l, lo) }}) {
					return
				}
			}
		}
	}
}

// writerPool holds WriteView's buffered writers, so a checkpoint does
// not allocate its 256 KB buffer afresh: a checkpoint is megabytes,
// written in few large writes.
var writerPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 256<<10) }}

// WriteStats counts what one WriteView call wrote: Bytes, of which
// Encoded bytes in EncodedBlocks blocks it encoded itself.
type WriteStats struct {
	Bytes, Encoded int64
	EncodedBlocks  int
}

// WriteView serializes s to w in the line-oriented JSON format, block by
// block (Blocks), as json.Encoder writes each record. It encodes only
// the blocks of s no earlier write of s or of a version sharing them
// encoded.
func WriteView(w io.Writer, s *Snapshot) (WriteStats, error) {
	bw := writerPool.Get().(*bufio.Writer)
	bw.Reset(w)
	defer func() {
		bw.Reset(nil) // the pool holds no file
		writerPool.Put(bw)
	}()
	var st WriteStats
	for blk := range s.Blocks() {
		text, encoded := blk.Text()
		if encoded {
			st.Encoded += int64(len(text))
			st.EncodedBlocks++
		}
		st.Bytes += int64(len(text))
		_, _ = bw.Write(text) // a failed write sticks to bw, and Flush returns it
	}
	if err := bw.Flush(); err != nil {
		return st, fmt.Errorf("graph: write: %w", err)
	}
	return st, nil
}

// appendNodes appends the node records of nodes.
func appendNodes(dst []byte, nodes []Node) []byte {
	for _, n := range nodes {
		dst = append(dst, `{"node":{"id":`...)
		dst = strconv.AppendInt(dst, int64(n.ID), 10)
		if n.Name != "" {
			dst = appendJSONString(append(dst, `,"name":`...), n.Name)
		}
		if n.Type != "" {
			dst = appendJSONString(append(dst, `,"type":`...), n.Type)
		}
		dst = append(dst, "}}\n"...)
	}
	return dst
}

// appendEdges appends the edge records of c, the chunk of rows from lo.
func (c *chunk) appendEdges(dst []byte, label string, lo NodeID) []byte {
	quoted := appendJSONString(nil, label)
	for i := range blockRows {
		for _, v := range c.row(i) {
			dst = append(dst, `{"edge":{"from":`...)
			dst = strconv.AppendInt(dst, int64(lo)+int64(i), 10)
			dst = append(append(dst, `,"label":`...), quoted...)
			dst = strconv.AppendInt(append(dst, `,"to":`...), int64(v), 10)
			dst = append(dst, "}}\n"...)
		}
	}
	return dst
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
// Write into a builder over the empty snapshot, which the graph's first
// Snapshot builds. Node ids must be dense and in ascending order.
func Read(r io.Reader) (*Graph, error) {
	g := New()
	b := g.builder()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var p lineParser
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		rec := &p.rec
		if !p.parse(line) {
			rec = new(record)
			if err := json.Unmarshal(line, rec); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
		}
		switch {
		case rec.Node != nil:
			id := b.AddNode(rec.Node.Name, rec.Node.Type)
			if id != rec.Node.ID {
				return nil, fmt.Errorf("graph: line %d: node id %d out of order (expected %d)", lineNo, rec.Node.ID, id)
			}
		case rec.Edge != nil:
			if err := b.AddEdge(rec.Edge.From, rec.Edge.Label, rec.Edge.To); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("graph: line %d: record has neither node nor edge", lineNo)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read: %w", err)
	}
	return g, nil
}

// lineParser reads, without reflection, the two record shapes WriteView
// writes, {"node":{"id":N[,"name":S][,"type":S]}} and
// {"edge":{"from":N,"label":S,"to":N}}, N a canonical int32 ≥ 0 and S
// printable ASCII json leaves unescaped, exactly as json.Unmarshal does.
// parse declines any other line, which Read hands to encoding/json.
type lineParser struct {
	rec  record
	node nodeRecord
	edge edgeRecord
	b    []byte // the rest of the line
	ok   bool   // false from the first byte that does not fit
}

func (p *lineParser) parse(line []byte) bool {
	p.b, p.ok = line, true
	switch {
	case p.lit(`{"node":{"id":`):
		p.node = nodeRecord{ID: p.id()}
		if p.lit(`,"name":`) {
			p.node.Name = p.str()
		}
		if p.lit(`,"type":`) {
			p.node.Type = p.str()
		}
		p.rec = record{Node: &p.node}
	case p.lit(`{"edge":{"from":`):
		p.edge.From = p.id()
		p.ok = p.lit(`,"label":`)
		p.edge.Label = p.str()
		p.ok = p.lit(`,"to":`)
		p.edge.To = p.id()
		p.rec = record{Edge: &p.edge}
	default:
		return false
	}
	return p.lit("}}") && len(p.b) == 0
}

// lit consumes s if the line goes on with it, and else nothing.
func (p *lineParser) lit(s string) bool {
	if !p.ok || len(p.b) < len(s) || string(p.b[:len(s)]) != s {
		return false
	}
	p.b = p.b[len(s):]
	return true
}

func (p *lineParser) id() NodeID {
	n, i := int64(0), 0
	for ; p.ok && i < len(p.b) && '0' <= p.b[i] && p.b[i] <= '9'; i++ {
		n = n*10 + int64(p.b[i]-'0')
		p.ok = n <= math.MaxInt32
	}
	if p.ok = p.ok && i > 0 && (p.b[0] != '0' || i == 1); p.ok {
		p.b = p.b[i:]
	}
	return NodeID(n)
}

func (p *lineParser) str() string {
	p.ok = p.ok && len(p.b) > 0 && p.b[0] == '"'
	for i := 1; p.ok && i < len(p.b); i++ {
		if c := p.b[i]; c == '"' {
			s := string(p.b[1:i])
			p.b = p.b[i+1:]
			return s
		} else if c < 0x20 || c >= 0x7f || c == '\\' {
			break
		}
	}
	p.ok = false
	return ""
}
