package sparse

import (
	"fmt"
	"math"
	"sync"
)

// 1D row-blocked SpGEMM for horizontal sharding. The node-id space is
// partitioned into K shards by a Partition; a product m·o is computed
// as K independent products B_s·o where B_s is the n×n row block of m
// holding exactly the rows shard s owns. Row blocks are pairwise
// row-disjoint, so the merged result is row for row the monolithic
// product for every semiring — one row kernel (gMulRows) computes every
// product, blocked or not, and the merge concatenates rows in global
// order, each still canonical. That
// identity is what lets the coordinator scatter a query across shards
// and still pass the K=1 differential harness bit-for-bit.

// Shard function names accepted by NewPartition (and the server's
// -shard-fn flag).
const (
	PartitionHash  = "hash"
	PartitionRange = "range"
)

// Partition maps global node ids onto K shards. It is a pure function
// of the id — growth-stable for hash (new ids scatter) and
// creation-time-fixed for range (the chunk size is pinned when the
// partition is first built and persisted by the store, so ids keep
// their owner across restarts and node growth).
//
// The zero value is the trivial single-shard partition.
type Partition struct {
	k     int
	fn    string
	chunk int // range only: ids [s*chunk, (s+1)*chunk) → shard s, tail → K-1
}

// NewPartition builds a partition of K shards over an id space that
// currently holds n0 nodes. For range partitioning the chunk size is
// fixed at max(1, ceil(n0/K)); ids past the last boundary (node growth)
// land on shard K-1. It rejects K ≤ 0 and unknown shard functions.
func NewPartition(k int, fn string, n0 int) (Partition, error) {
	if k <= 0 {
		return Partition{}, fmt.Errorf("sparse: shard count %d, want >= 1", k)
	}
	switch fn {
	case PartitionHash:
		return Partition{k: k, fn: fn}, nil
	case PartitionRange:
		chunk := (n0 + k - 1) / k
		if chunk < 1 {
			chunk = 1
		}
		return Partition{k: k, fn: fn, chunk: chunk}, nil
	default:
		return Partition{}, fmt.Errorf("sparse: unknown shard function %q (want %q or %q)", fn, PartitionHash, PartitionRange)
	}
}

// RestorePartition rebuilds a partition from persisted parameters (the
// store's sharding manifest), validating them the same way NewPartition
// does. The chunk is taken verbatim so range ownership is stable across
// restarts regardless of how much the graph has grown since creation.
func RestorePartition(k int, fn string, chunk int) (Partition, error) {
	if k <= 0 {
		return Partition{}, fmt.Errorf("sparse: shard count %d, want >= 1", k)
	}
	switch fn {
	case PartitionHash:
		return Partition{k: k, fn: fn}, nil
	case PartitionRange:
		if chunk < 1 {
			return Partition{}, fmt.Errorf("sparse: range partition chunk %d, want >= 1", chunk)
		}
		return Partition{k: k, fn: fn, chunk: chunk}, nil
	default:
		return Partition{}, fmt.Errorf("sparse: unknown shard function %q (want %q or %q)", fn, PartitionHash, PartitionRange)
	}
}

// K returns the number of shards (1 for the zero value).
func (p Partition) K() int {
	if p.k == 0 {
		return 1
	}
	return p.k
}

// Fn returns the shard function name ("hash" for the zero value).
func (p Partition) Fn() string {
	if p.fn == "" {
		return PartitionHash
	}
	return p.fn
}

// Chunk returns the fixed range-chunk size (0 for hash partitions).
func (p Partition) Chunk() int { return p.chunk }

// Trivial reports whether the partition has a single shard, in which
// case every blocked code path collapses to the monolithic one.
func (p Partition) Trivial() bool { return p.K() == 1 }

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-mixed hash so consecutive node ids scatter across shards instead
// of striping.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Owner returns the shard owning global id. Negative ids panic.
func (p Partition) Owner(id int) int {
	if id < 0 {
		panic(fmt.Sprintf("sparse: Owner of negative id %d", id))
	}
	k := p.K()
	if k == 1 {
		return 0
	}
	if p.fn == PartitionRange {
		s := id / p.chunk
		if s >= k {
			s = k - 1 // node growth past the creation-time boundary
		}
		return s
	}
	return int(splitmix64(uint64(id)) % uint64(k))
}

// GSplitRows scatters m into K full-dimension (n×n) row blocks: block s
// holds exactly the rows of m owned by shard s, all other rows empty.
// Column indices are untouched, so each block multiplies against an
// unsplit right operand with the ordinary kernel.
func GSplitRows[T any](m *GMatrix[T], p Partition) []*GMatrix[T] {
	k := p.K()
	if k == 1 {
		return []*GMatrix[T]{m}
	}
	blocks := make([]*GMatrix[T], k)
	sizes := make([]int, k)
	for r, sp := range m.rows {
		sizes[p.Owner(r)] += int(sp.hi - sp.lo)
	}
	for s := 0; s < k; s++ {
		blocks[s] = &GMatrix[T]{
			n:      m.n,
			nnz:    sizes[s],
			rows:   make([]span, len(m.rows)),
			colIdx: make([]int32, 0, sizes[s]),
			val:    make([]T, 0, sizes[s]),
		}
	}
	for r, sp := range m.rows {
		b := blocks[p.Owner(r)]
		b.rows[r] = span{int32(len(b.colIdx)), int32(len(b.colIdx)) + sp.hi - sp.lo}
		b.colIdx = append(b.colIdx, m.colIdx[sp.lo:sp.hi]...)
		b.val = append(b.val, m.val[sp.lo:sp.hi]...)
	}
	return blocks
}

// GMergeRowDisjoint gathers K row-disjoint n×n blocks back into one
// matrix: row r of the result is row r of blocks[p.Owner(r)]. Blocks
// may be nil (treated as empty — a shard whose row block had no work).
// The output is row for row the matrix the monolithic kernel would
// have produced from the unsplit operand.
func GMergeRowDisjoint[T any](p Partition, blocks []*GMatrix[T], n int) *GMatrix[T] {
	if len(blocks) != p.K() {
		panic(fmt.Sprintf("sparse: MergeRowDisjoint got %d blocks for K=%d", len(blocks), p.K()))
	}
	if p.K() == 1 && blocks[0] != nil {
		return blocks[0]
	}
	total := 0
	for _, b := range blocks {
		if b != nil {
			if b.n != n {
				panic(fmt.Sprintf("sparse: MergeRowDisjoint block dim %d, want %d", b.n, n))
			}
			total += b.nnz
		}
	}
	if total > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: MergeRowDisjoint has %d entries, beyond int32 spans", total))
	}
	out := &GMatrix[T]{
		n:      n,
		nnz:    total,
		rows:   make([]span, n),
		colIdx: make([]int32, 0, total),
		val:    make([]T, 0, total),
	}
	for r := range out.rows {
		start := int32(len(out.colIdx))
		if b := blocks[p.Owner(r)]; b != nil {
			sp := b.row(r)
			out.colIdx = append(out.colIdx, b.colIdx[sp.lo:sp.hi]...)
			out.val = append(out.val, b.val[sp.lo:sp.hi]...)
		}
		out.rows[r] = span{start, int32(len(out.colIdx))}
	}
	return out
}

// BlockStats is the scatter-gather accounting of one blocked product:
// how many per-shard blocks did real work, and how much of the merged
// output referenced nodes outside the producing shard (the entries a
// distributed deployment would exchange between shards).
type BlockStats struct {
	Blocks        int   // row blocks multiplied (nonempty)
	SkippedEmpty  int   // row blocks skipped because they held no rows
	LocalNNZ      int64 // result entries whose column stays on the producing shard
	CrossShardNNZ int64 // result entries whose column is owned elsewhere
}

func (s *BlockStats) add(o BlockStats) {
	s.Blocks += o.Blocks
	s.SkippedEmpty += o.SkippedEmpty
	s.LocalNNZ += o.LocalNNZ
	s.CrossShardNNZ += o.CrossShardNNZ
}

// GMulBlocked computes m·o scatter-gather: m splits into K per-shard
// row blocks, nonempty blocks multiply independently against o (one
// goroutine per block, bounded by the shard count), and the row-disjoint
// partial products merge back in global row order. The result is
// row for row that of GMulThresh on every semiring; a trivial partition
// short-circuits to the monolithic kernel with zero overhead.
func GMulBlocked[T any, R Ring[T]](ring R, m, o *GMatrix[T], p Partition, t Thresholds) (*GMatrix[T], BlockStats) {
	if p.Trivial() {
		prod := GMulThresh(ring, m, o, t)
		return prod, BlockStats{Blocks: 1, LocalNNZ: int64(prod.nnz)}
	}
	if m.n != o.n {
		panic(fmt.Sprintf("sparse: MulBlocked dimension mismatch %d vs %d", m.n, o.n))
	}
	blocks := GSplitRows(m, p)
	products := make([]*GMatrix[T], len(blocks))
	stats := make([]BlockStats, len(blocks))
	var wg sync.WaitGroup
	for s, b := range blocks {
		if b.nnz == 0 {
			stats[s].SkippedEmpty = 1
			continue // empty shard block: contributes no rows, skip the kernel
		}
		wg.Add(1)
		go func(s int, b *GMatrix[T]) {
			defer wg.Done()
			prod := GMulThresh(ring, b, o, t)
			st := BlockStats{Blocks: 1}
			prod.Each(func(_, c int, _ T) {
				if p.Owner(c) == s {
					st.LocalNNZ++
				} else {
					st.CrossShardNNZ++
				}
			})
			products[s] = prod
			stats[s] = st
		}(s, b)
	}
	wg.Wait()
	var total BlockStats
	for _, st := range stats {
		total.add(st)
	}
	return GMergeRowDisjoint(p, products, m.n), total
}

// MulBlocked is the integer-matrix wrapper over GMulBlocked, used by
// the evaluator's coordinator path.
func (m *Matrix) MulBlocked(o *Matrix, p Partition, t Thresholds) (*Matrix, BlockStats) {
	g, st := GMulBlocked(IntRing{}, m.gm(), o.gm(), p, t)
	return wrapInt(g), st
}

// SplitRows is the integer-matrix wrapper over GSplitRows.
func (m *Matrix) SplitRows(p Partition) []*Matrix {
	gs := GSplitRows(m.gm(), p)
	out := make([]*Matrix, len(gs))
	for i, g := range gs {
		out[i] = wrapInt(g)
	}
	return out
}

// MergeRowDisjoint is the integer-matrix wrapper over
// GMergeRowDisjoint, used to gather per-shard adjacency blocks into the
// global matrix.
func MergeRowDisjoint(p Partition, blocks []*Matrix, n int) *Matrix {
	gs := make([]*GMatrix[int64], len(blocks))
	for i, b := range blocks {
		if b != nil {
			gs[i] = b.gm()
		}
	}
	return wrapInt(GMergeRowDisjoint(p, gs, n))
}
