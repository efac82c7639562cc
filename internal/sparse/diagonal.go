package sparse

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// Equation 1's denominator reads the diagonal of M_p = A·B, where a cut
// keeps A and Bᵀ (eval.Term). diag(A·B)[v] = ⟨A[v,·], Bᵀ[v,·]⟩ depends
// only on the graph version, so it is kept beside the two halves as a
// sparse vector: built once from the rows both halves populate, then
// carried across a commit by moving only the entries of the rows of ΔA
// and Δ(Bᵀ), the only rows whose entry can change.

// Vector is an immutable sparse vector of n int64 entries. Its indexes
// are cut into words of 64, and a directory holds, from the word of the
// first nonzero to the word of the last, each word's nonzero values in
// index order with a bitmap of where they sit, or nil for a word with
// none. At is O(1) — a bit test and a popcount — and the vector holds
// 8 bytes an entry plus 40 bytes per word holding any and 8 per word
// its directory spans, never 8 per index. A patch rebuilds the words
// it touches and shares every other with the vector it was made from.
type Vector struct {
	n     int
	lo    int32      // the first index of words[0], a multiple of 64
	words []*vecWord // words[0] and words[len(words)-1] are non-nil
	nnz   int
	bytes int // what Bytes reports, kept as the vector is made
}

// vecWord holds the nonzero entries of 64 consecutive indexes: bit i of
// bits is the word's index i, whose value is val[the set bits below i].
type vecWord struct {
	bits uint64
	val  []int64
}

// NNZ returns the number of stored (nonzero) entries.
func (v *Vector) NNZ() int { return v.nnz }

// Bytes returns the bytes the vector's directory and words hold, in
// O(1).
func (v *Vector) Bytes() int { return v.bytes }

// At returns entry i, zero where none is stored, in O(1).
func (v *Vector) At(i int) int64 {
	r := uint(i - int(v.lo))
	if r >= uint(len(v.words))*64 {
		return 0
	}
	w := v.words[r/64]
	if w == nil {
		return 0
	}
	return w.at(r % 64)
}

// len returns the number of entries the word holds, 0 for nil.
func (w *vecWord) len() int {
	if w == nil {
		return 0
	}
	return len(w.val)
}

// size returns the bytes the word holds, 0 for nil.
func (w *vecWord) size() int {
	if w == nil {
		return 0
	}
	return 32 + 8*cap(w.val)
}

// at returns the word's entry at offset r, zero where none is stored.
func (w *vecWord) at(r uint) int64 {
	bit := uint64(1) << r
	if w.bits&bit == 0 {
		return 0
	}
	return w.val[bits.OnesCount64(w.bits&(bit-1))]
}

// Equal reports whether v and o have the same length and entries.
func (v *Vector) Equal(o *Vector) bool {
	return v.n == o.n && v.lo == o.lo && slices.EqualFunc(v.words, o.words, func(a, b *vecWord) bool {
		return a == b || a != nil && b != nil && a.bits == b.bits && slices.Equal(a.val, b.val)
	})
}

// trimmed returns v with the nil words at either end of its directory
// cut away, copying the rest when there are any, so no capacity
// lingers.
func (v *Vector) trimmed() *Vector {
	t0, t1 := 0, len(v.words)
	for t0 < t1 && v.words[t0] == nil {
		t0++
	}
	for t1 > t0 && v.words[t1-1] == nil {
		t1--
	}
	if t0 == t1 {
		return &Vector{n: v.n}
	}
	if t0 > 0 || t1 < len(v.words) {
		v.lo += int32(64 * t0)
		v.words = slices.Clone(v.words[t0:t1])
	}
	return v
}

// Dot returns the inner product of two sorted sparse rows, merging
// them. int64 products and sums wrap mod 2⁶⁴ in any order, so
// ⟨A[r,·], Bᵀ[r,·]⟩ is entry (r,r) of A·B bit for bit.
func Dot(ac []int32, av []int64, bc []int32, bv []int64) int64 {
	var s int64
	for i, j := 0, 0; i < len(ac) && j < len(bc); {
		switch {
		case ac[i] < bc[j]:
			i++
		case ac[i] > bc[j]:
			j++
		default:
			s += av[i] * bv[j]
			i++
			j++
		}
	}
	return s
}

// diagBuf is pooled scratch a diagonal is built in, row by row, before
// it is laid out in words: grown from empty on every build, its two
// slices would cost several times the merges.
type diagBuf struct {
	idx []int32
	val []int64
}

var diagBufPool = sync.Pool{New: func() any { return new(diagBuf) }}

// ProductDiagonal returns diag(A·B) given A and Bᵀ: entry r is
// ⟨A[r,·], Bᵀ[r,·]⟩, computed only for the rows populated in both, so
// it costs a read of the spans the two share and at most nnz(A) +
// nnz(Bᵀ) merge steps, and allocates nothing the size of n. It panics
// if the dimensions differ.
func ProductDiagonal(a, bt *Matrix) *Vector {
	if a.n != bt.n {
		panic(fmt.Sprintf("sparse: ProductDiagonal dimension mismatch %d vs %d", a.n, bt.n))
	}
	b := diagBufPool.Get().(*diagBuf)
	defer diagBufPool.Put(b)
	b.idx, b.val = b.idx[:0], b.val[:0]
	for base, sps := range a.spans(0, bt.nrows) {
		for i, sp := range sps {
			if sp.lo == sp.hi {
				continue
			}
			bc, bv := bt.RowView(base + i)
			if x := Dot(a.colIdx[sp.lo:sp.hi], a.val[sp.lo:sp.hi], bc, bv); x != 0 {
				b.idx, b.val = append(b.idx, int32(base+i)), append(b.val, x)
			}
		}
	}
	idx := b.idx
	v := &Vector{n: a.n, nnz: len(idx)}
	if len(idx) == 0 {
		return v
	}
	v.lo = idx[0] &^ 63
	v.words = make([]*vecWord, (idx[len(idx)-1]-v.lo)/64+1)
	v.bytes = 8 * cap(v.words)
	vals := slices.Clone(b.val) // out of the buffer at their exact size
	for i := 0; i < len(idx); {
		k := (idx[i] - v.lo) / 64
		w, j := &vecWord{}, i
		for ; j < len(idx) && (idx[j]-v.lo)/64 == k; j++ {
			w.bits |= 1 << ((idx[j] - v.lo) % 64)
		}
		w.val = vals[i:j:j]
		v.words[k] = w
		v.bytes += w.size()
		i = j
	}
	return v
}

// Patched returns diag(A·B) at A's dimension, given A and Bᵀ after a
// change, their differences ΔA and Δ(Bᵀ) from before it (nil for a half
// that did not change), and v, the diagonal before it. Row r of A·B's
// diagonal reads row r of A and of Bᵀ alone, so only the rows the
// deltas populate move, each by
//
//	⟨ΔA[r,·], Bᵀ[r,·]⟩ + ⟨A[r,·], Δ(Bᵀ)[r,·]⟩ − ⟨ΔA[r,·], Δ(Bᵀ)[r,·]⟩
//
// (int64 sums wrap mod 2⁶⁴ alike in any order, so the result equals a
// fresh merge bit for bit): a row of the long half is merged only where
// the other half changed. Only the words holding a row whose entry
// moved are rebuilt; every other is shared with v. It panics if v is
// longer than A or the dimensions of A, Bᵀ and the deltas differ.
func (v *Vector) Patched(a, bt *Matrix, da, dbt *Delta) *Vector {
	var none Delta
	if da == nil {
		da = &none
	}
	if dbt == nil {
		dbt = &none
	}
	if v.n > a.n || bt.n != a.n || da != &none && da.n != a.n || dbt != &none && dbt.n != a.n {
		panic(fmt.Sprintf("sparse: Patched dimension mismatch: vector %d, halves %d and %d, deltas %d and %d", v.n, a.n, bt.n, da.n, dbt.n))
	}
	var rows []int32 // the rows whose entry moved, and their new entries
	var xs []int64
	for i, j := 0, 0; i < len(da.rows) || j < len(dbt.rows); {
		var r int32
		var dac, dbc []int32
		var dav, dbv []int64
		switch {
		case j == len(dbt.rows) || i < len(da.rows) && da.rows[i] < dbt.rows[j]:
			r = da.rows[i]
			dac, dav = da.rowAt(i)
			i++
		case i == len(da.rows) || dbt.rows[j] < da.rows[i]:
			r = dbt.rows[j]
			dbc, dbv = dbt.rowAt(j)
			j++
		default:
			r = da.rows[i]
			dac, dav = da.rowAt(i)
			dbc, dbv = dbt.rowAt(j)
			i++
			j++
		}
		var x int64
		if len(dac) > 0 {
			bc, bv := bt.RowView(int(r))
			x += Dot(dac, dav, bc, bv)
		}
		if len(dbc) > 0 {
			ac, av := a.RowView(int(r))
			x += Dot(ac, av, dbc, dbv) - Dot(dac, dav, dbc, dbv)
		}
		if x != 0 {
			rows, xs = append(rows, r), append(xs, v.At(int(r))+x)
		}
	}
	if len(rows) == 0 {
		// No entry moved: v's words are immutable, so share them all.
		return &Vector{n: a.n, lo: v.lo, words: v.words, nnz: v.nnz, bytes: v.bytes}
	}
	// The words the moved rows and v's directory span: a row whose entry
	// moved to zero held one, so only the others can widen the span.
	w0, w1 := int(v.lo)/64, int(v.lo)/64+len(v.words)
	if len(v.words) == 0 {
		w0, w1 = a.n/64+1, 0
	}
	for i, r := range rows {
		if xs[i] != 0 {
			w0, w1 = min(w0, int(r)/64), max(w1, int(r)/64+1)
		}
	}
	out := &Vector{n: a.n, lo: int32(64 * w0), nnz: v.nnz, bytes: v.bytes - 8*cap(v.words), words: make([]*vecWord, w1-w0)}
	if len(v.words) > 0 {
		copy(out.words[int(v.lo)/64-w0:], v.words)
	}
	for i := 0; i < len(rows); {
		k, j := int(rows[i])/64, i
		for j < len(rows) && int(rows[j])/64 == k {
			j++
		}
		w := out.words[k-w0].patched(int32(64*k), rows[i:j], xs[i:j])
		out.nnz += w.len() - out.words[k-w0].len()
		out.bytes += w.size() - out.words[k-w0].size()
		out.words[k-w0] = w
		i = j
	}
	out = out.trimmed()
	out.bytes += 8 * cap(out.words)
	return out
}

// patched returns the word at base — w, nil for one with no entries —
// with rows, ascending and inside it, set to xs; nil if no entry is
// left. The old values between two of the rows are copied as one run.
func (w *vecWord) patched(base int32, rows []int32, xs []int64) *vecWord {
	var had uint64
	var old []int64
	if w != nil {
		had, old = w.bits, w.val
	}
	out := &vecWord{bits: had}
	for i, r := range rows {
		if bit := uint64(1) << (r - base); xs[i] != 0 {
			out.bits |= bit
		} else {
			out.bits &^= bit
		}
	}
	if out.bits == 0 {
		return nil
	}
	out.val = make([]int64, 0, bits.OnesCount64(out.bits))
	j := 0 // the old values copied or passed over so far
	for i, r := range rows {
		bit := uint64(1) << (r - base)
		k := bits.OnesCount64(had & (bit - 1))
		out.val = append(out.val, old[j:k]...)
		if j = k; had&bit != 0 {
			j++
		}
		if xs[i] != 0 {
			out.val = append(out.val, xs[i])
		}
	}
	out.val = append(out.val, old[j:]...)
	return out
}
