package sparse

// Signed-delta helpers. Incremental maintenance of commuting matrices
// represents a commit as a signed sparse delta ΔA per touched label
// (added edges +1, removed edges −1) and patches cached products via
// the distributive expansion (A+ΔA)(B+ΔB) = AB + ΔA·B + A·ΔB + ΔA·ΔB.
// Everything here preserves the canonical-CSR invariant the rest of the
// algebra relies on: rows in order, columns ascending within a row, and
// no explicit zero entries — so a maintained matrix is Equal (and
// byte-identical) to one recomputed from scratch.
//
// Signed deltas require an additive inverse, so these operations exist
// only on the integer instance (IntRing is the sole Subtractive ring);
// annotated caches are maintained by eviction instead.

// Sub returns m − o element-wise. Entries that cancel exactly are
// dropped, never stored as explicit zeros. It panics if dimensions
// differ.
func (m *Matrix) Sub(o *Matrix) *Matrix {
	return wrapInt(GSub(IntRing{}, m.gm(), o.gm()))
}

// Grow returns m embedded in the top-left corner of an n×n matrix.
// Commits that add nodes enlarge the id space; cached matrices from the
// previous version are grown before deltas are applied. The entry
// arrays are shared with m (matrices are immutable). It panics if n is
// smaller than m's dimension.
func (m *Matrix) Grow(n int) *Matrix {
	return wrapInt(m.gm().Grow(n))
}

// IdentityRange returns the n×n matrix with ones on the diagonal at
// rows [lo, hi) and zeros elsewhere. It is the delta of Identity (and
// of a boolean closure over isolated nodes) when the id space grows
// from lo to hi. It panics on an invalid range.
func IdentityRange(n, lo, hi int) *Matrix {
	return wrapInt(GIdentityRange[int64](IntRing{}, n, lo, hi))
}
