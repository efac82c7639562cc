package eval

import (
	"errors"
	"fmt"
	"strings"

	"relsim/internal/graph"
	"relsim/internal/rre"
	"relsim/internal/sparse"
)

// Incremental maintenance of cached commuting matrices.
//
// A committed write batch is summarized as a thin signed delta ΔA per
// touched label (added edges +1, removed edges −1; sparse.Delta holds
// only the rows it populates). Instead of evicting every cached pattern
// mentioning a touched label, Cache.Maintain walks each stale pattern's
// expression tree and patches it to the new version:
//
//	Δ(M₁·…·M_k) = Σᵢ N₁·…·Nᵢ₋₁ · ΔMᵢ · Oᵢ₊₁·…·O_k   (O = old, N = new)
//	Δ(M₁+…+M_k) = ΣΔMᵢ
//	Δ(Mᵀ)       = ΔMᵀ
//	Δ(M > 0), Δ(diag{M (Mᵀ > 0)})  on the rows of ΔM only
//
// which is the distributive expansion (A+ΔA)(B+ΔB) = AB + ΔA·B + A·ΔB
// + ΔA·ΔB generalized to chains. A commit costs the rows it touches,
// not what is cached: every product has a thin delta as one operand
// (Δ·M walks the delta's rows, M·Δ the matching rows of M's kept
// transpose, which every patch carries to the new version), Boolean
// and DiagMulBool are row-local and re-evaluated on the child delta's
// rows, and the new value is Patch(old, Δ) — a matrix that rewrites the
// delta's rows and shares every other row, and the entry arena, with
// the old version its pinned readers keep scoring from. Only the
// Kleene-star closure has no delta algebra over counting semantics; it
// recomputes from its *maintained* child and takes a full difference.
// Every row stays canonical (sorted, no explicit zeros), so a
// maintained matrix is Equal, row for row, to one recomputed from the
// new snapshot; where its rows sit in the shared arena, beside rows no
// version reads any more, is not part of its value.
//
// Per-commit subterm results are memoized across patterns: two cached
// patterns sharing a subexpression pay for its delta once.

// CommitDelta describes one committed write batch in the form the
// maintenance engine consumes. All deltas have dimension NewN.
type CommitDelta struct {
	From uint64 // version the cache entries were computed at
	To   uint64 // version after the commit
	OldN int    // node-id space before the commit
	NewN int    // node-id space after (>= OldN; ids are append-only)
	// Labels maps each touched label to its signed adjacency delta.
	// A label absent from the map was not touched.
	Labels map[string]*sparse.Delta
}

// nodesGrew reports whether the commit enlarged the node-id space.
func (d CommitDelta) nodesGrew() bool { return d.NewN != d.OldN }

// DefaultMaxDeltaDensity is the fallback threshold: a pattern whose
// delta at any node exceeds this fraction of n² abandons maintenance
// and falls back to evict-and-recompute (a dense delta makes the
// distributive terms cost as much as recomputation).
const DefaultMaxDeltaDensity = 0.25

// MaintainOptions tunes one Maintain call.
type MaintainOptions struct {
	// MaxDensity is the per-node delta-density fallback threshold;
	// <= 0 uses DefaultMaxDeltaDensity.
	MaxDensity float64
}

// MaintainResult reports what one Maintain call did.
type MaintainResult struct {
	Roots      int `json:"roots"`      // stale cached patterns eligible for maintenance
	Maintained int `json:"maintained"` // patterns patched to the new version
	Fallbacks  int `json:"fallbacks"`  // patterns left to evict-and-recompute
	Products   int `json:"products"`   // sparse products spent on deltas
}

// errDeltaDense aborts maintenance of patterns whose delta crosses the
// density threshold.
var errDeltaDense = errors.New("eval: delta density over threshold")

// maintTerm is the maintenance state of one expression node: its value
// at the old version grown to the new dimension, its value at the new
// version, and their difference (nil = exactly zero). Invariant:
// new = old + delta, all at dimension NewN, every row canonical.
type maintTerm struct {
	old   *sparse.Matrix
	new   *sparse.Matrix
	delta *sparse.Delta
}

// maintainer is the per-commit walk state, shared across all stale
// roots so subterm deltas are computed once.
type maintainer struct {
	cache    *Cache
	view     graph.View // snapshot at d.To, for uncached label matrices
	d        CommitDelta
	opt      MaintainOptions
	memo     map[string]*maintTerm
	failed   map[string]error
	patterns map[string]*rre.Pattern // memo key → pattern, for re-insertion
	products int                     // delta products

	// w runs the products outside the delta algebra (star recomputes,
	// evicted concatenations) through the evaluator's closure and chain.
	w walker[int64, sparse.IntRing]
}

// Maintain patches every stale cached pattern at version d.From to
// version d.To by applying the commit's label deltas, inserting the
// maintained matrices at d.To. It must run before Advance for the same
// commit (Advance's overlay keeps pre-inserted entries at d.To) and
// with view bound to the snapshot at d.To. Patterns whose delta
// crosses the density threshold, at any node, are skipped and fall
// back to the evict-and-recompute path.
func (c *Cache) Maintain(view graph.View, d CommitDelta, opt MaintainOptions) MaintainResult {
	var res MaintainResult
	if d.To <= d.From || view == nil || view.NumNodes() != d.NewN || d.NewN < d.OldN {
		return res
	}
	if len(d.Labels) == 0 && !d.nodesGrew() {
		return res
	}
	if opt.MaxDensity <= 0 {
		opt.MaxDensity = DefaultMaxDeltaDensity
	}

	// Collect the stale roots: patterns mentioning a touched label,
	// plus every pattern when the dimension grew (Advance would evict
	// all of them). Uses the label index, so the common case is
	// proportional to the touched entries.
	c.mu.Lock()
	src, ok := c.versions[d.From]
	if !ok {
		c.mu.Unlock()
		return res
	}
	var roots []string
	if d.nodesGrew() {
		roots = make([]string, 0, len(src.entries))
		for p := range src.entries {
			roots = append(roots, p)
		}
	} else {
		labels := make([]string, 0, len(d.Labels))
		for l := range d.Labels {
			labels = append(labels, l)
		}
		for p := range src.stale(labels) {
			roots = append(roots, p)
		}
	}
	c.mu.Unlock()
	res.Roots = len(roots)
	if len(roots) == 0 {
		return res
	}

	mt := &maintainer{
		cache:    c,
		view:     view,
		d:        d,
		opt:      opt,
		memo:     make(map[string]*maintTerm),
		failed:   make(map[string]error),
		patterns: make(map[string]*rre.Pattern),
		w:        NewVersioned(view, d.To, c).ints(),
	}
	for _, key := range roots {
		if strings.Contains(key, ringSep) {
			// Annotation rings (witness) have no subtraction:
			// signed deltas and the telescoping patch have no meaning
			// there, so a wrong patch is never attempted. The entry
			// falls back to Advance's touched-label eviction and the
			// next annotated request recomputes it fresh.
			res.Fallbacks++
			continue
		}
		p, err := rre.Parse(key)
		if err != nil || p.String() != key {
			// A cache key that does not round-trip cannot be walked;
			// leave it to eviction.
			res.Fallbacks++
			continue
		}
		if _, err := mt.node(p); err != nil {
			res.Fallbacks++
			continue
		}
		res.Maintained++
	}
	res.Products = mt.products + int(mt.w.e.counters.Products.Load())

	// Insert every successfully maintained term at d.To — the same set
	// of entries a recompute of the maintained roots would have cached,
	// including subterms under roots that later fell back (their values
	// are correct and save the recompute work). Keep entries a racing
	// reader at d.To may have inserted already; either copy is correct.
	c.mu.Lock()
	defer c.mu.Unlock()
	dst := c.bucket(d.To)
	for key, term := range mt.memo {
		if _, dup := dst.entries[key]; dup {
			continue
		}
		c.insertLocked(Key{Version: d.To, Pattern: key}, term.new, mt.patterns[key].Labels())
	}
	if len(dst.entries) == 0 {
		delete(c.versions, d.To)
	}
	c.evictLocked()
	return res
}

// newNodes returns the delta of Identity (and of a boolean closure over
// isolated nodes) when the id space grows: ones on the diagonal at the
// rows the commit added, nil if it added none.
func (mt *maintainer) newNodes() *sparse.Delta {
	if !mt.d.nodesGrew() {
		return nil
	}
	ts := make([]sparse.Triple, 0, mt.d.NewN-mt.d.OldN)
	for r := mt.d.OldN; r < mt.d.NewN; r++ {
		ts = append(ts, sparse.Triple{Row: r, Col: r, Val: 1})
	}
	return sparse.NewDelta(mt.d.NewN, ts)
}

// patched completes a term whose old side and delta are known: new is
// old with the delta's rows rewritten — old itself when the delta is
// nil or empty.
func patched(t *maintTerm) *maintTerm {
	t.new = t.old
	if t.delta != nil {
		t.new = sparse.Patch(t.old, t.delta)
	}
	return t
}

// cachedOld returns the matrix cached at (d.From, key) grown to NewN.
func (mt *maintainer) cachedOld(key string) (*sparse.Matrix, bool) {
	mt.cache.mu.Lock()
	defer mt.cache.mu.Unlock()
	b, ok := mt.cache.versions[mt.d.From]
	if !ok {
		return nil, false
	}
	ent, ok := b.entries[key]
	if !ok {
		return nil, false
	}
	m, isInt := ent.m.(*sparse.Matrix)
	if !isInt {
		// Unreachable for round-tripped pattern keys (tagged keys are
		// filtered before the walk), but never patch a non-integer
		// matrix.
		return nil, false
	}
	return m.Grow(mt.d.NewN), true
}

// normalize enforces the maintTerm invariant: an empty delta becomes
// nil, and a too-dense delta aborts the pattern.
func (mt *maintainer) normalize(t *maintTerm) (*maintTerm, error) {
	if t.delta != nil && t.delta.NNZ() == 0 {
		t.delta = nil
	}
	if t.delta != nil {
		n := float64(mt.d.NewN)
		if float64(t.delta.NNZ()) > mt.opt.MaxDensity*n*n {
			return nil, errDeltaDense
		}
	}
	return t, nil
}

// node returns the maintenance term for pattern p, memoized per commit.
func (mt *maintainer) node(p *rre.Pattern) (*maintTerm, error) {
	key := p.String()
	if t, ok := mt.memo[key]; ok {
		return t, nil
	}
	if err, ok := mt.failed[key]; ok {
		return nil, err
	}
	t, err := mt.compute(p, key)
	if err == nil {
		t, err = mt.normalize(t)
	}
	if err != nil {
		mt.failed[key] = err
		return nil, err
	}
	mt.memo[key] = t
	mt.patterns[key] = p
	return t, nil
}

func (mt *maintainer) compute(p *rre.Pattern, key string) (*maintTerm, error) {
	d := mt.d
	switch p.Kind() {
	case rre.KindEps:
		return patched(&maintTerm{old: sparse.Identity(d.OldN).Grow(d.NewN), delta: mt.newNodes()}), nil

	case rre.KindLabel:
		dl := d.Labels[p.LabelName()]
		if old, ok := mt.cachedOld(key); ok {
			return patched(&maintTerm{old: old, delta: dl}), nil
		}
		// Not cached at From: read the new adjacency off the snapshot
		// and reconstruct the old side by un-applying the delta.
		new := mt.view.Adjacency(p.LabelName())
		if dl == nil {
			return &maintTerm{old: new, new: new}, nil
		}
		return &maintTerm{old: sparse.Patch(new, dl.Neg()), new: new, delta: dl}, nil

	case rre.KindRev:
		ch, err := mt.node(p.Subs()[0])
		if err != nil {
			return nil, err
		}
		t := &maintTerm{}
		if ch.delta != nil {
			t.delta = ch.delta.Transpose()
		}
		if old, ok := mt.cachedOld(key); ok {
			t.old = old
		} else {
			t.old = ch.old.TransposeCached()
		}
		return patched(t), nil

	case rre.KindAlt:
		terms, err := mt.nodes(p.Subs())
		if err != nil {
			return nil, err
		}
		t := &maintTerm{}
		for _, ch := range terms {
			if ch.delta == nil {
				continue
			}
			if t.delta == nil {
				t.delta = ch.delta
			} else {
				t.delta = t.delta.Add(ch.delta)
			}
		}
		if old, ok := mt.cachedOld(key); ok {
			t.old = old
		} else {
			t.old = terms[0].old
			for _, ch := range terms[1:] {
				t.old = t.old.Add(ch.old)
			}
		}
		return patched(t), nil

	case rre.KindConcat:
		terms, err := mt.nodes(p.Subs())
		if err != nil {
			return nil, err
		}
		// Telescoping expansion: Δ = Σᵢ N₁…Nᵢ₋₁ · Δᵢ · Oᵢ₊₁…O_k.
		// Each term is built middle-out, so one operand of every
		// product is the thin delta: the suffix products walk its rows,
		// the prefix products walk the new factor's kept transpose.
		t := &maintTerm{}
		for i, ch := range terms {
			if ch.delta == nil {
				continue
			}
			s := ch.delta
			for j := i + 1; j < len(terms); j++ {
				mt.products++
				s = s.Mul(terms[j].old)
			}
			for j := i - 1; j >= 0; j-- {
				mt.products++
				s = sparse.MulDelta(terms[j].new, s)
			}
			if t.delta == nil {
				t.delta = s
			} else {
				t.delta = t.delta.Add(s)
			}
		}
		if old, ok := mt.cachedOld(key); ok {
			t.old = old
		} else {
			// The full product was evicted; rebuild it from the (old)
			// children — the cost a cache miss would have paid anyway.
			olds := make([]*sparse.Matrix, len(terms))
			for i, ch := range terms {
				olds[i] = ch.old
			}
			t.old = mt.w.chain(olds)
		}
		return patched(t), nil

	case rre.KindSkip:
		ch, err := mt.node(p.Subs()[0])
		if err != nil {
			return nil, err
		}
		return mt.rowLocal(key, ch, (*sparse.Matrix).Boolean, sparse.PatchBoolean), nil

	case rre.KindNest:
		ch, err := mt.node(p.Subs()[0])
		if err != nil {
			return nil, err
		}
		return mt.rowLocal(key, ch, (*sparse.Matrix).DiagMulBool, sparse.PatchDiagMulBool), nil

	case rre.KindStar:
		ch, err := mt.node(p.Subs()[0])
		if err != nil {
			return nil, err
		}
		t := &maintTerm{}
		if old, ok := mt.cachedOld(key); ok {
			t.old = old
		} else {
			t.old = mt.starOldFromChild(ch)
		}
		if ch.delta == nil {
			// The closure over the old nodes is unchanged; growing the
			// id space only adds self-loops for the new isolated nodes.
			t.delta = mt.newNodes()
			return patched(t), nil
		}
		// Closure has no delta algebra; recompute from the maintained
		// child — the subtree below it is still saved.
		t.new = mt.w.star(ch.new)
		t.delta = sparse.DeltaOf(t.new, t.old)
		return t, nil
	}
	return nil, fmt.Errorf("eval: cannot maintain pattern kind of %q", key)
}

// nodes returns the maintenance terms of a node's children.
func (mt *maintainer) nodes(subs []*rre.Pattern) ([]*maintTerm, error) {
	terms := make([]*maintTerm, len(subs))
	for i, s := range subs {
		ch, err := mt.node(s)
		if err != nil {
			return nil, err
		}
		terms[i] = ch
	}
	return terms, nil
}

// rowLocal handles the non-linear unary nodes (Boolean, DiagMulBool).
// Both are row-local: a row of the result depends on the same row of
// the child alone, so only the rows of the child's delta are
// re-evaluated (patch), against the old value from the cache or, if it
// was evicted, from the child's old side (full). When the child delta
// is nil the op commutes with Grow (neither op creates entries in
// empty rows), so old and new coincide.
func (mt *maintainer) rowLocal(key string, ch *maintTerm,
	full func(*sparse.Matrix) *sparse.Matrix,
	patch func(old, child *sparse.Matrix, d *sparse.Delta) (*sparse.Matrix, *sparse.Delta)) *maintTerm {
	t := &maintTerm{}
	if old, ok := mt.cachedOld(key); ok {
		t.old = old
	} else {
		t.old = full(ch.old)
	}
	if ch.delta == nil {
		t.new = t.old
		return t
	}
	t.new, t.delta = patch(t.old, ch.new, ch.delta)
	return t
}

// starOldFromChild rebuilds the old closure from the child's old side.
// ch.old is the old child grown to NewN, so its closure gains self-loops
// for the new isolated nodes that the true old closure (at OldN, grown)
// does not have; strip them.
func (mt *maintainer) starOldFromChild(ch *maintTerm) *sparse.Matrix {
	c := mt.w.star(ch.old)
	if grown := mt.newNodes(); grown != nil {
		c = sparse.Patch(c, grown.Neg())
	}
	return c
}
