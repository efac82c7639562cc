package eval

import (
	"errors"
	"fmt"
	"slices"

	"relsim/internal/graph"
	"relsim/internal/rre"
	"relsim/internal/sparse"
)

// Incremental maintenance of cached commuting matrices.
//
// A committed write batch is summarized as a thin signed delta ΔA per
// touched label (added edges +1, removed edges −1; sparse.Delta holds
// only the rows it populates). Cache.Commit runs before the commit is
// published. It closes, at the new version, the interval of every
// cached entry whose pattern mentions a touched label, and walks each
// such pattern's expression tree to patch it to the new version:
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
// version reads any more, is not part of its value. The patched matrix
// opens its own interval at the new version; untouched entries never
// move.
//
// Per-commit subterm results are memoized across patterns: two cached
// patterns sharing a subexpression pay for its delta once.
//
// The Equation-1 diagonals kept beside scored cuts (Evaluator.Scoring)
// ride along. diag(A·B)[v] = ⟨A[v,·], Bᵀ[v,·]⟩ reads row v of each half
// alone, so when a commit maintains a half of a kept diagonal's cut,
// the new diagonal is the old one grown to NewN with only the rows of
// ΔA and Δ(Bᵀ) moved, each by the inner products of those deltas' rows
// with the new halves (sparse.Vector.Patched) — the deltas the walk
// already holds. Like the walk, the patching runs outside the cache
// lock; a patched diagonal gets a slot at the new version only if both
// its halves are the entries valid there when the results are
// installed. A diagonal whose halves the commit leaves untouched keeps
// its slot, which never moves; one with a half that falls back closes
// with it, and the next read builds it in full.

// CommitDelta describes one committed write batch in the form the
// maintenance engine consumes. All deltas have dimension NewN.
type CommitDelta struct {
	From uint64 // version the cache entries were computed at: the head
	To   uint64 // version after the commit
	OldN int    // node-id space before the commit
	NewN int    // node-id space after (>= OldN; ids are append-only)
	// Labels maps each touched label to its signed adjacency delta.
	// A label absent from the map was not touched. The deltas are read
	// only when Commit is given a view to patch against.
	Labels map[string]*sparse.Delta
	// All marks a commit the deltas do not describe, such as a store
	// Reset that replaces the whole graph: it touches every entry.
	All bool
}

// nodesGrew reports whether the commit enlarged the node-id space.
func (d CommitDelta) nodesGrew() bool { return d.NewN != d.OldN }

// DefaultMaxDeltaDensity is the fallback threshold: a pattern whose
// delta at any node exceeds this fraction of n² abandons maintenance
// and falls back to evict-and-recompute (a dense delta makes the
// distributive terms cost as much as recomputation).
const DefaultMaxDeltaDensity = 0.25

// maxDeltaDensity is the threshold maintenance applies. In-package
// tests lower it to force the fallback.
var maxDeltaDensity = DefaultMaxDeltaDensity

// CommitResult reports what one Commit did.
type CommitResult struct {
	Roots      int // touched cached patterns eligible for maintenance
	Maintained int // patterns patched to the new version
	Fallbacks  int // patterns left to recompute on their next read
	Products   int // sparse products spent on deltas
	Closed     int // open entries the commit touched and closed (invalidations)
	Dropped    int // entries closed before that no reader can read any more (evictions)
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
	view     *graph.Snapshot // snapshot at d.To, for uncached label matrices
	d        CommitDelta
	memo     map[string]*maintTerm
	failed   map[string]error
	patterns map[string]*rre.Pattern // memo key → pattern, for re-insertion
	products int                     // delta products

	// w runs the products outside the delta algebra (star recomputes,
	// evicted concatenations) through the evaluator's closure and chain.
	w walker[int64, sparse.IntRing]
}

// Commit moves the cache across one commit from its head d.From to
// d.To. The publisher of versions calls it once the commit can no
// longer fail and before any reader can see d.To (the store's
// pre-publication hook), so a reader that sees d.To sees every entry
// the commit patched, in the same pointer swap. Nothing that can fail
// may run between Commit and that publication: a patched interval then
// never names a version that is not published.
//
// Commit closes at d.To the interval of every open entry the commit
// touches: each whose pattern mentions a touched label, or every one
// when d.All is set, the id space grew, or d.From is not the head. An
// untouched entry never moves. Given view, the snapshot at d.To, each
// touched integer entry is patched and opens at d.To with the
// diagonals kept beside it; a pattern whose delta crosses the density
// threshold, at any node, is not patched, and its next read recomputes
// it. Closed entries whose interval holds no version from floor() up,
// floor being the oldest version a reader may still pin, are dropped in
// the same commit. floor is read after the walk, so a reader that
// pinned d.From while it ran keeps its entries.
func (c *Cache) Commit(view *graph.Snapshot, d CommitDelta, floor func() uint64) CommitResult {
	var res CommitResult
	if d.To < d.From {
		return res
	}
	// Collect the stale roots: the open entries the commit touches,
	// found through the label index, and the kept slots at d.From.
	c.mu.Lock()
	if d.From != c.head.Load() || d.NewN < d.OldN {
		d.All = true
	}
	var roots []string
	var kept []keptDiag
	if view != nil && !d.All && view.NumNodes() == d.NewN {
		roots = c.touchedLocked(d)
	}
	for k, ss := range *c.cuts.Load() {
		if s, ok := slotAt(ss, d.From); ok && len(roots) > 0 {
			kept = append(kept, keptDiag{k: k, diag: s.diag, a: s.a, bt: s.bt,
				la: c.entries[k.left].labels, lb: c.entries[k.right].labels})
		}
	}
	c.mu.Unlock()
	res.Roots = len(roots)

	mt := &maintainer{
		cache:    c,
		view:     view,
		d:        d,
		memo:     make(map[string]*maintTerm),
		failed:   make(map[string]error),
		patterns: make(map[string]*rre.Pattern),
		w:        NewVersioned(view, d.To, c).ints(),
	}
	for _, key := range roots {
		p, err := rre.Parse(key)
		if err != nil || p.String() != key {
			// A cache key that does not round-trip cannot be walked;
			// leave it to recompute.
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
	for i := range kept {
		kept[i].diag = mt.diagonal(&kept[i])
	}

	fl := floor()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.install(mt, kept, fl, &res)
	return res
}

// install is Commit's step under c.mu. It drops the closed entries no
// reader from fl up can read, then re-scans the label index for the
// entries to close: an open entry a reader landed at d.From while the
// walk ran outside the lock is closed with the rest, so it never
// answers at d.To. Then it opens every maintained term at d.To — the
// entries a recompute of the maintained roots would have cached,
// subterms under roots that fell back included — and a slot for each
// patched diagonal whose halves are the entries valid at d.To. A touched
// entry whose maintained value is the same matrix stays open. c.mu held.
func (c *Cache) install(mt *maintainer, kept []keptDiag, fl uint64, res *CommitResult) {
	d := mt.d
	if c.head.Load() != d.From {
		// A build above the head moved it while the walk ran.
		d.All, mt.memo, kept = true, nil, nil
	}
	res.Dropped = c.dropBelow(fl)
	c.floor = fl
	for _, ek := range c.touchedLocked(d) {
		e := c.entries[ek].current()
		if t := mt.memo[ek]; t != nil && t.new == e.m {
			continue
		}
		c.closeAt(ek, e, d.To)
		res.Closed++
	}
	for key, term := range mt.memo {
		if c.entries[key].at(d.To) == nil {
			c.tick++
			c.add(key, mt.patterns[key].Labels(), &cacheEntry{m: term.new, from: d.To, to: open, used: c.tick})
		}
	}
	t := *c.liveCuts(*c.cuts.Load())
	for _, kd := range kept {
		if kd.diag == nil {
			continue
		}
		if _, dup := slotAt(t[kd.k], d.To); dup {
			continue
		}
		if from, to := c.meet(kd.k, kd.a, kd.bt); from <= d.To && d.To < to {
			t[kd.k] = append(t[kd.k], cutSlot{a: kd.a, bt: kd.bt, b: kd.bt.KeptTranspose(), diag: kd.diag, from: from, to: to})
		}
	}
	c.cuts.Store(&t)
	c.head.Store(d.To)
	c.invalidations += uint64(res.Closed)
	c.evictions += uint64(res.Dropped)
	c.evictLocked()
}

// touchedLocked returns the keys with an open entry the commit touches,
// counting each key it examines in c.scanned. c.mu held.
func (c *Cache) touchedLocked(d CommitDelta) []string {
	var keys []string
	visit := func(ek string) {
		c.scanned++
		if c.entries[ek].current() != nil {
			keys = append(keys, ek)
		}
	}
	if d.All || d.nodesGrew() {
		for ek := range c.entries {
			visit(ek)
		}
		return keys
	}
	seen := make(map[string]struct{})
	for l := range d.Labels {
		for ek := range c.byLabel[l] {
			if _, dup := seen[ek]; !dup {
				seen[ek] = struct{}{}
				visit(ek)
			}
		}
	}
	return keys
}

// keptDiag is a diagonal kept at d.From with its halves and their
// patterns' labels, taken under c.mu where Commit collects its roots so
// the diagonal can be patched outside the lock.
type keptDiag struct {
	k      cutKey
	diag   *sparse.Vector
	a, bt  *sparse.Matrix
	la, lb []string
}

// diagonal returns kd's diagonal patched to d.To and sets kd's halves
// to the ones it was patched against, or returns nil when no half of
// the cut was maintained (its slot stays open with untouched halves and
// closes with stale ones) or one half is stale but fell back. A half
// that was not maintained stands in at d.To only when the commit left
// it untouched: the id space did not grow and its pattern mentions no
// touched label, as a stale half that fell back does.
func (mt *maintainer) diagonal(kd *keptDiag) *sparse.Vector {
	lt, lok := mt.memo[kd.k.left]
	rt, rok := mt.memo[kd.k.right]
	if !lok && !rok {
		return nil
	}
	half := func(t *maintTerm, maintained bool, m *sparse.Matrix, labels []string) (*sparse.Matrix, *sparse.Delta) {
		if maintained {
			return t.new, t.delta
		}
		if mt.d.nodesGrew() || slices.ContainsFunc(labels, func(l string) bool {
			_, touched := mt.d.Labels[l]
			return touched
		}) {
			return nil, nil
		}
		return m, nil
	}
	a, da := half(lt, lok, kd.a, kd.la)
	bt, dbt := half(rt, rok, kd.bt, kd.lb)
	if a == nil || bt == nil {
		return nil
	}
	diag := kd.diag.Patched(a, bt, da, dbt)
	kd.a, kd.bt = a, bt
	return diag
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
	ent := mt.cache.entries[key].at(mt.d.From)
	if ent == nil {
		return nil, false
	}
	return ent.m.Grow(mt.d.NewN), true
}

// normalize enforces the maintTerm invariant: an empty delta becomes
// nil, and a too-dense delta aborts the pattern.
func (mt *maintainer) normalize(t *maintTerm) (*maintTerm, error) {
	if t.delta != nil && t.delta.NNZ() == 0 {
		t.delta = nil
	}
	if t.delta != nil {
		n := float64(mt.d.NewN)
		if float64(t.delta.NNZ()) > maxDeltaDensity*n*n {
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
