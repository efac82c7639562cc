package eval

import (
	"math/rand"
	"sync"
	"testing"

	"relsim/internal/graph"
	"relsim/internal/rre"
	"relsim/internal/sparse"
)

// --- harness ---------------------------------------------------------------

// deltaOp is one mutation in a commit batch.
type deltaOp struct {
	op    string // "add-edge", "remove-edge", "add-node"
	u, v  graph.NodeID
	label string
}

// applyBatch applies ops on top of snap and returns the new snapshot
// plus the CommitDelta describing what actually changed (ops that had
// no effect — removing a missing edge — record nothing).
func applyBatch(snap *graph.Snapshot, from uint64, ops []deltaOp) (*graph.Snapshot, CommitDelta) {
	b := graph.NewBuilder(snap)
	triples := make(map[string][]sparse.Triple)
	for _, o := range ops {
		switch o.op {
		case "add-edge":
			if err := b.AddEdge(o.u, o.label, o.v); err == nil {
				triples[o.label] = append(triples[o.label], sparse.Triple{Row: int(o.u), Col: int(o.v), Val: 1})
			}
		case "remove-edge":
			if b.RemoveEdge(o.u, o.label, o.v) {
				triples[o.label] = append(triples[o.label], sparse.Triple{Row: int(o.u), Col: int(o.v), Val: -1})
			}
		case "add-node":
			b.AddNode("", "")
		}
	}
	next := b.Build()
	d := CommitDelta{
		From:   from,
		To:     from + 1,
		OldN:   snap.NumNodes(),
		NewN:   next.NumNodes(),
		Labels: make(map[string]*sparse.Delta, len(triples)),
	}
	for l, ts := range triples {
		d.Labels[l] = sparse.NewDelta(d.NewN, ts)
	}
	return next, d
}

// entriesAt snapshots the cached (pattern, matrix) pairs valid at
// version v.
func entriesAt(c *Cache, v uint64) map[string]*sparse.Matrix {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]*sparse.Matrix)
	for p, h := range c.entries {
		if ent := h.at(v); ent != nil {
			if m, isInt := ent.m.(*sparse.Matrix); isInt {
				out[p] = m
			}
		}
	}
	return out
}

// checkAgainstRecompute recomputes every cached entry at version v from
// the snapshot with a fresh evaluator and private cache, asserting the
// maintained matrix is Equal — every row canonical (sorted, no explicit
// zeros) and identical to the recomputed one — and that its stored
// entry count is what a walk of its rows finds.
func checkAgainstRecompute(t *testing.T, c *Cache, v uint64, snap *graph.Snapshot) {
	t.Helper()
	for key, m := range entriesAt(c, v) {
		p, err := rre.Parse(key)
		if err != nil {
			t.Fatalf("unparseable cache key %q: %v", key, err)
		}
		want := NewVersioned(snap, 0, NewCache()).Commuting(p)
		if !m.Equal(want) {
			t.Fatalf("maintained %q at v%d diverges from recompute:\ngot\n%vwant\n%v", key, v, m, want)
		}
		walked := 0
		m.Each(func(_, _ int, _ int64) { walked++ })
		if m.NNZ() != walked {
			t.Fatalf("maintained %q at v%d: NNZ() = %d, rows hold %d", key, v, m.NNZ(), walked)
		}
	}
}

// checkKeptTransposes asserts that every cached entry at version v
// reads, through TransposeCached, a transpose Equal to a fresh
// Transpose of its value: one carried through the commit, or one built
// here for an entry that kept none.
func checkKeptTransposes(t *testing.T, c *Cache, v uint64) {
	t.Helper()
	for key, m := range entriesAt(c, v) {
		if got := m.TransposeCached(); !got.Equal(m.Transpose()) {
			t.Fatalf("%q at v%d keeps a transpose\n%vthat is not its Transpose\n%v", key, v, got, m.Transpose())
		}
	}
}

// checkDiagonals asserts that every Equation-1 diagonal kept at version
// v sits beside both its halves and is Equal to one built cold from the
// halves recomputed from the snapshot, and returns how many are kept.
func checkDiagonals(t *testing.T, c *Cache, v uint64, snap *graph.Snapshot) int {
	t.Helper()
	c.mu.Lock()
	diags := make(map[cutKey]cutSlot)
	for k, ss := range *c.cuts.Load() {
		if s, ok := slotAt(ss, v); ok {
			diags[k] = s
		}
	}
	for k, s := range diags {
		if a, bt := c.entries[k.left].at(v), c.entries[k.right].at(v); a == nil || bt == nil || a.m != CachedMatrix(s.a) || bt.m != CachedMatrix(s.bt) {
			t.Errorf("diagonal of %q·(%q)⁻ at v%d outlives a half", k.left, k.right, v)
		}
		if s.b != nil && !s.b.Equal(s.bt.Transpose()) {
			t.Errorf("slot of %q·(%q)⁻ at v%d keeps a B that is not its Bᵀ transposed", k.left, k.right, v)
		}
	}
	c.mu.Unlock()
	for k, s := range diags {
		got := s.diag
		cold := NewVersioned(snap, 0, NewCache())
		want := sparse.ProductDiagonal(cold.Commuting(rre.MustParse(k.left)), cold.Commuting(rre.MustParse(k.right)))
		if !got.Equal(want) {
			t.Fatalf("diagonal of %q·(%q)⁻ at v%d diverges from recompute:\ngot  %v\nwant %v", k.left, k.right, v, got, want)
		}
	}
	return len(diags)
}

// scoreCuts has the cut of every pattern keep its diagonal at the
// evaluator's version, as a scoring read does.
func scoreCuts(ev *Evaluator, ps ...*rre.Pattern) {
	for _, p := range ps {
		ev.Scoring([]Cut{ev.Cut(p)}, nop)
	}
}

// keepSomeTransposes has a random subset of the entries cached at
// version v build their transposes, so a commit meets entries with and
// without one.
func keepSomeTransposes(rng *rand.Rand, c *Cache, v uint64) {
	for _, m := range entriesAt(c, v) {
		if rng.Intn(2) == 0 {
			m.TransposeCached()
		}
	}
}

// --- table-driven rule tests -----------------------------------------------

// fixtureSnap builds the fixed 5-node fixture used by the rule tests.
func fixtureSnap() *graph.Snapshot {
	g := graph.New()
	for i := 0; i < 5; i++ {
		g.AddNode("", "")
	}
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "a", 2)
	g.AddEdge(1, "b", 3)
	g.AddEdge(3, "b", 4)
	g.AddEdge(2, "c", 0)
	g.AddEdge(4, "c", 2)
	return g.Snapshot()
}

// TestMaintainRules exercises each delta rule in isolation: the pattern
// is materialized at v0, a commit batch runs, and the maintained entry
// at v1 must be byte-identical to a recompute from the new snapshot.
func TestMaintainRules(t *testing.T) {
	cases := []struct {
		name    string
		pattern string
		ops     []deltaOp
	}{
		{"label add", "a", []deltaOp{{op: "add-edge", u: 2, v: 4, label: "a"}}},
		{"label remove", "a", []deltaOp{{op: "remove-edge", u: 0, v: 1, label: "a"}}},
		{"label add and remove", "a", []deltaOp{
			{op: "add-edge", u: 2, v: 4, label: "a"},
			{op: "remove-edge", u: 1, v: 2, label: "a"},
		}},
		{"add then remove same edge cancels", "a", []deltaOp{
			{op: "add-edge", u: 2, v: 4, label: "a"},
			{op: "remove-edge", u: 2, v: 4, label: "a"},
		}},
		{"transpose", "a-", []deltaOp{{op: "add-edge", u: 3, v: 0, label: "a"}}},
		{"alt", "a + b", []deltaOp{
			{op: "add-edge", u: 0, v: 3, label: "a"},
			{op: "remove-edge", u: 1, v: 3, label: "b"},
		}},
		{"mul left factor", "a.b", []deltaOp{{op: "add-edge", u: 0, v: 3, label: "a"}}},
		{"mul right factor", "a.b", []deltaOp{{op: "remove-edge", u: 1, v: 3, label: "b"}}},
		{"mul both factors (cross term)", "a.b", []deltaOp{
			{op: "add-edge", u: 0, v: 3, label: "a"},
			{op: "add-edge", u: 3, v: 1, label: "b"},
		}},
		{"mul chain", "a.b.c", []deltaOp{
			{op: "add-edge", u: 0, v: 3, label: "b"},
			{op: "remove-edge", u: 4, v: 2, label: "c"},
		}},
		{"boolean recompute from child", "<a.b>", []deltaOp{{op: "add-edge", u: 0, v: 3, label: "a"}}},
		{"nest recompute from child", "[a.b]", []deltaOp{{op: "add-edge", u: 0, v: 3, label: "a"}}},
		{"star recompute from child", "a*", []deltaOp{{op: "add-edge", u: 2, v: 3, label: "a"}}},
		{"star untouched child grows", "a*", []deltaOp{{op: "add-node"}}},
		{"epsilon grows with the id space", "a + ()", []deltaOp{{op: "add-node"}, {op: "add-node"}}},
		{"node addition grows everything", "a.b", []deltaOp{
			{op: "add-node"},
			{op: "add-edge", u: 1, v: 5, label: "b"},
		}},
		{"composite", "(a + b-).c", []deltaOp{
			{op: "add-edge", u: 0, v: 4, label: "b"},
			{op: "remove-edge", u: 2, v: 0, label: "c"},
			{op: "add-node"},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snap := fixtureSnap()
			cache := NewCache()
			NewVersioned(snap, 0, cache).Commuting(rre.MustParse(tc.pattern))
			next, d := applyBatch(snap, 0, tc.ops)
			res := cache.Commit(next, d, at(1))
			if res.Fallbacks != 0 {
				t.Fatalf("unexpected fallbacks: %+v", res)
			}
			if len(d.Labels) > 0 || d.nodesGrew() {
				if res.Maintained == 0 {
					t.Fatalf("nothing maintained: %+v", res)
				}
				key := canonForm(rre.MustParse(tc.pattern)).String()
				if _, ok := entriesAt(cache, 1)[key]; !ok {
					t.Fatalf("maintained root %q missing at v1", key)
				}
			}
			checkAgainstRecompute(t, cache, 1, next)
		})
	}
}

// TestMaintainDensityFallback: a delta denser than the threshold must
// not be maintained — the pattern falls back to evict-and-recompute.
func TestMaintainDensityFallback(t *testing.T) {
	snap := fixtureSnap()
	cache := NewCache()
	NewVersioned(snap, 0, cache).Commuting(rre.MustParse("a.b"))
	next, d := applyBatch(snap, 0, []deltaOp{{op: "add-edge", u: 0, v: 3, label: "a"}})
	defer func(was float64) { maxDeltaDensity = was }(maxDeltaDensity)
	maxDeltaDensity = 1e-9
	res := cache.Commit(next, d, at(1))
	if res.Maintained != 0 || res.Fallbacks == 0 {
		t.Fatalf("expected pure fallback under tiny density budget, got %+v", res)
	}
	if got := entriesAt(cache, 1); len(got) != len(entriesAt(cache, 0)) && func() bool {
		_, ok := got["a.b"]
		return ok
	}() {
		t.Fatalf("dense pattern must not survive at v1: %v", got)
	}
	// The evicted pattern recomputes correctly on the next read.
	m := NewVersioned(next, 1, cache).Commuting(rre.MustParse("a.b"))
	want := NewVersioned(next, 0, NewCache()).Commuting(rre.MustParse("a.b"))
	if !m.Equal(want) {
		t.Fatal("recompute after fallback diverges")
	}
}

// TestMaintainSkipsUntouchedPatterns: maintenance only walks stale
// roots; an untouched pattern is neither walked nor duplicated (its
// entry stays open).
func TestMaintainSkipsUntouchedPatterns(t *testing.T) {
	snap := fixtureSnap()
	cache := NewCache()
	ev := NewVersioned(snap, 0, cache)
	ev.Commuting(rre.MustParse("c"))
	ev.Commuting(rre.MustParse("a"))
	next, d := applyBatch(snap, 0, []deltaOp{{op: "add-edge", u: 0, v: 3, label: "a"}})
	res := cache.Commit(next, d, at(1))
	if res.Roots != 1 {
		t.Fatalf("Roots = %d, want 1 (only the pattern mentioning a)", res.Roots)
	}
	ents := entriesAt(cache, 1)
	if len(ents) != 2 {
		t.Fatalf("entries at v1 = %d, want 2 (carried c + maintained a)", len(ents))
	}
	checkAgainstRecompute(t, cache, 1, next)
}

// --- differential harness --------------------------------------------------

// randDeltaPattern generates a random RRE over the labels with bounded
// size, covering every node kind the maintenance engine handles.
func randDeltaPattern(rng *rand.Rand, labels []string, depth int) *rre.Pattern {
	if depth <= 0 || rng.Intn(3) == 0 {
		return rre.Label(labels[rng.Intn(len(labels))])
	}
	sub := func() *rre.Pattern { return randDeltaPattern(rng, labels, depth-1) }
	switch rng.Intn(9) {
	case 0:
		return rre.Rev(sub())
	case 1, 2:
		return rre.Concat(sub(), sub())
	case 3:
		return rre.Concat(sub(), sub(), sub())
	case 4:
		return rre.Alt(sub(), sub())
	case 5:
		return rre.Skip(sub())
	case 6:
		return rre.Nest(sub())
	case 7:
		return rre.Star(sub())
	default:
		return rre.Concat(sub(), rre.Alt(sub(), sub()))
	}
}

// randBatch generates a random mutation batch including edge removals
// and node additions.
func randBatch(rng *rand.Rand, n int, labels []string) []deltaOp {
	ops := make([]deltaOp, 0, 4)
	for i := 0; i < 1+rng.Intn(4); i++ {
		switch r := rng.Intn(10); {
		case r < 5:
			ops = append(ops, deltaOp{op: "add-edge",
				u: graph.NodeID(rng.Intn(n)), v: graph.NodeID(rng.Intn(n)),
				label: labels[rng.Intn(len(labels))]})
		case r < 9:
			ops = append(ops, deltaOp{op: "remove-edge",
				u: graph.NodeID(rng.Intn(n)), v: graph.NodeID(rng.Intn(n)),
				label: labels[rng.Intn(len(labels))]})
		default:
			ops = append(ops, deltaOp{op: "add-node"})
			n++
		}
	}
	return ops
}

// TestDeltaMaintainDifferential is the correctness harness for the
// tentpole: across hundreds of seeded mutate/query interleavings
// (including edge removals and node additions), every matrix the
// maintenance engine produces must be byte-identical to one recomputed
// from the new snapshot, and reads served through the maintained cache
// must match a cache-less evaluation.
func TestDeltaMaintainDifferential(t *testing.T) {
	labels := []string{"a", "b", "c"}
	const graphs, rounds = 60, 10
	interleavings := 0
	totalMaintained, totalFallbacks, removals, nodeAdds := 0, 0, 0, 0

	for gi := 0; gi < graphs; gi++ {
		rng := rand.New(rand.NewSource(int64(1000*gi + 7)))
		snap := randomGraph(rng, 6+rng.Intn(8), 14+rng.Intn(16), labels).Snapshot()
		cache := NewCache()
		pool := make([]*rre.Pattern, 6)
		for i := range pool {
			pool[i] = randDeltaPattern(rng, labels, 2)
		}
		version := uint64(0)
		for r := 0; r < rounds; r++ {
			// Query phase: materialize a random subset at the current
			// version through the shared cache.
			ev := NewVersioned(snap, version, cache)
			for i := 0; i < 2; i++ {
				ev.Commuting(pool[rng.Intn(len(pool))])
			}
			scoreCuts(ev, pool[rng.Intn(len(pool))])

			// Mutate phase: commit a batch through the cache.
			ops := randBatch(rng, snap.NumNodes(), labels)
			for _, o := range ops {
				switch o.op {
				case "remove-edge":
					removals++
				case "add-node":
					nodeAdds++
				}
			}
			next, d := applyBatch(snap, version, ops)
			res := cache.Commit(next, d, at(version+1))
			totalMaintained += res.Maintained
			totalFallbacks += res.Fallbacks
			snap, version = next, version+1
			interleavings++

			// Verify every cached matrix and kept diagonal at the new
			// version against a from-scratch recompute.
			checkAgainstRecompute(t, cache, version, snap)
			checkDiagonals(t, cache, version, snap)

			// And that a read through the maintained cache matches a
			// cache-less evaluation.
			ev = NewVersioned(snap, version, cache)
			p := pool[rng.Intn(len(pool))]
			got := ev.Commuting(p)
			want := NewVersioned(snap, 0, NewCache()).Commuting(p)
			if !got.Equal(want) {
				t.Fatalf("graph %d round %d: served read for %s diverges", gi, r, p)
			}
		}
	}

	if interleavings < 500 {
		t.Fatalf("only %d interleavings, acceptance requires >= 500", interleavings)
	}
	if totalMaintained == 0 {
		t.Fatal("maintenance never maintained anything — harness is vacuous")
	}
	if removals == 0 || nodeAdds == 0 {
		t.Fatalf("harness must include removals (%d) and node additions (%d)", removals, nodeAdds)
	}
	t.Logf("interleavings=%d maintained=%d fallbacks=%d removals=%d nodeAdds=%d",
		interleavings, totalMaintained, totalFallbacks, removals, nodeAdds)
}

// --- fuzz ------------------------------------------------------------------

// FuzzDeltaMaintain fuzzes the maintenance engine: an arbitrary pattern
// is materialized over the fixture, an arbitrary op-stream commits, and
// the maintained entries must recompute identically.
func FuzzDeltaMaintain(f *testing.F) {
	f.Add("a.b", []byte{0, 0, 0, 3})
	f.Add("a.b.c", []byte{1, 0, 0, 1, 0, 1, 1, 2})
	f.Add("(a + b-).c", []byte{2, 0, 0, 0, 0, 1, 2, 5})
	f.Add("<a.b>", []byte{0, 2, 1, 4, 1, 1, 1, 3})
	f.Add("[b.c]", []byte{0, 1, 2, 2, 2, 0, 0, 0})
	f.Add("a*", []byte{0, 0, 2, 3, 1, 0, 0, 1})
	f.Add("(a.b)- + c", []byte{2, 0, 0, 0, 2, 1, 1, 1, 0, 0, 0, 5})
	f.Add("<b+c>*.a", []byte{1, 3, 1, 4, 0, 4, 2, 0})

	f.Fuzz(func(t *testing.T, pattern string, opBytes []byte) {
		if len(pattern) > 48 || len(opBytes) > 40 {
			t.Skip("oversized input")
		}
		p, err := rre.Parse(pattern)
		if err != nil || p.Size() > 24 {
			t.Skip("not a small pattern")
		}
		snap := fixtureSnap()
		cache := NewCache()
		ev := NewVersioned(snap, 0, cache)
		ev.Commuting(p)
		scoreCuts(ev, p)
		keepSomeTransposes(rand.New(rand.NewSource(int64(len(opBytes)))), cache, 0)

		labels := []string{"a", "b", "c"}
		var ops []deltaOp
		nodes := snap.NumNodes()
		for i := 0; i+3 < len(opBytes); i += 4 {
			kind, u, l, v := opBytes[i]%10, opBytes[i+1], opBytes[i+2], opBytes[i+3]
			switch {
			case kind < 5:
				ops = append(ops, deltaOp{op: "add-edge",
					u: graph.NodeID(int(u) % nodes), v: graph.NodeID(int(v) % nodes),
					label: labels[int(l)%len(labels)]})
			case kind < 9:
				ops = append(ops, deltaOp{op: "remove-edge",
					u: graph.NodeID(int(u) % nodes), v: graph.NodeID(int(v) % nodes),
					label: labels[int(l)%len(labels)]})
			default:
				ops = append(ops, deltaOp{op: "add-node"})
				nodes++
			}
		}
		next, d := applyBatch(snap, 0, ops)
		cache.Commit(next, d, at(1))
		checkAgainstRecompute(t, cache, 1, next)
		checkKeptTransposes(t, cache, 1)
		// The cut's diagonal reaches v1 exactly when both its halves do:
		// patched where a half was maintained, carried where neither
		// changed, dropped with a half that fell back.
		kept := checkDiagonals(t, cache, 1, next)
		if c := ev.Cut(p); c.RevRight != nil {
			cache.mu.Lock()
			want := cache.entries[c.Left.String()].at(1) != nil && cache.entries[c.RevRight.String()].at(1) != nil
			cache.mu.Unlock()
			if (kept == 1) != want {
				t.Fatalf("%s: %d diagonals at v1, halves both there: %v", p, kept, want)
			}
		}
	})
}

// --- long chain ------------------------------------------------------------

// TestMaintainLongChain patches one cache through 320 consecutive
// commits in phases — edges and nodes pile up, then whole rows are
// emptied, then they fill again — so every maintained entry lives
// through many in-place appends to a shared arena, rewrites when the
// arena runs out of room, and rewrites when too much of it is dead
// (sparse.TestPatchSharesArena pins those three individually). At every
// commit every entry must be Equal to a cold recompute with a stored
// NNZ matching a walk of its rows, and its kept transpose — carried
// through the commit by Grow and Patch — Equal to its Transpose. Half
// the entries keep one before the first commit; the check builds the
// rest, and every entry keeps one from then on.
//
// Readers run beside the writer, as pinned requests do in the server:
// every 16 commits one takes the matrices of the version just made,
// their transposes and a cold recompute of them, then keeps comparing
// while the writer patches that version's successors, and their
// transposes, in the same arenas. Under -race this is the check that a
// patch writes only slots no older version or transpose reads.
func TestMaintainLongChain(t *testing.T) {
	labels := []string{"a", "b", "c"}
	rng := rand.New(rand.NewSource(99))
	snap := randomGraph(rng, 48, 600, labels).Snapshot()
	var pool []*rre.Pattern
	for _, s := range []string{"a.b", "a.b-.c", "<a.b>", "[a.b]", "(a + b-).c", "a-.[b].c", "<a>.<b->", "c*"} {
		pool = append(pool, rre.MustParse(s))
	}
	cache := NewCache()
	ev := NewVersioned(snap, 0, cache)
	for _, p := range pool {
		ev.Commuting(p)
	}
	scoreCuts(ev, pool...)
	keepSomeTransposes(rng, cache, 0)
	diagonals := checkDiagonals(t, cache, 0, snap)

	const commits, readEvery, readFor = 320, 16, 12
	var readers sync.WaitGroup
	stop := make(map[int]chan struct{}) // commit at which a reader may stop → its signal
	totals := CommitResult{}
	for i := 0; i < commits; i++ {
		n := snap.NumNodes()
		var ops []deltaOp
		switch phase := (i / 40) % 3; {
		case phase == 1:
			// Empty two rows of one label: every edge out of two nodes.
			l := labels[rng.Intn(len(labels))]
			for k := 0; k < 2; k++ {
				u := graph.NodeID(rng.Intn(n))
				for _, v := range snap.Out(u, l) {
					ops = append(ops, deltaOp{op: "remove-edge", u: u, v: v, label: l})
				}
			}
		case i%5 == 0:
			ops = append(ops, deltaOp{op: "add-node"},
				deltaOp{op: "add-edge", u: graph.NodeID(n), v: graph.NodeID(rng.Intn(n)), label: labels[rng.Intn(len(labels))]})
			fallthrough
		default:
			for k := 0; k < 1+rng.Intn(4); k++ {
				ops = append(ops, deltaOp{op: "add-edge",
					u: graph.NodeID(rng.Intn(n)), v: graph.NodeID(rng.Intn(n)), label: labels[rng.Intn(len(labels))]})
			}
		}
		v := uint64(i)
		next, d := applyBatch(snap, v, ops)
		res := cache.Commit(next, d, at(v+1))
		totals.Maintained += res.Maintained
		totals.Fallbacks += res.Fallbacks
		snap = next
		checkAgainstRecompute(t, cache, v+1, snap)
		checkKeptTransposes(t, cache, v+1)
		if kept := checkDiagonals(t, cache, v+1, snap); kept != diagonals {
			t.Fatalf("commit %d: %d diagonals kept, want all %d maintained", i, kept, diagonals)
		}

		if ch, ok := stop[i]; ok {
			close(ch)
		}
		if i%readEvery == 0 && i+readFor < commits {
			pinned := entriesAt(cache, v+1)
			want := make(map[string]*sparse.Matrix, len(pinned))
			for key := range pinned {
				want[key] = NewVersioned(snap, 0, NewCache()).Commuting(rre.MustParse(key))
			}
			wantT := make(map[string]*sparse.Matrix, len(pinned))
			for key, m := range want {
				wantT[key] = m.Transpose()
			}
			done := make(chan struct{})
			stop[i+readFor] = done
			readers.Add(1)
			go func() {
				defer readers.Done()
				for stopped := false; !stopped; {
					select {
					case <-done:
						stopped = true // one last pass after the writer moved on
					default:
					}
					for key, m := range pinned {
						if !m.Equal(want[key]) || !m.TransposeCached().Equal(wantT[key]) {
							t.Errorf("reader pinned at v%d: %q or its transpose changed under it", v+1, key)
							return
						}
					}
				}
			}()
		}
	}
	readers.Wait()
	if totals.Fallbacks != 0 || totals.Maintained < commits {
		t.Fatalf("chain maintained %d entries with %d fallbacks over %d commits", totals.Maintained, totals.Fallbacks, commits)
	}
}

// TestMaintainedDiagonalNeverReadsAStaleHalf: when Commit patches a
// kept diagonal whose left half it maintained, a right half it did not
// maintain — one that fell back, or one no root walk reached — stands
// in at d.To only if the commit left it untouched. When
// the commit touched its label or grew the id space, the diagonal is
// not patched (the next read builds it) instead of being merged against
// the old half.
func TestMaintainedDiagonalNeverReadsAStaleHalf(t *testing.T) {
	snap := fixtureSnap()
	c := NewCache()
	ev := NewVersioned(snap, 0, c)
	p := rre.MustParse("a.b")
	ev.Commuting(p)
	scoreCuts(ev, p)
	cut := ev.Cut(p)
	k := cutKey{cut.Left.String(), cut.RevRight.String()}
	s, _ := slotAt((*c.cuts.Load())[k], 0)
	for _, tc := range []struct {
		name    string
		ops     []deltaOp
		patched bool
	}{
		{"right half untouched", []deltaOp{{op: "add-edge", u: 2, v: 3, label: "a"}}, true},
		{"right half touched", []deltaOp{{op: "add-edge", u: 2, v: 3, label: "a"}, {op: "add-edge", u: 0, v: 4, label: "b"}}, false},
		{"id space grew", []deltaOp{{op: "add-edge", u: 2, v: 3, label: "a"}, {op: "add-node"}}, false},
	} {
		next, d := applyBatch(snap, 0, tc.ops)
		cold := NewVersioned(next, 0, NewCache())
		a, bt := cold.Commuting(cut.Left), cold.Commuting(cut.RevRight)
		mt := &maintainer{d: d, memo: map[string]*maintTerm{k.left: {new: a, delta: d.Labels["a"]}}}
		got := mt.diagonal(&keptDiag{k: k, diag: s.diag, a: s.a, bt: s.bt, la: c.entries[k.left].labels, lb: c.entries[k.right].labels})
		if (got != nil) != tc.patched {
			t.Fatalf("%s: patched %v, want %v", tc.name, got != nil, tc.patched)
		}
		if got != nil && !got.Equal(sparse.ProductDiagonal(a, bt)) {
			t.Fatalf("%s: patched diagonal %+v, want %+v", tc.name, got, sparse.ProductDiagonal(a, bt))
		}
	}
}
