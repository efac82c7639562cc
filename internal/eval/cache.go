package eval

import (
	"context"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"relsim/internal/rre"
	"relsim/internal/sparse"
)

// Key is what a reader asks the cache for: the integer commuting
// matrix of one canonical pattern string at one graph version. The
// cache stores each pattern once per validity interval: an entry is
// valid at every version from the one it was built or patched at until
// a commit touches one of its pattern's labels (Cache.Commit), up to
// the newest version the cache has seen.
// So an untouched entry serves every later version without moving, a
// reader pinned at an old version keeps reading the entry valid there,
// and evaluators over different versions share one cache without
// aliasing. Only integer matrices are cached: a walk over any other
// ring memoizes for its one call (walk).
type Key struct {
	Version uint64
	Pattern string
}

// open ends the interval of an entry no commit has closed: it is valid
// at the head and at every version after it until a commit touches it.
const open = math.MaxUint64

// cacheEntry is one materialized matrix, valid at the versions
// [from, to), with its last-use tick (for LRU eviction).
type cacheEntry struct {
	m        *sparse.Matrix
	from, to uint64
	used     uint64
}

func (e *cacheEntry) holds(v uint64) bool { return e.from <= v && v < e.to }

// history is every entry of one pattern key, their intervals
// disjoint, at most one of them open, with the pattern itself, which a
// commit walks without parsing the key, and its labels for the label
// index.
type history struct {
	p      *rre.Pattern
	labels []string
	ents   []*cacheEntry
}

// at returns h's entry valid at version v; a nil history has none.
func (h *history) at(v uint64) *cacheEntry {
	if h != nil {
		for _, e := range h.ents {
			if e.holds(v) {
				return e
			}
		}
	}
	return nil
}

// current returns h's open entry.
func (h *history) current() *cacheEntry {
	if h != nil {
		for _, e := range h.ents {
			if e.to == open {
				return e
			}
		}
	}
	return nil
}

// holding returns h's entry of matrix m.
func (h *history) holding(m *sparse.Matrix) *cacheEntry {
	if h != nil {
		for _, e := range h.ents {
			if e.m == m {
				return e
			}
		}
	}
	return nil
}

// cutKey names a concatenation term's cut (Term) by its halves' entry keys.
type cutKey struct{ left, right string }

// cutSlot is what Equation-1 scoring reads of one cut at the versions
// [from, to) (Evaluator.Scoring): the halves A and Bᵀ, the transpose B
// that Bᵀ keeps (nil if it kept none when the slot was made), and
// diag(A·B). A slot is not an entry: its interval is the meet of its
// halves' intervals (liveCuts), so it closes when either half closes and
// goes when either goes, a half replaced by another matrix included.
type cutSlot struct {
	a, bt, b *sparse.Matrix
	diag     *sparse.Vector
	from, to uint64
}

// cutTable maps each kept cut to its slots, their intervals disjoint. A
// published table is never written: a writer publishes a changed copy.
type cutTable map[cutKey][]cutSlot

// slotAt returns the slot of ss valid at version v.
func slotAt(ss []cutSlot, v uint64) (cutSlot, bool) {
	for _, s := range ss {
		if s.from <= v && v < s.to {
			return s, true
		}
	}
	return cutSlot{}, false
}

// Cache is a versioned commuting-matrix cache shared by all evaluators
// of one serving engine. It is safe for concurrent use.
type Cache struct {
	// cuts publishes the cut table. Writers replace it under mu;
	// lookupCut on an unbounded cache reads it without mu.
	cuts atomic.Pointer[cutTable]

	mu      sync.Mutex
	entries map[string]*history
	byLabel map[string]map[string]struct{} // label → keys whose pattern mentions it
	closed  map[string]struct{}            // keys that may hold a closed entry
	size    int                            // entries across all histories
	// head is the newest version the cache has seen (Commit, or a build
	// above it): it answers no version above it. Written under mu, after
	// the cut table it goes with, so lookupCut loads it first.
	head atomic.Uint64
	// floor is the oldest version a reader could still pin at the last
	// commit.
	floor uint64
	limit atomic.Int64 // max cached matrices; 0 = unbounded. Written under mu.
	tick  uint64       // logical clock for LRU recency

	hits, misses, evictions, invalidations uint64

	// building holds the builds in flight, one per missing key (lookup).
	building map[Key]*flight

	// scanned counts the keys a commit's close pass examined. The label
	// index makes it proportional to the touched entries; the cache
	// tests gate on it deterministically.
	scanned uint64

	// cutHits counts the halves the cut table served, added once per
	// scoring call (Evaluator.Scoring), not under mu.
	cutHits atomic.Uint64
}

// NewCache returns an empty, unbounded cache.
func NewCache() *Cache {
	c := &Cache{
		entries:  make(map[string]*history),
		byLabel:  make(map[string]map[string]struct{}),
		closed:   make(map[string]struct{}),
		building: make(map[Key]*flight),
	}
	c.cuts.Store(&cutTable{})
	return c
}

// CacheStats is a point-in-time snapshot of the commuting-matrix cache.
// Diagonals are the Equation-1 diagonals kept beside the entries, one
// per slot of the cut table, with their stored entries and bytes; they
// do not count towards Size. Versions is the number of versions
// VersionOccupancy reports.
type CacheStats struct {
	Size     int `json:"size"`
	Versions int `json:"versions"`
	Limit    int `json:"limit"`
	// Hits counts the lookups that found their matrix: every Commuting
	// call's, the recursive sub-pattern calls' included, and two per cut
	// a scoring read took from the cut table, the latter added once per
	// read.
	Hits            uint64 `json:"hits"`
	Misses          uint64 `json:"misses"`
	Evictions       uint64 `json:"evictions"`
	Invalidations   uint64 `json:"invalidations"`
	Diagonals       int    `json:"diagonals"`
	DiagonalEntries int    `json:"diagonal_entries"`
	DiagonalBytes   int    `json:"diagonal_bytes"`
}

// Stats returns the cache counters. It costs O(kept diagonals), each
// knowing its entries and bytes, plus VersionOccupancy's cost.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{
		Size:          c.size,
		Versions:      len(c.occupancyLocked()),
		Limit:         int(c.limit.Load()),
		Hits:          c.hits + c.cutHits.Load(),
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
	}
	for _, ss := range *c.cuts.Load() {
		for _, s := range ss {
			st.Diagonals++
			st.DiagonalEntries += s.diag.NNZ()
			st.DiagonalBytes += s.diag.Bytes()
		}
	}
	return st
}

// Size returns the number of materialized commuting matrices.
func (c *Cache) Size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// VersionOccupancy maps versions to the number of entries valid there:
// the head, and each version from the last commit's floor up at which
// an entry's interval begins (one that began below the floor counting
// at the floor). It is the /stats view of how much of the cache serves
// the head and how much only readers still pinned at older versions.
// Versions no entry is valid at are left out. It costs O(entries ×
// versions reported).
func (c *Cache) VersionOccupancy() map[uint64]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.occupancyLocked()
}

func (c *Cache) occupancyLocked() map[uint64]int {
	vs := []uint64{c.head.Load()}
	for _, h := range c.entries {
		for _, e := range h.ents {
			vs = append(vs, max(e.from, c.floor))
		}
	}
	slices.Sort(vs)
	occ := make(map[uint64]int)
	for _, v := range slices.Compact(vs) {
		for _, h := range c.entries {
			if h.at(v) != nil {
				occ[v]++
			}
		}
	}
	return occ
}

// SetLimit bounds the cache to at most n matrices, evicting the least
// recently used entries when the bound is exceeded. n <= 0 removes the
// bound (the default).
func (c *Cache) SetLimit(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.limit.Store(int64(max(n, 0)))
	c.evictLocked()
}

// add stores e in key ek's history, pattern p's, and indexes a new
// history's labels. c.mu held.
func (c *Cache) add(ek string, p *rre.Pattern, e *cacheEntry) {
	h := c.entries[ek]
	if h == nil {
		h = &history{p: p, labels: p.Labels()}
		c.entries[ek] = h
		for _, l := range h.labels {
			set := c.byLabel[l]
			if set == nil {
				set = make(map[string]struct{})
				c.byLabel[l] = set
			}
			set[ek] = struct{}{}
		}
	}
	h.ents = append(h.ents, e)
	c.size++
	if e.to != open {
		c.closed[ek] = struct{}{}
	}
}

// remove deletes e from key ek's history, and unindexes the history
// when it empties. The caller republishes the cut table (liveCuts).
// c.mu held.
func (c *Cache) remove(ek string, e *cacheEntry) {
	h := c.entries[ek]
	h.ents = slices.DeleteFunc(h.ents, func(x *cacheEntry) bool { return x == e })
	c.size--
	if len(h.ents) > 0 {
		return
	}
	delete(c.entries, ek)
	delete(c.closed, ek)
	for _, l := range h.labels {
		if set := c.byLabel[l]; set != nil {
			delete(set, ek)
			if len(set) == 0 {
				delete(c.byLabel, l)
			}
		}
	}
}

// closeAt ends key ek's open entry e at version at, dropping it when no
// version from the floor up is left in its interval. c.mu held.
func (c *Cache) closeAt(ek string, e *cacheEntry, at uint64) {
	e.to = at
	if max(e.from, c.floor) >= at {
		c.remove(ek, e)
	} else {
		c.closed[ek] = struct{}{}
	}
}

// dropBelow removes the closed entries no version from floor up is in
// the interval of, and returns how many. c.mu held.
func (c *Cache) dropBelow(floor uint64) int {
	n := 0
	for ek := range c.closed {
		h, left := c.entries[ek], false
		for i := len(h.ents) - 1; i >= 0; i-- {
			if e := h.ents[i]; e.to <= floor {
				c.remove(ek, e)
				n++
			} else if e.to != open {
				left = true
			}
		}
		if !left {
			delete(c.closed, ek)
		}
	}
	return n
}

// liveCuts returns t with each slot's interval set to the meet of its
// halves' entries' intervals, and without the slots a half of which is
// no longer an entry or whose meet is empty. It is the one rule that
// decides which slots live: every writer that closes, drops or replaces
// an entry publishes its result. c.mu held.
func (c *Cache) liveCuts(t cutTable) *cutTable {
	out := make(cutTable, len(t))
	for k, ss := range t {
		var live []cutSlot
		for _, s := range ss {
			if s.from, s.to = c.meet(k, s.a, s.bt); s.from < s.to {
				live = append(live, s)
			}
		}
		if live != nil {
			out[k] = live
		}
	}
	return &out
}

// meet returns the interval at which a and bt are both entries, of the
// cut's left and right keys: empty when either is not. c.mu held.
func (c *Cache) meet(k cutKey, a, bt *sparse.Matrix) (from, to uint64) {
	ea, eb := c.entries[k.left].holding(a), c.entries[k.right].holding(bt)
	if ea == nil || eb == nil {
		return 0, 0
	}
	return max(ea.from, eb.from), min(ea.to, eb.to)
}

// flight is one build of a missing key in progress; m, set before done
// closes, stays nil if the build failed.
type flight struct {
	done chan struct{}
	m    *sparse.Matrix
}

// lookup returns the matrix cached under key, recording a hit. On a miss
// it waits for the build of key in flight, if any, and returns its
// matrix as a hit, or looks again if that build failed. Otherwise it
// records the miss and registers a build the caller owns (own) and must
// end with land. A wait ends early with ctx's error when ctx (nil:
// never) ends. Waits cannot form a cycle: while its build is open, the
// builder of p builds and waits only for patterns strictly smaller than
// p (compute recurses into p.Subs(), Commuting into its cut's halves).
func (c *Cache) lookup(ctx context.Context, key Key) (m *sparse.Matrix, own bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if e := c.entries[key.Pattern].at(key.Version); e != nil && key.Version <= c.head.Load() {
			c.hits++
			c.tick++
			e.used = c.tick
			return e.m, false, nil
		}
		fl := c.building[key]
		if fl == nil {
			c.misses++
			c.building[key] = &flight{done: make(chan struct{})}
			return nil, true, nil
		}
		var stop <-chan struct{}
		if ctx != nil {
			stop = ctx.Done()
		}
		c.mu.Unlock()
		select {
		case <-fl.done:
		case <-stop:
		}
		c.mu.Lock()
		if fl.m != nil {
			c.hits++
			return fl.m, false, nil
		}
		if ctx != nil && ctx.Err() != nil {
			return nil, false, ctx.Err()
		}
	}
}

// land stores a computed matrix of pattern p, unless m is nil (the
// build failed), and hands m to the waiters of key's build, if any.
func (c *Cache) land(key Key, m *sparse.Matrix, p *rre.Pattern) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m != nil {
		c.insertLocked(key, m, p)
		c.evictLocked()
	}
	if fl := c.building[key]; fl != nil {
		delete(c.building, key)
		fl.m = m
		close(fl.done)
	}
}

// lookupCut returns the slot of the cut valid at version v, if one is
// kept. On an unbounded cache it reads the published table: it takes no
// lock and writes nothing. A bounded cache looks under mu and marks both
// halves used, so its LRU order stays exact. Either way the caller
// counts the hit (Evaluator.Scoring).
func (c *Cache) lookupCut(v uint64, k cutKey) (cutSlot, bool) {
	if v > c.head.Load() {
		return cutSlot{}, false
	}
	if c.limit.Load() == 0 {
		return slotAt((*c.cuts.Load())[k], v)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := slotAt((*c.cuts.Load())[k], v)
	if ok {
		for _, e := range [...]*cacheEntry{c.entries[k.left].holding(s.a), c.entries[k.right].holding(s.bt)} {
			if e != nil {
				c.tick++
				e.used = c.tick
			}
		}
	}
	return s, ok
}

// keepCut publishes s as the slot of the cut at version v, unless its
// halves are no longer the entries valid at v (it would outlive a half)
// or a slot valid at v is kept already.
func (c *Cache) keepCut(v uint64, k cutKey, s cutSlot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := *c.cuts.Load()
	if _, kept := slotAt(t[k], v); kept {
		return
	}
	if s.from, s.to = c.meet(k, s.a, s.bt); v < s.from || v >= s.to {
		return
	}
	t = maps.Clone(t)
	t[k] = append(slices.Clip(t[k]), s)
	c.cuts.Store(&t)
}

// insertLocked stores m as key's entry at key.Version. An entry valid
// there already takes m in its place, keeping its interval; the slots
// of a half so replaced with another matrix die. Otherwise the entry's
// interval depends on where v stands against the head:
//   - at the head it opens, [v, open);
//   - below the head it lands as [v, v+1): a reader still at v after a
//     commit closed v's entries never opens an interval over a version
//     the commit patched;
//   - above the head it moves the head to v first, closing every open
//     entry at v, since no commit described the versions in between.
//
// c.mu held.
func (c *Cache) insertLocked(key Key, m *sparse.Matrix, p *rre.Pattern) {
	v, ek := key.Version, key.Pattern
	if v > c.head.Load() {
		for k, h := range c.entries {
			if e := h.current(); e != nil {
				c.closeAt(k, e, v)
			}
		}
		c.cuts.Store(c.liveCuts(*c.cuts.Load()))
		c.head.Store(v)
	}
	c.tick++
	if e := c.entries[ek].at(v); e != nil {
		old := e.m
		e.m, e.used = m, c.tick
		if old != m {
			c.cuts.Store(c.liveCuts(*c.cuts.Load()))
		}
		return
	}
	to := uint64(open)
	if v < c.head.Load() {
		to = v + 1
	}
	c.add(ek, p, &cacheEntry{m: m, from: v, to: to, used: c.tick})
}

// LRU enforcement. c.mu held. The linear minimum scan is fine at the
// cache sizes a bounded service runs with (hundreds of patterns).
func (c *Cache) evictLocked() {
	limit := int(c.limit.Load())
	if limit <= 0 || c.size <= limit {
		return
	}
	for c.size > limit {
		var victimK string
		var victim *cacheEntry
		for k, h := range c.entries {
			for _, e := range h.ents {
				if victim == nil || e.used < victim.used {
					victimK, victim = k, e
				}
			}
		}
		c.remove(victimK, victim)
		c.evictions++
	}
	c.cuts.Store(c.liveCuts(*c.cuts.Load()))
}
