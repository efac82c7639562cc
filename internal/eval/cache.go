package eval

import (
	"context"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"relsim/internal/sparse"
)

// Key identifies one cached commuting matrix: the graph version it was
// computed against, the semiring it was evaluated over, and the
// canonical pattern string. Versioning is what makes the cache
// MVCC-safe: evaluators bound to different snapshots never alias each
// other's entries, so no invalidation is required for correctness — an
// entry for (v, ring, p) is valid forever, because version v is
// immutable. Entries of dead versions age out via the LRU bound and
// the proactive hints below.
//
// Ring is the semiring tag: "" is the canonical integer ring (the
// production ranking path), any other value names an annotation ring
// ("witness"). Tagged entries live in the same buckets and
// label index as integer ones — so Advance carries/evicts them by the
// same touched-label rules — but only integer entries are eligible for
// incremental delta maintenance (see Cache.Maintain).
type Key struct {
	Version uint64
	Ring    string
	Pattern string
}

// ringSep joins the ring tag and pattern into one bucket key. NUL can
// never appear in a rendered pattern, so tagged keys cannot collide
// with pattern strings.
const ringSep = "\x00"

// entryKey renders the in-bucket key: bare pattern for the integer
// ring, tag-prefixed otherwise.
func (k Key) entryKey() string {
	if k.Ring == "" {
		return k.Pattern
	}
	return k.Ring + ringSep + k.Pattern
}

// CachedMatrix is the value type the cache stores: a CSR matrix over
// any semiring, always the *sparse.GMatrix[T, R] of its ring R, so the
// entry's type says which ring it is over: *sparse.Matrix for the
// integer ring, *sparse.WitnessMatrix for the witness ring.
type CachedMatrix interface {
	Dim() int
	NNZ() int
}

// cacheEntry is one materialized commuting matrix together with the
// label set of its pattern (for the label-hint eviction and the
// inverted index) and its last-use tick (for LRU eviction).
type cacheEntry struct {
	m      CachedMatrix
	labels []string
	used   uint64
}

// versionBucket holds all entries of one graph version, indexed two
// ways: by pattern string, and by label → patterns mentioning it. The
// inverted index is what makes the commit path (Advance, Maintain)
// proportional to the entries actually touched instead of a scan over every entry's label list.
type versionBucket struct {
	entries map[string]*cacheEntry
	byLabel map[string]map[string]struct{}
}

// cutKey names a concatenation's cut by its halves' entry keys.
type cutKey struct{ left, right string }

// cutSlot is what Equation-1 scoring reads of one cut at one version
// (Evaluator.Scoring): the halves A and Bᵀ, the transpose B that Bᵀ
// keeps (nil if it kept none when the slot was made), and diag(A·B).
type cutSlot struct {
	a, bt, b *sparse.Matrix
	diag     *sparse.Vector
}

// cutTable holds one version's cut slots. A slot is not an entry: it
// lives while both its halves are its version's entries, so it dies
// with either half, and a half replaced by another matrix counts as
// dead. It carries with its version's bucket while both halves carry,
// and Maintain patches it when a half is; until Advance carries them, a
// slot Maintain patched may sit beside a half still at the version
// before. A published table is never written: a writer publishes a
// changed copy (Cache.publish).
type cutTable map[cutKey]cutSlot

// cutTables maps each version to its cut table.
type cutTables map[uint64]cutTable

func newBucket() *versionBucket {
	return &versionBucket{
		entries: make(map[string]*cacheEntry),
		byLabel: make(map[string]map[string]struct{}),
	}
}

// has reports whether m is b's entry under key; a nil bucket has none.
func (b *versionBucket) has(key string, m *sparse.Matrix) bool {
	if b == nil {
		return false
	}
	ent := b.entries[key]
	return ent != nil && ent.m == CachedMatrix(m)
}

// live returns the slots of ts whose halves are b's entries, the first
// table to hold a key winning.
func (b *versionBucket) live(ts ...cutTable) cutTable {
	out := make(cutTable)
	for _, t := range ts {
		for k, s := range t {
			if _, done := out[k]; !done && b.has(k.left, s.a) && b.has(k.right, s.bt) {
				out[k] = s
			}
		}
	}
	return out
}

// put stores an entry and indexes its labels.
func (b *versionBucket) put(pattern string, ent *cacheEntry) {
	b.entries[pattern] = ent
	for _, l := range ent.labels {
		set, ok := b.byLabel[l]
		if !ok {
			set = make(map[string]struct{})
			b.byLabel[l] = set
		}
		set[pattern] = struct{}{}
	}
}

// remove deletes an entry and unindexes its labels. Reports whether the
// pattern was present.
func (b *versionBucket) remove(pattern string) bool {
	ent, ok := b.entries[pattern]
	if !ok {
		return false
	}
	delete(b.entries, pattern)
	for _, l := range ent.labels {
		if set := b.byLabel[l]; set != nil {
			delete(set, pattern)
			if len(set) == 0 {
				delete(b.byLabel, l)
			}
		}
	}
	return true
}

// stale returns the set of patterns mentioning any of the given labels,
// in O(Σ index-bucket sizes) — proportional to the touched entries.
func (b *versionBucket) stale(labels []string) map[string]struct{} {
	out := make(map[string]struct{})
	for _, l := range labels {
		for p := range b.byLabel[l] {
			out[p] = struct{}{}
		}
	}
	return out
}

// Cache is a versioned commuting-matrix cache shared by all evaluators
// of one serving engine. It is safe for concurrent use.
type Cache struct {
	// cuts publishes every version's cut table. Writers replace it
	// copy-on-write under mu; lookupCut on an unbounded cache reads it
	// without mu.
	cuts atomic.Pointer[cutTables]

	mu       sync.Mutex
	versions map[uint64]*versionBucket
	size     int          // total entries across versions
	limit    atomic.Int64 // max cached matrices; 0 = unbounded. Written under mu.
	tick     uint64       // logical clock for LRU recency

	hits, misses, evictions, invalidations uint64

	// building holds the builds in flight, one per missing key (lookup).
	building map[Key]*flight

	// scanned counts entries examined by the commit path (Advance).
	// The inverted index makes it proportional to
	// touched entries; the cache tests gate on it deterministically.
	scanned uint64

	// cutHits counts the halves the cut tables served, added once per
	// scoring call (Evaluator.Scoring), not under mu.
	cutHits atomic.Uint64
}

// NewCache returns an empty, unbounded cache.
func NewCache() *Cache {
	c := &Cache{versions: make(map[uint64]*versionBucket), building: make(map[Key]*flight)}
	c.cuts.Store(&cutTables{})
	return c
}

// CacheStats is a point-in-time snapshot of the commuting-matrix cache.
// Diagonals are the Equation-1 diagonals kept beside the entries, one
// per slot of the cut tables, with their stored entries and bytes; they
// do not count towards Size.
type CacheStats struct {
	Size     int `json:"size"`
	Versions int `json:"versions"`
	Limit    int `json:"limit"`
	// Hits counts the lookups that found their matrix: every Commuting
	// call's, the recursive sub-pattern calls' included, and two per cut
	// a scoring read took from a cut table, the latter added once per
	// read.
	Hits            uint64 `json:"hits"`
	Misses          uint64 `json:"misses"`
	Evictions       uint64 `json:"evictions"`
	Invalidations   uint64 `json:"invalidations"`
	Diagonals       int    `json:"diagonals"`
	DiagonalEntries int    `json:"diagonal_entries"`
	DiagonalBytes   int    `json:"diagonal_bytes"`
}

// Stats returns the cache counters. It costs O(kept diagonals): each
// knows its entries and bytes.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{
		Size:          c.size,
		Versions:      len(c.versions),
		Limit:         int(c.limit.Load()),
		Hits:          c.hits + c.cutHits.Load(),
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
	}
	for _, t := range *c.cuts.Load() {
		for _, s := range t {
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

// VersionOccupancy returns the number of cached matrices per graph
// version — the /stats view of how much of the cache still serves old
// pinned readers.
func (c *Cache) VersionOccupancy() map[uint64]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	occ := make(map[uint64]int)
	for v, b := range c.versions {
		if len(b.entries) > 0 {
			occ[v] = len(b.entries)
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

// bucket returns the bucket for version v, creating it if needed. c.mu held.
func (c *Cache) bucket(v uint64) *versionBucket {
	b, ok := c.versions[v]
	if !ok {
		b = newBucket()
		c.versions[v] = b
	}
	return b
}

// removeLocked deletes (v, pattern) if present, maintaining size. The
// caller drops the slots it is a half of. c.mu held.
func (c *Cache) removeLocked(v uint64, pattern string) bool {
	b, ok := c.versions[v]
	if !ok {
		return false
	}
	if !b.remove(pattern) {
		return false
	}
	c.size--
	if len(b.entries) == 0 {
		delete(c.versions, v)
	}
	return true
}

// table returns version v's published cut table.
func (c *Cache) table(v uint64) cutTable { return (*c.cuts.Load())[v] }

// prune drops from the cut tables of the versions vs every slot a half
// of which is no longer the version's entry. c.mu held.
func (c *Cache) prune(vs ...uint64) {
	ts := make(cutTables, len(vs))
	for _, v := range vs {
		ts[v] = c.versions[v].live(c.table(v))
	}
	c.publish(ts)
}

// publish replaces the cut table of each version in ts with its new
// one, none when it is empty, in one copy of the published map. c.mu
// held.
func (c *Cache) publish(ts cutTables) {
	old := *c.cuts.Load()
	m := make(cutTables, len(old)+len(ts))
	maps.Copy(m, old)
	for v, t := range ts {
		if len(t) == 0 {
			delete(m, v)
		} else {
			m[v] = t
		}
	}
	c.cuts.Store(&m)
}

// flight is one build of a missing key in progress; m, set before done
// closes, stays nil if the build failed.
type flight struct {
	done chan struct{}
	m    CachedMatrix
}

// lookup returns the matrix cached under key, recording a hit. On a miss
// it waits for the build of key in flight, if any, and returns its
// matrix as a hit, or looks again if that build failed. Otherwise it
// records the miss and registers a build the caller owns (own) and must
// end with land. A wait ends early with ctx's error when ctx (nil:
// never) ends. Waits cannot form a cycle: while its build is open, the
// builder of p builds and waits only for patterns strictly smaller than
// p (compute recurses into p.Subs(), Commuting into its cut's halves).
func (c *Cache) lookup(ctx context.Context, key Key) (m CachedMatrix, own bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if b, ok := c.versions[key.Version]; ok {
			if ent, ok := b.entries[key.entryKey()]; ok {
				c.hits++
				c.tick++
				ent.used = c.tick
				return ent.m, false, nil
			}
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

// land stores a computed matrix, unless m is nil (the build failed), and
// hands m to the waiters of key's build, if any. Entries are keyed by
// immutable versions, so a build that raced a commit lands, never
// stale, under the version it was computed at.
func (c *Cache) land(key Key, m CachedMatrix, labels []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m != nil {
		c.insertLocked(key, m, labels)
		c.evictLocked()
	}
	if fl := c.building[key]; fl != nil {
		delete(c.building, key)
		fl.m = m
		close(fl.done)
	}
}

// lookupCut returns the slot of the cut at version v, if one is kept.
// On an unbounded cache it reads the published table: it takes no lock
// and writes nothing. A bounded cache looks under mu and marks both
// halves used, so its LRU order stays exact. Either way the caller
// counts the hit (Evaluator.Scoring).
func (c *Cache) lookupCut(v uint64, k cutKey) (cutSlot, bool) {
	if c.limit.Load() == 0 {
		s, ok := (*c.cuts.Load())[v][k]
		return s, ok
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.table(v)[k]
	if b := c.versions[v]; ok && b != nil {
		for _, key := range [...]string{k.left, k.right} {
			if ent := b.entries[key]; ent != nil {
				c.tick++
				ent.used = c.tick
			}
		}
	}
	return s, ok
}

// keepCut publishes s as the slot of the cut at version v, unless its
// halves are no longer v's entries (it would outlive a half) or a slot
// is kept already.
func (c *Cache) keepCut(v uint64, k cutKey, s cutSlot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, t := c.versions[v], c.table(v)
	if _, kept := t[k]; kept || b == nil || !b.has(k.left, s.a) || !b.has(k.right, s.bt) {
		return
	}
	t = maps.Clone(t)
	if t == nil {
		t = make(cutTable, 1)
	}
	t[k] = s
	c.publish(cutTables{v: t})
}

// insertLocked stores an entry unconditionally; the slots of an entry
// it replaces with another matrix die. c.mu held.
func (c *Cache) insertLocked(key Key, m CachedMatrix, labels []string) {
	b := c.bucket(key.Version)
	ek := key.entryKey()
	old := b.entries[ek]
	if old != nil {
		b.remove(ek)
		c.size--
	}
	c.tick++
	b.put(ek, &cacheEntry{m: m, labels: labels, used: c.tick})
	c.size++
	if old != nil && old.m != m {
		c.prune(key.Version)
	}
}

// Advance ages the cache across a committed write from version `from`
// to version `to`. Entries keyed at `from` whose pattern mentions no
// touched label are carried to `to`, keeping untouched patterns hot at
// the new version; touched entries (or every entry at `from` when
// nodesChanged, since the matrix dimension moves) do not carry. When
// keepFrom is false the `from` keys are removed in the same pass (the
// touched ones counting as invalidations); when keepFrom is true —
// readers are still pinned at `from` — every `from` entry stays in
// place so those readers keep their hits, carried patterns are *copied*
// to `to`, and EvictBelow reaps the leftovers once the pins release.
// Entries at older versions are untouched either way. A cut slot goes
// where both its halves go: `to`'s table is rebuilt in one pass from
// the slots Maintain kept there and those of `from`, keeping each whose
// halves are `to`'s entries afterwards, so a slot carries while neither
// half is touched or replaced and is dropped otherwise. Returns
// (carried, evicted).
//
// With the label index the common path (no pinned reader, nodes
// unchanged) moves the whole version bucket in O(1) and then removes
// the stale patterns — O(touched entries), not O(cache).
func (c *Cache) Advance(from, to uint64, touchedLabels []string, nodesChanged, keepFrom bool) (int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	src, ok := c.versions[from]
	if !ok {
		return 0, 0
	}

	var stale map[string]struct{}
	if nodesChanged {
		stale = make(map[string]struct{}, len(src.entries))
		for p := range src.entries {
			stale[p] = struct{}{}
		}
	} else {
		stale = src.stale(touchedLabels)
	}
	c.scanned += uint64(len(stale))

	carried, evicted := 0, 0
	dst, dstExists := c.versions[to]
	switch {
	case !keepFrom:
		// Fast path: move the bucket wholesale, strip stale patterns,
		// then overlay whatever already existed at `to` — maintained
		// entries the delta engine pre-inserted, or entries a reader at
		// the new version raced ahead and computed. Those copies win (a
		// raced copy is equally correct; a maintained copy is the point).
		// Cost: O(touched + |to-bucket|), not O(cache).
		delete(c.versions, from)
		c.versions[to] = src
		carried = len(src.entries)
		for p := range stale {
			if src.remove(p) {
				c.size--
				carried--
				evicted++
			}
		}
		if dstExists {
			for p, ent := range dst.entries {
				c.scanned++
				if src.remove(p) {
					c.size--
					carried--
				}
				src.put(p, ent)
			}
		}
		c.publish(cutTables{from: nil, to: src.live(c.table(to), c.table(from))})
		if len(src.entries) == 0 {
			delete(c.versions, to)
		}
	default:
		// Pinned readers at `from`: copy carried entries, leave `from`
		// intact for EvictBelow to reap once the pins release.
		if !dstExists {
			dst = c.bucket(to)
		}
		for p, ent := range src.entries {
			c.scanned++
			if _, isStale := stale[p]; isStale {
				continue
			}
			if _, dup := dst.entries[p]; !dup {
				dst.put(p, &cacheEntry{m: ent.m, labels: ent.labels, used: ent.used})
				c.size++
				carried++
			}
		}
		// A slot Maintain kept at `to` beside an untouched half that has
		// left `from` since has no half to carry.
		c.publish(cutTables{to: dst.live(c.table(to), c.table(from))})
		if len(dst.entries) == 0 {
			delete(c.versions, to)
		}
	}
	c.invalidations += uint64(evicted)
	// Carrying with keepFrom copies entries, so a bounded cache can
	// exceed its limit here; enforce it like every other insertion path
	// does instead of waiting for the next insert.
	c.evictLocked()
	return carried, evicted
}

// EvictBelow drops every entry with version < floor and returns the
// count. The serving layer calls it with the oldest pinned version:
// entries below the floor can never be read again.
func (c *Cache) EvictBelow(floor uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for v, b := range c.versions {
		if v < floor {
			n += len(b.entries)
			c.size -= len(b.entries)
			delete(c.versions, v)
		}
	}
	gone := cutTables{}
	for v := range *c.cuts.Load() {
		if v < floor {
			gone[v] = nil
		}
	}
	if len(gone) > 0 {
		c.publish(gone)
	}
	c.evictions += uint64(n)
	return n
}

// LRU enforcement. c.mu held. The linear minimum scan is fine at the
// cache sizes a bounded service runs with (hundreds of patterns).
func (c *Cache) evictLocked() {
	limit := int(c.limit.Load())
	if limit <= 0 || c.size <= limit {
		return
	}
	var evicted []uint64
	for c.size > limit {
		var victimV uint64
		var victimP string
		var oldest uint64
		first := true
		for v, b := range c.versions {
			for p, ent := range b.entries {
				if first || ent.used < oldest {
					victimV, victimP, oldest, first = v, p, ent.used, false
				}
			}
		}
		c.removeLocked(victimV, victimP)
		c.evictions++
		if !slices.Contains(evicted, victimV) {
			evicted = append(evicted, victimV)
		}
	}
	c.prune(evicted...)
}
