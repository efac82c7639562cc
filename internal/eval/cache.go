package eval

import "sync"

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

func newBucket() *versionBucket {
	return &versionBucket{
		entries: make(map[string]*cacheEntry),
		byLabel: make(map[string]map[string]struct{}),
	}
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
	mu       sync.Mutex
	versions map[uint64]*versionBucket
	size     int    // total entries across versions
	limit    int    // max cached matrices; 0 = unbounded
	tick     uint64 // logical clock for LRU recency

	hits, misses, evictions, invalidations uint64

	// scanned counts entries examined by the commit path (Advance).
	// The inverted index makes it proportional to
	// touched entries; the cache tests gate on it deterministically.
	scanned uint64
}

// NewCache returns an empty, unbounded cache.
func NewCache() *Cache { return &Cache{versions: make(map[uint64]*versionBucket)} }

// CacheStats is a point-in-time snapshot of the commuting-matrix cache.
type CacheStats struct {
	Size          int    `json:"size"`
	Versions      int    `json:"versions"`
	Limit         int    `json:"limit"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
}

// Stats returns the cache counters. Hits and misses count every
// Commuting call, including the recursive sub-pattern calls.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Size:          c.size,
		Versions:      len(c.versions),
		Limit:         c.limit,
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
	}
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
	c.limit = n
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

// removeLocked deletes (v, pattern) if present, maintaining size. c.mu held.
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

// lookup returns the matrix cached under key, or nil, recording a hit
// or miss.
func (c *Cache) lookup(key Key) CachedMatrix {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.versions[key.Version]; ok {
		if ent, ok := b.entries[key.entryKey()]; ok {
			c.hits++
			c.tick++
			ent.used = c.tick
			return ent.m
		}
	}
	c.misses++
	return nil
}

// insert stores a computed matrix. Entries are keyed by immutable
// versions, so a matrix is never stale for its key: a build that raced
// a commit lands under the version it was computed at.
func (c *Cache) insert(key Key, m CachedMatrix, labels []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(key, m, labels)
	c.evictLocked()
}

// insertLocked stores an entry unconditionally. c.mu held.
func (c *Cache) insertLocked(key Key, m CachedMatrix, labels []string) {
	b := c.bucket(key.Version)
	ek := key.entryKey()
	if _, exists := b.entries[ek]; exists {
		b.remove(ek)
		c.size--
	}
	c.tick++
	b.put(ek, &cacheEntry{m: m, labels: labels, used: c.tick})
	c.size++
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
// Entries at older versions are untouched either way. Returns
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
	c.evictions += uint64(n)
	return n
}

// LRU enforcement. c.mu held. The linear minimum scan is fine at the
// cache sizes a bounded service runs with (hundreds of patterns).
func (c *Cache) evictLocked() {
	if c.limit <= 0 {
		return
	}
	for c.size > c.limit {
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
	}
}
