package nalquery

import (
	"container/list"
	"sync"
)

// DefaultPlanCacheSize is the plan-cache capacity of a new Engine: enough
// for a serving loop's working set of distinct query texts while bounding
// the memory pinned by cached plans and their document snapshots.
const DefaultPlanCacheSize = 128

// planCache is the engine's bounded LRU of compiled queries. A document
// load or catalog edit bumps the engine-state generation, and a query
// compiled under an older generation can never be asked for again while it
// keeps that generation's documents alive — so the cache holds entries of
// one generation only, the newest it has seen, keyed by the exact query text.
type planCache struct {
	mu      sync.Mutex
	cap     int
	gen     uint64     // the generation every entry was compiled under
	ll      *list.List // front = most recently used; values are *planCacheEntry
	entries map[string]*list.Element

	hits, misses int64
}

type planCacheEntry struct {
	text string
	q    *Query
}

func (c *planCache) get(text string, gen uint64) (*Query, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[text]
	if !ok || gen != c.gen {
		c.misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*planCacheEntry).q, true
}

func (c *planCache) put(text string, gen uint64, q *Query) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap <= 0 || gen < c.gen {
		return // a compile that lost the race with a load: already stale
	}
	if c.entries == nil || gen > c.gen {
		// The first entry of a newer generation supersedes every older one.
		c.gen = gen
		c.ll = list.New()
		c.entries = make(map[string]*list.Element)
	}
	if el, ok := c.entries[text]; ok {
		// A concurrent miss compiled the same text twice; keep the newer
		// query, the plans are equivalent.
		el.Value.(*planCacheEntry).q = q
		c.ll.MoveToFront(el)
		return
	}
	c.entries[text] = c.ll.PushFront(&planCacheEntry{text: text, q: q})
	for c.ll.Len() > c.cap {
		c.evictOldest()
	}
}

// evictOldest removes the least recently used entry; callers hold mu.
func (c *planCache) evictOldest() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	c.ll.Remove(el)
	delete(c.entries, el.Value.(*planCacheEntry).text)
}

func (c *planCache) resize(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = n
	if n <= 0 {
		c.ll = nil
		c.entries = nil
		return
	}
	for c.ll != nil && c.ll.Len() > n {
		c.evictOldest()
	}
}

func (c *planCache) stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := PlanCacheStats{Hits: c.hits, Misses: c.misses}
	if c.ll != nil {
		st.Entries = c.ll.Len()
	}
	return st
}

// PlanCacheStats reports the engine plan cache's effectiveness counters.
type PlanCacheStats struct {
	// Hits and Misses count cache consultations by Engine.Query and
	// Engine.RunText since the engine was created.
	Hits, Misses int64
	// Entries is the number of cached compiled queries, all compiled under
	// the engine's newest cached generation.
	Entries int
}

// SetPlanCacheSize bounds the engine's plan cache to n compiled queries,
// evicting the least recently used beyond the bound; n <= 0 disables
// caching and drops all entries. The default is DefaultPlanCacheSize.
func (e *Engine) SetPlanCacheSize(n int) { e.cache.resize(n) }

// PlanCacheStats returns the plan cache's hit/miss/occupancy counters.
func (e *Engine) PlanCacheStats() PlanCacheStats { return e.cache.stats() }
