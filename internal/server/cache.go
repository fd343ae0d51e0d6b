package server

import (
	"container/list"
	"sync"
)

// resultCache is an LRU cache of encoded query answers keyed by the
// statement's canonical form, invalidated by the database's mutation
// generation: an entry is served only while the generation it was
// computed at is still current. Mutations bump the generation, so a
// lookup after any committed Ingest/Remove misses (and drops the stale
// entry) without the cache ever tracking which entries a write affected.
// The server serves one database instance for its whole life, so the
// generation alone decides freshness.
//
// An entry is the /v1/query body the answer was first served with, cut
// just after its trailing "cached": key (see cachedPrefix): a hit writes
// those bytes and the value true without encoding anything.
type resultCache struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used
	entries map[string]*list.Element

	hits, misses, invalidations int64
}

type cacheEntry struct {
	key  string
	gen  uint64
	body []byte // immutable once stored
}

func newResultCache(max int) *resultCache {
	return &resultCache{
		max:     max,
		order:   list.New(),
		entries: make(map[string]*list.Element, max),
	}
}

// get returns the cached body for key computed at generation gen, or
// nil. A hit refreshes recency; an entry that is stale from the caller's
// viewpoint (older generation) is evicted and counted as an invalidation
// plus a miss. An entry *newer* than the caller's generation is left
// alone — the caller read its generation before a write committed and
// merely lost that race; destroying the fresher answer would waste the
// faster request's work.
func (c *resultCache) get(key string, gen uint64) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil
	}
	ent := el.Value.(*cacheEntry)
	if ent.gen == gen {
		c.order.MoveToFront(el)
		c.hits++
		return ent.body
	}
	if ent.gen < gen {
		c.order.Remove(el)
		delete(c.entries, key)
		c.invalidations++
	}
	c.misses++
	return nil
}

// put stores body under key at generation gen, evicting the least
// recently used entry when full. The caller must not modify body
// afterwards. An entry computed at a newer generation is kept: a slow
// request that read an old generation before stalling must not clobber
// the fresher answer a faster request cached meanwhile.
func (c *resultCache) put(key string, gen uint64, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		if ent := el.Value.(*cacheEntry); ent.gen > gen {
			return
		}
		el.Value = &cacheEntry{key: key, gen: gen, body: body}
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, gen: gen, body: body})
}

// cacheStats is a snapshot of the counters for /metrics.
type cacheStats struct {
	entries, hits, misses, invalidations int64
}

func (c *resultCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		entries:       int64(c.order.Len()),
		hits:          c.hits,
		misses:        c.misses,
		invalidations: c.invalidations,
	}
}
