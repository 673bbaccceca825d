package serve

import (
	"container/list"
	"sync"

	"classpack"
)

// archiveCache is the open-archive cache: a byte-bounded LRU from a
// digest to the Archive opened from castore's verified bytes of it.
// While a digest's entry lives, its class and ?classes= GETs neither
// read nor verify its object, nor inflate its class index again, and
// its Archive hashes each chunk once (see Server.openArchive). An entry
// costs its archive bytes plus what the Archive retains beyond them
// (Archive.RetainedBytes); an entry larger than the whole bound is
// served but not kept.
//
// An archiveCache is safe for concurrent use.
type archiveCache struct {
	maxBytes int64

	mu      sync.Mutex
	lru     list.List // of *archiveEntry, most recently used at the front
	entries map[string]*list.Element
	stats   archiveCacheStats
}

// archiveCacheStats is a snapshot of an archiveCache's counters.
type archiveCacheStats struct {
	Entries int64 // archives held
	Bytes   int64 // their total cost
	Hits    int64 // lookups answered by a held archive
	Misses  int64 // lookups that found none
}

// archiveEntry is one open archive.
type archiveEntry struct {
	digest string
	a      *classpack.Archive
	cost   int64
}

func newArchiveCache(maxBytes int64) *archiveCache {
	return &archiveCache{maxBytes: maxBytes, entries: make(map[string]*list.Element)}
}

// snapshot returns the cache's counters.
func (c *archiveCache) snapshot() archiveCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = int64(c.lru.Len())
	return st
}

// get returns the archive held under digest and marks it most recently
// used.
func (c *archiveCache) get(digest string) (*classpack.Archive, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[digest]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.stats.Hits++
	return el.Value.(*archiveEntry).a, true
}

// add holds a under digest, unless the cache already holds the digest
// (a concurrent miss opened it first) or a alone costs more than the
// bound, and then evicts least recently used entries until the cache is
// within its bound.
func (c *archiveCache) add(digest string, a *classpack.Archive, cost int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[digest]; ok || cost > c.maxBytes {
		return
	}
	c.entries[digest] = c.lru.PushFront(&archiveEntry{digest: digest, a: a, cost: cost})
	c.stats.Bytes += cost
	for c.stats.Bytes > c.maxBytes {
		c.drop(c.lru.Back())
	}
}

// remove drops digest's entry, if the cache holds one.
func (c *archiveCache) remove(digest string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[digest]; ok {
		c.drop(el)
	}
}

// drop removes one entry. Caller holds c.mu.
func (c *archiveCache) drop(el *list.Element) {
	e := c.lru.Remove(el).(*archiveEntry)
	delete(c.entries, e.digest)
	c.stats.Bytes -= e.cost
}
