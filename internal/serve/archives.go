package serve

import (
	"container/list"
	"context"
	"net/http"
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
// Concurrent misses on one digest open it once: the first caller opens
// it (outside the cache lock) and the rest wait for its result, counted
// as hits. A failing open, a panicking one included, reaches every
// waiter but is never cached.
//
// An archiveCache is safe for concurrent use.
type archiveCache struct {
	maxBytes int64

	mu      sync.Mutex
	lru     list.List // of *archiveEntry, most recently used at the front
	entries map[string]*list.Element
	flights map[string]*openFlight
	stats   archiveCacheStats
}

// archiveCacheStats is a snapshot of an archiveCache's counters.
type archiveCacheStats struct {
	Entries int64 // archives held
	Bytes   int64 // their total cost
	Hits    int64 // lookups answered by a held archive, or by another lookup's open
	Misses  int64 // lookups that found none
}

// archiveEntry is one open archive.
type archiveEntry struct {
	digest string
	a      *classpack.Archive
	cost   int64
}

// openFlight is one in-flight open and its shared outcome.
type openFlight struct {
	done chan struct{} // closed once a and err are final
	a    *classpack.Archive
	err  *apiError
}

// errOpenPanicked is what callers waiting on an open see when the
// opening caller panicked instead of returning.
var errOpenPanicked = errf(http.StatusInternalServerError, "internal", "opening the archive panicked")

func newArchiveCache(maxBytes int64) *archiveCache {
	return &archiveCache{maxBytes: maxBytes,
		entries: make(map[string]*list.Element), flights: make(map[string]*openFlight)}
}

// snapshot returns the cache's counters.
func (c *archiveCache) snapshot() archiveCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = int64(c.lru.Len())
	return st
}

// lookup returns the archive held under digest and marks it most
// recently used. Caller holds c.mu.
func (c *archiveCache) lookup(digest string) (*classpack.Archive, bool) {
	el, ok := c.entries[digest]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.stats.Hits++
	return el.Value.(*archiveEntry).a, true
}

// open returns the archive held under digest, calling load on a miss
// and holding what it opened at the cost it reports. Concurrent misses
// on digest share one load; a caller waiting on another's load gives up
// when ctx is done.
func (c *archiveCache) open(ctx context.Context, digest string, load func() (*classpack.Archive, int64, *apiError)) (*classpack.Archive, *apiError) {
	c.mu.Lock()
	if f, ok := c.flights[digest]; ok {
		c.stats.Hits++
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.a, f.err
		case <-ctx.Done():
			return nil, errf(http.StatusServiceUnavailable, "timeout",
				"request deadline expired while awaiting the in-flight open of this archive")
		}
	}
	if a, ok := c.lookup(digest); ok {
		c.mu.Unlock()
		return a, nil
	}
	f := &openFlight{done: make(chan struct{}), err: errOpenPanicked}
	c.flights[digest] = f
	c.mu.Unlock()

	// Deferred so a panicking load still retires its flight: waiters
	// get errOpenPanicked and the next caller opens afresh.
	var cost int64
	defer func() {
		c.mu.Lock()
		delete(c.flights, digest)
		if f.err == nil {
			c.insert(digest, f.a, cost)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.a, cost, f.err = load()
	return f.a, f.err
}

// insert holds a under digest, unless the cache already holds the
// digest or a alone costs more than the bound, and then evicts least
// recently used entries until the cache is within its bound. Caller
// holds c.mu.
func (c *archiveCache) insert(digest string, a *classpack.Archive, cost int64) {
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
