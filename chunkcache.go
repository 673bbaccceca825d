package classpack

import (
	"container/list"
	"crypto/sha256"
	"errors"
	"math"
	"sync"
)

// ChunkCache is a byte-bounded LRU of decoded version-3 chunks that any
// number of Archives share by opening with the same Options.ChunkCache:
// a chunk one Archive decoded serves every later extraction of the same
// chunk, from any of them, without decoding again.
//
// Entries are keyed by content — SHA-256 over the archive header's
// version and coding bytes, the effective MaxDecodedBytes and
// MaxClassCount, and the chunk's raw bytes as read — so two archives
// share an entry only when their chunk bytes are identical, a damaged
// chunk never hits a healthy chunk's entry, and a hit never answers
// what a decode under tighter limits would refuse. Each Archive still
// checks a hit against its own class index.
//
// Concurrent misses on one key decode once: the first caller decodes
// (outside the cache lock) and the rest wait for its result. Decode
// errors — a panicking decode included — are returned to every waiter
// but never cached.
//
// A ChunkCache is safe for concurrent use.
type ChunkCache struct {
	maxBytes   int64 // entries costing more in total are evicted, oldest first
	maxEntries int   // 0 = no entry bound

	mu      sync.Mutex
	lru     list.List // of *chunkEntry, most recently used at the front
	entries map[chunkKey]*list.Element
	flights map[chunkKey]*chunkFlight
	stats   ChunkCacheStats
}

// ChunkCacheStats is a snapshot of a ChunkCache's counters.
type ChunkCacheStats struct {
	Hits      int64 // lookups answered without decoding, including waits on another caller's decode
	Misses    int64 // lookups that decoded the chunk
	Evictions int64 // entries dropped to stay within the bound
	Bytes     int64 // current cost of the cached entries
}

// chunkKey is the content key of one decoded chunk (see ChunkCache).
type chunkKey [sha256.Size]byte

// chunkEntry is one cached decode.
type chunkEntry struct {
	key   chunkKey
	files []File
	cost  int64
}

// chunkFlight is one in-flight decode and its shared outcome.
type chunkFlight struct {
	done  chan struct{} // closed once files and err are final
	files []File
	err   error
}

// NewChunkCache returns a cache holding at most maxBytes of decoded
// chunks. An entry costs the sum of its class names and class bytes; a
// chunk larger than the whole bound is served but not kept, and a
// non-positive bound keeps nothing.
func NewChunkCache(maxBytes int64) *ChunkCache {
	return &ChunkCache{maxBytes: maxBytes}
}

// newPrivateChunkCache is the cache an Archive opened without
// Options.ChunkCache uses: its one most recently decoded chunk, so
// extracting classes in archive order decodes each chunk once.
func newPrivateChunkCache() *ChunkCache {
	return &ChunkCache{maxBytes: math.MaxInt64, maxEntries: 1}
}

// Stats returns the cache's counters.
func (c *ChunkCache) Stats() ChunkCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// errDecodePanicked is what callers waiting on a decode see when the
// decoding caller panicked instead of returning.
var errDecodePanicked = errors.New("classpack: chunk decode panicked")

// lookup returns the cached decode under key, if any, without decoding
// or waiting on an in-flight decode.
func (c *ChunkCache) lookup(key chunkKey) ([]File, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hit(key)
}

// hit answers key from the cached entries. Caller holds c.mu.
func (c *ChunkCache) hit(key chunkKey) ([]File, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.stats.Hits++
	return el.Value.(*chunkEntry).files, true
}

// get returns the decoded chunk under key, calling decode on a miss.
// The returned files are shared with every other caller: read-only.
func (c *ChunkCache) get(key chunkKey, decode func() ([]File, error)) ([]File, error) {
	c.mu.Lock()
	if files, ok := c.hit(key); ok {
		c.mu.Unlock()
		return files, nil
	}
	if f, ok := c.flights[key]; ok {
		c.stats.Hits++
		c.mu.Unlock()
		<-f.done
		return f.files, f.err
	}
	f := &chunkFlight{done: make(chan struct{}), err: errDecodePanicked}
	if c.flights == nil {
		c.flights = make(map[chunkKey]*chunkFlight)
	}
	c.flights[key] = f
	c.stats.Misses++
	c.mu.Unlock()

	// Deferred so a panicking decode still retires its flight: waiters
	// get errDecodePanicked and the next caller decodes afresh.
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		if f.err == nil {
			c.add(key, f.files)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.files, f.err = decode()
	return f.files, f.err
}

// add inserts a fresh decode and evicts least recently used entries
// until the cache is within its bounds. Caller holds c.mu.
func (c *ChunkCache) add(key chunkKey, files []File) {
	var cost int64
	for _, f := range files {
		cost += int64(len(f.Name) + len(f.Data))
	}
	if cost > c.maxBytes {
		return
	}
	if c.entries == nil {
		c.entries = make(map[chunkKey]*list.Element)
	}
	c.entries[key] = c.lru.PushFront(&chunkEntry{key: key, files: files, cost: cost})
	c.stats.Bytes += cost
	for c.stats.Bytes > c.maxBytes || (c.maxEntries > 0 && c.lru.Len() > c.maxEntries) {
		e := c.lru.Remove(c.lru.Back()).(*chunkEntry)
		delete(c.entries, e.key)
		c.stats.Bytes -= e.cost
		c.stats.Evictions++
	}
}
