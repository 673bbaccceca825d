package classpack

import (
	"container/list"
	"crypto/sha256"
	"errors"
	"math"
	"slices"
	"sync"

	"classpack/internal/archive"
	"classpack/internal/par"
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
// An entry also keeps the jar member body (DEFLATE and CRC-32) of each
// of its classes that Archive.ExtractJar has needed, made the first
// time a jar needs it. An entry costs its class names, class bytes and
// the compressed bytes of its bodies, so the bound covers the bodies
// too, and eviction drops them with their classes.
//
// Concurrent misses on one key decode once: the first caller decodes
// (outside the cache lock) and the rest wait for its result. Decode
// errors — a panicking decode included — are returned to every waiter
// but never cached. Concurrent jars that need one entry's missing
// bodies make each of them once.
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
	Bytes     int64 // current cost of the cached entries, their member bodies included
}

// chunkKey is the content key of one decoded chunk (see ChunkCache).
type chunkKey [sha256.Size]byte

// chunkEntry is one cached decode.
type chunkEntry struct {
	key   chunkKey
	files []File
	cost  int64 // guarded by the cache's mu

	mu     sync.Mutex     // held while bodies are read or made, so each is made once
	bodies []archive.Body // jar member bodies, parallel to files; a nil Data is not yet made
}

// chunkFlight is one in-flight decode and its shared outcome.
type chunkFlight struct {
	done  chan struct{} // closed once files and err are final
	files []File
	err   error
}

// NewChunkCache returns a cache holding at most maxBytes of decoded
// chunks. An entry costs the sum of its class names and class bytes,
// plus its member bodies once made; a chunk larger than the whole bound
// is served but not kept, and a non-positive bound keeps nothing.
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
	c.trim()
}

// trim evicts least recently used entries until the cache is within its
// bounds. Caller holds c.mu.
func (c *ChunkCache) trim() {
	for c.stats.Bytes > c.maxBytes || (c.maxEntries > 0 && c.lru.Len() > c.maxEntries) {
		e := c.lru.Remove(c.lru.Back()).(*chunkEntry)
		delete(c.entries, e.key)
		c.stats.Bytes -= e.cost
		c.stats.Evictions++
	}
}

// memberBodies returns the jar member bodies of files[i] for each i in
// idx, where files is the decoded chunk under key. While the cache
// holds that chunk, each body is made once, by the first call that
// needs it, kept in the chunk's entry and charged to its cost; a chunk
// the cache does not hold gets bodies made for this call alone. Missing
// bodies are compressed on up to concurrency workers. It also reports
// how many bodies it made.
func (c *ChunkCache) memberBodies(key chunkKey, files []File, idx []int, concurrency int) ([]archive.Body, int, error) {
	c.mu.Lock()
	el, held := c.entries[key]
	c.mu.Unlock()
	e := &chunkEntry{key: key, files: files}
	if held {
		// Entries are keyed by content, so the held entry's files are
		// the caller's files, decoded alike.
		e = el.Value.(*chunkEntry)
		e.mu.Lock()
		defer e.mu.Unlock()
	}
	if e.bodies == nil {
		e.bodies = make([]archive.Body, len(e.files))
	}
	var todo []int
	for _, i := range idx {
		if e.bodies[i].Data == nil {
			todo = append(todo, i)
		}
	}
	slices.Sort(todo)
	todo = slices.Compact(todo)
	made := make([]archive.Body, len(todo))
	err := par.Do(concurrency, len(todo), func(k int) error {
		var err error
		made[k], err = archive.DeflateBody(e.files[todo[k]].Data)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	var cost int64
	for k, i := range todo {
		e.bodies[i] = made[k]
		cost += int64(len(made[k].Data))
	}
	if held && cost > 0 {
		c.charge(e, cost)
	}
	out := make([]archive.Body, len(idx))
	for k, i := range idx {
		out[k] = e.bodies[i]
	}
	return out, len(todo), nil
}

// charge adds cost to entry e, if the cache still holds it, and evicts
// least recently used entries until the cache is within its bounds.
func (c *ChunkCache) charge(e *chunkEntry, cost int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.key]; !ok || el.Value.(*chunkEntry) != e {
		return
	}
	e.cost += cost
	c.stats.Bytes += cost
	c.trim()
}
