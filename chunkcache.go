package classpack

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"sync"

	"classpack/internal/archive"
	"classpack/internal/par"
)

// ChunkCache is a byte-bounded LRU of version-3 chunks that any number
// of Archives share by opening with the same Options.ChunkCache: a
// chunk one Archive decoded serves every later extraction of the same
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
// An entry holds a chunk's decoded classes, or only their digests, or
// both. Diff matches classes by the SHA-256 of their bytes, so what it
// keeps of a chunk is those digests, 32 bytes a class, plus one SHA-256
// over the chunk's class names, against which an Archive checks the
// entry without decoding. A Diff reads the digests from any entry, and
// adds them to an entry that holds only classes; on a miss it decodes,
// and the entry then holds the digests and never the classes. An
// extraction that finds a digests-only entry decodes the chunk and
// adds its classes to the entry.
//
// An entry also keeps the jar member body (DEFLATE and CRC-32) of each
// of its classes that Archive.ExtractJar has needed, made the first
// time a jar needs it. An entry costs its class names, class bytes and
// the compressed bytes of its bodies, plus its digests, so the bound
// covers all of them, and eviction drops them together.
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
	Bytes     int64 // current cost of the cached entries, their member bodies and digests included
}

// chunkKey is the content key of one decoded chunk (see ChunkCache).
type chunkKey [sha256.Size]byte

// chunkEntry is one cached chunk: its classes, their digests, or both.
type chunkEntry struct {
	key     chunkKey
	whole   bool          // the entry holds the classes, in files; guarded by the cache's mu
	files   []File        // set once, with whole
	digests *chunkDigests // nil until a Diff has needed them; guarded by the cache's mu
	cost    int64         // guarded by the cache's mu

	mu     sync.Mutex     // held while bodies are read or made, so each is made once
	bodies []archive.Body // jar member bodies, parallel to files; a nil Data is not yet made
}

// add gives e the classes and digests it lacks, and adds their cost to
// its own. Caller holds the cache's mu.
func (e *chunkEntry) add(files []File, whole bool, d *chunkDigests) {
	if whole && !e.whole {
		e.whole, e.files = true, files
		for _, f := range files {
			e.cost += int64(len(f.Name) + len(f.Data))
		}
	}
	if d != nil && e.digests == nil {
		e.digests = d
		e.cost += d.cost()
	}
}

// chunkDigests is what Diff needs of a chunk: the SHA-256 of each
// class's bytes, in chunk order, and one SHA-256 over the class names
// (see namesDigest), against which an Archive checks an entry that holds
// no classes.
type chunkDigests struct {
	classes [][sha256.Size]byte
	names   [sha256.Size]byte
}

// cost is what the digests add to an entry's cost.
func (d *chunkDigests) cost() int64 { return sha256.Size * int64(len(d.classes)+1) }

// digestFiles computes the digests of a decoded chunk.
func digestFiles(files []File) *chunkDigests {
	return &chunkDigests{
		classes: classDigests(files),
		names:   namesDigest(len(files), func(i int) string { return trimClass(files[i].Name) }),
	}
}

// classDigests returns the SHA-256 of each file's bytes.
func classDigests(files []File) [][sha256.Size]byte {
	out := make([][sha256.Size]byte, len(files))
	for i, f := range files {
		out[i] = sha256.Sum256(f.Data)
	}
	return out
}

// namesDigest is the SHA-256 over n class binary names, each prefixed
// by its length, so that two lists share a digest only when they hold
// the same names in the same order.
func namesDigest(n int, name func(i int) string) [sha256.Size]byte {
	h := sha256.New()
	var buf []byte
	for i := 0; i < n; i++ {
		s := name(i)
		buf = binary.AppendUvarint(buf[:0], uint64(len(s)))
		buf = append(buf, s...)
		h.Write(buf)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// chunkFlight is one in-flight decode and its shared outcome.
type chunkFlight struct {
	done    chan struct{} // closed once files, digests and err are final
	files   []File
	digests *chunkDigests // set by a decoding caller that wanted digests
	err     error
	// keepFiles is set, under the cache's mu, once any caller of the
	// flight needs the classes: the cache then keeps them, not only
	// their digests.
	keepFiles bool
}

// NewChunkCache returns a cache holding at most maxBytes of chunks. An
// entry costs the sum of its class names and class bytes, plus its
// member bodies once made, plus 32 bytes a class and 32 more once a
// Diff has digested it; an entry holding only digests costs those
// alone. A chunk larger than the whole bound is served but not kept,
// and a non-positive bound keeps nothing.
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

// lookup returns the cached classes under key, if any, without decoding
// or waiting on an in-flight decode.
func (c *ChunkCache) lookup(key chunkKey) ([]File, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hit(key)
}

// hit answers key from an entry that holds the classes. Caller holds
// c.mu.
func (c *ChunkCache) hit(key chunkKey) ([]File, bool) {
	el, ok := c.entries[key]
	if !ok || !el.Value.(*chunkEntry).whole {
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.stats.Hits++
	return el.Value.(*chunkEntry).files, true
}

// get returns the decoded chunk under key, calling decode when no entry
// holds its classes; an entry that holds only their digests then gains
// them. The returned files are shared with every other caller:
// read-only.
func (c *ChunkCache) get(key chunkKey, decode func() ([]File, error)) ([]File, error) {
	c.mu.Lock()
	if files, ok := c.hit(key); ok {
		c.mu.Unlock()
		return files, nil
	}
	if f, ok := c.flights[key]; ok {
		f.keepFiles = true
		c.stats.Hits++
		c.mu.Unlock()
		<-f.done
		return f.files, f.err
	}
	f := c.fly(key, true)
	c.mu.Unlock()
	defer c.land(key, f)
	f.files, f.err = decode()
	return f.files, f.err
}

// digests returns the digests of the chunk under key, calling decode
// when no entry holds the chunk. It also returns the chunk's classes
// when it had them to hand: from an entry that holds them, or from a
// decode, which the cache does not keep unless a concurrent get needs
// the classes too. The returned files are shared: read-only.
func (c *ChunkCache) digests(key chunkKey, decode func() ([]File, error)) (*chunkDigests, []File, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.stats.Hits++
		e := el.Value.(*chunkEntry)
		d, files := e.digests, e.files
		c.mu.Unlock()
		if d == nil {
			d = c.digest(key, files)
		}
		return d, files, nil
	}
	if f, ok := c.flights[key]; ok {
		c.stats.Hits++
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, nil, f.err
		}
		d := f.digests
		if d == nil {
			d = c.digest(key, f.files)
		}
		return d, f.files, nil
	}
	f := c.fly(key, false)
	c.mu.Unlock()
	defer c.land(key, f)
	f.files, f.err = decode()
	if f.err == nil {
		f.digests = digestFiles(f.files)
	}
	return f.digests, f.files, f.err
}

// digest computes the digests of the chunk under key from its files,
// and keeps them. It holds c.mu only to keep them.
func (c *ChunkCache) digest(key chunkKey, files []File) *chunkDigests {
	d := digestFiles(files)
	c.mu.Lock()
	c.keep(key, nil, false, d)
	c.mu.Unlock()
	return d
}

// fly registers and counts a decode of key, as a miss. Caller holds
// c.mu.
func (c *ChunkCache) fly(key chunkKey, keepFiles bool) *chunkFlight {
	f := &chunkFlight{done: make(chan struct{}), err: errDecodePanicked, keepFiles: keepFiles}
	if c.flights == nil {
		c.flights = make(map[chunkKey]*chunkFlight)
	}
	c.flights[key] = f
	c.stats.Misses++
	return f
}

// land retires flight f and keeps what it decoded. It is deferred by
// the decoding caller, so a panicking decode still retires its flight:
// waiters get errDecodePanicked and the next caller decodes afresh.
func (c *ChunkCache) land(key chunkKey, f *chunkFlight) {
	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil {
		c.keep(key, f.files, f.keepFiles, f.digests)
	}
	c.mu.Unlock()
	close(f.done)
}

// keep gives the entry under key the classes (when whole) and digests
// it lacks, making the entry if there is none, and evicts least
// recently used entries until the cache is within its bounds. A new
// entry larger than the whole bound is not kept. Caller holds c.mu.
func (c *ChunkCache) keep(key chunkKey, files []File, whole bool, d *chunkDigests) {
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*chunkEntry)
		before := e.cost
		e.add(files, whole, d)
		c.stats.Bytes += e.cost - before
	} else {
		e := &chunkEntry{key: key}
		e.add(files, whole, d)
		if e.cost > c.maxBytes {
			return
		}
		if c.entries == nil {
			c.entries = make(map[chunkKey]*list.Element)
		}
		c.entries[key] = c.lru.PushFront(e)
		c.stats.Bytes += e.cost
	}
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
	held = held && el.Value.(*chunkEntry).whole
	c.mu.Unlock()
	e := &chunkEntry{key: key, files: files}
	if held {
		// Entries are keyed by content, so the held entry's files are
		// the caller's files, decoded alike. An entry that holds only
		// digests is not held here: it has no files to keep bodies for.
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
