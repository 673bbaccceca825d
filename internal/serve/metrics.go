package serve

import (
	"expvar"
	"net/http"
	"strconv"
	"time"

	"classpack"
)

// encodeBucketsMs are the upper bounds (milliseconds, inclusive) of the
// encode-latency histogram exported under encode_ms_le_*. The final
// +Inf bucket is "encode_ms_le_inf", so the bucket counts are cumulative
// in the usual le-histogram sense only when summed by the reader; here
// each counter holds its own bucket's observations.
var encodeBucketsMs = []int64{1, 5, 25, 100, 500, 2500, 10000}

// Metrics is the operational counter set one Server instance exports at
// GET /metrics. Counters are expvar types but deliberately not
// expvar.Publish'ed: publishing is process-global and would collide when
// several servers run in one process (tests, embedded use). The map
// renders to the same JSON expvar would serve. The decoded-chunk cache's
// chunk_cache_hits, chunk_cache_misses, chunk_cache_evictions and
// chunk_cache_bytes (a gauge), and the open-archive cache's
// open_archive_hits, open_archive_misses, open_archives and
// open_archive_bytes (gauges), are read from the caches themselves at
// render time, so they have no field here.
type Metrics struct {
	m expvar.Map

	Requests        expvar.Int // all HTTP requests, any endpoint
	PackRequests    expvar.Int
	UnpackRequests  expvar.Int
	VerifyRequests  expvar.Int
	ArchiveRequests expvar.Int
	ClassRequests   expvar.Int // GET /archive/{digest}/class/{name}

	// ClassBytesDecoded counts wire bytes decoded serving single classes
	// and ?classes= subsets. On version-3 archives this grows by one
	// chunk per chunk-cache miss, not the whole archive, and not at all
	// on a hit — the counter is how operators (and the acceptance test)
	// observe lazy decoding working.
	ClassBytesDecoded expvar.Int

	CacheHits   expvar.Int // pack served from the content-addressed store
	CacheMisses expvar.Int
	// CacheErrors counts store reads that failed outright (I/O errors, not
	// ordinary misses). Each one is also logged; a rising counter means
	// the cache volume is sick even though requests still succeed by
	// re-encoding.
	CacheErrors expvar.Int
	// CacheBypass counts cache writes skipped while the server is in
	// degraded mode — encodes that succeeded but were served uncached.
	CacheBypass expvar.Int

	// Coalesced counts /pack responses served from another request's
	// in-flight encode: a herd of N identical packs is 1 encode plus N-1
	// coalesced responses.
	Coalesced expvar.Int

	// Shed counts requests refused with 429 by admission control (queue
	// full, memory budget exhausted, or deadline shorter than the
	// estimated queue wait). QueueDepth and MemInflight are gauges of
	// the current queue length and admitted request bytes.
	Shed        expvar.Int
	QueueDepth  expvar.Int
	MemInflight expvar.Int

	// Degraded is a 0/1 gauge of cache-degraded mode; DegradedTotal
	// counts how many times the server entered it.
	Degraded      expvar.Int
	DegradedTotal expvar.Int

	DeltaRequests expvar.Int // GET /delta/{from}/{to}
	// DeltaBytesSaved accumulates len(new archive) - len(patch) over
	// successful delta responses: the bandwidth the endpoint saved its
	// callers versus re-downloading the whole new archive.
	DeltaBytesSaved expvar.Int

	Encodes expvar.Int // pack jobs actually run (cache misses that encoded)
	// Decodes counts decodes actually run: one per /unpack job, plus one
	// per chunk a class or ?classes= GET decoded (chunk-cache hits add
	// nothing; a version-1/2 archive is one chunk).
	Decodes  expvar.Int
	Salvages expvar.Int // unpack?salvage=1 jobs run
	Verifies expvar.Int

	// MemberDeflates counts jar member bodies compressed for ?classes=
	// GETs: on a version-3 archive, one per class while the chunk cache
	// holds its chunk; on a version-1/2 archive, one per class per GET.
	// A class GET compresses nothing.
	MemberDeflates expvar.Int

	BytesIn  expvar.Int // request bodies read
	BytesOut expvar.Int // response payloads written (errors excluded)

	Errors expvar.Int // requests answered with a structured error

	encodeBuckets []*expvar.Int // parallel to encodeBucketsMs, plus +Inf last
}

func newMetrics() *Metrics {
	mt := &Metrics{}
	set := func(name string, v *expvar.Int) { mt.m.Set(name, v) }
	set("requests_total", &mt.Requests)
	set("requests_pack", &mt.PackRequests)
	set("requests_unpack", &mt.UnpackRequests)
	set("requests_verify", &mt.VerifyRequests)
	set("requests_archive", &mt.ArchiveRequests)
	set("requests_class", &mt.ClassRequests)
	set("class_bytes_decoded", &mt.ClassBytesDecoded)
	set("cache_hits", &mt.CacheHits)
	set("cache_misses", &mt.CacheMisses)
	set("cache_errors", &mt.CacheErrors)
	set("cache_bypass_total", &mt.CacheBypass)
	set("coalesced_total", &mt.Coalesced)
	set("shed_total", &mt.Shed)
	set("queue_depth", &mt.QueueDepth)
	set("mem_inflight_bytes", &mt.MemInflight)
	set("degraded", &mt.Degraded)
	set("degraded_total", &mt.DegradedTotal)
	set("delta_requests", &mt.DeltaRequests)
	set("delta_bytes_saved", &mt.DeltaBytesSaved)
	set("encodes_total", &mt.Encodes)
	set("decodes_total", &mt.Decodes)
	set("member_deflates_total", &mt.MemberDeflates)
	set("salvages_total", &mt.Salvages)
	set("verifies_total", &mt.Verifies)
	set("bytes_in", &mt.BytesIn)
	set("bytes_out", &mt.BytesOut)
	set("errors_total", &mt.Errors)
	for _, ub := range encodeBucketsMs {
		v := new(expvar.Int)
		mt.encodeBuckets = append(mt.encodeBuckets, v)
		mt.m.Set("encode_ms_le_"+strconv.FormatInt(ub, 10), v)
	}
	inf := new(expvar.Int)
	mt.encodeBuckets = append(mt.encodeBuckets, inf)
	mt.m.Set("encode_ms_le_inf", inf)
	return mt
}

// trackChunkCache exports the decoded-chunk cache's counters, read live
// from c on every render.
func (mt *Metrics) trackChunkCache(c *classpack.ChunkCache) {
	stat := func(field func(classpack.ChunkCacheStats) int64) expvar.Func {
		return func() any { return field(c.Stats()) }
	}
	mt.m.Set("chunk_cache_hits", stat(func(st classpack.ChunkCacheStats) int64 { return st.Hits }))
	mt.m.Set("chunk_cache_misses", stat(func(st classpack.ChunkCacheStats) int64 { return st.Misses }))
	mt.m.Set("chunk_cache_evictions", stat(func(st classpack.ChunkCacheStats) int64 { return st.Evictions }))
	mt.m.Set("chunk_cache_bytes", stat(func(st classpack.ChunkCacheStats) int64 { return st.Bytes }))
}

// trackArchiveCache exports the open-archive cache's gauges and
// counters, read live from c on every render.
func (mt *Metrics) trackArchiveCache(c *archiveCache) {
	stat := func(field func(archiveCacheStats) int64) expvar.Func {
		return func() any { return field(c.snapshot()) }
	}
	mt.m.Set("open_archives", stat(func(st archiveCacheStats) int64 { return st.Entries }))
	mt.m.Set("open_archive_bytes", stat(func(st archiveCacheStats) int64 { return st.Bytes }))
	mt.m.Set("open_archive_hits", stat(func(st archiveCacheStats) int64 { return st.Hits }))
	mt.m.Set("open_archive_misses", stat(func(st archiveCacheStats) int64 { return st.Misses }))
}

// observeEncode files one encode duration into its latency bucket.
func (mt *Metrics) observeEncode(d time.Duration) {
	ms := d.Milliseconds()
	for i, ub := range encodeBucketsMs {
		if ms <= ub {
			mt.encodeBuckets[i].Add(1)
			return
		}
	}
	mt.encodeBuckets[len(mt.encodeBuckets)-1].Add(1)
}

// ServeHTTP renders the counters as the expvar JSON object.
func (mt *Metrics) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write([]byte(mt.m.String()))
}
