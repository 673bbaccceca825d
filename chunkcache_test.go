package classpack

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"classpack/internal/encoding/varint"
	"classpack/internal/synth"
)

// packChunked packs files into a version-3 archive with the given
// classes per chunk (0 packs version 2).
func packChunked(t *testing.T, files [][]byte, chunk int) []byte {
	t.Helper()
	opts := DefaultOptions()
	opts.ChunkClasses = chunk
	packed, err := Pack(files, &opts)
	if err != nil {
		t.Fatal(err)
	}
	return packed
}

// sharedOpts returns default options reading through cache.
func sharedOpts(cache *ChunkCache) *Options {
	opts := DefaultOptions()
	opts.ChunkCache = cache
	return &opts
}

// openShared opens packed through cache.
func openShared(t *testing.T, packed []byte, cache *ChunkCache) *Archive {
	t.Helper()
	a, err := OpenArchiveBytes(packed, sharedOpts(cache))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// checkOrdinals extracts each ordinal and compares it with the full
// unpack.
func checkOrdinals(t *testing.T, a *Archive, full []File, ords ...int) {
	t.Helper()
	got, err := a.ExtractOrdinals(ords)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range ords {
		if got[i].Name != full[g].Name || !bytes.Equal(got[i].Data, full[g].Data) {
			t.Fatalf("ordinal %d differs from full unpack", g)
		}
	}
}

func allOrdinals(n int) []int {
	ords := make([]int, n)
	for i := range ords {
		ords[i] = i
	}
	return ords
}

// TestExtractedBytesAreCallerOwned pins the aliasing fix: editing the
// bytes ExtractClass or ExtractOrdinals returned must not change what
// any later extraction serves — from the same Archive or from another
// one sharing its chunk cache — on version-2 and version-3 archives.
func TestExtractedBytesAreCallerOwned(t *testing.T) {
	files := sample(t)
	for _, chunk := range []int{0, 2} {
		packed := packChunked(t, files, chunk)
		full, err := Unpack(packed)
		if err != nil {
			t.Fatal(err)
		}
		cache := NewChunkCache(1 << 20)
		a := openShared(t, packed, cache)
		data, err := a.ExtractClass(full[0].Name)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		got, err := a.ExtractOrdinals([]int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		got[0].Data[0] ^= 0xff
		got[1].Data[len(got[1].Data)-1] ^= 0xff
		checkOrdinals(t, a, full, allOrdinals(len(full))...)
		checkOrdinals(t, openShared(t, packed, cache), full, allOrdinals(len(full))...)
	}
}

// TestChunkCacheEvictsAndRedecodes bounds a shared cache to one chunk:
// alternating between two chunks evicts and re-decodes, every result
// still matches a full unpack, and a bound smaller than any chunk keeps
// nothing but still serves.
func TestChunkCacheEvictsAndRedecodes(t *testing.T) {
	packed := packChunked(t, sample(t), 2)
	full, err := Unpack(packed)
	if err != nil {
		t.Fatal(err)
	}
	cost := func(fs []File) int64 {
		var n int64
		for _, f := range fs {
			n += int64(len(f.Name) + len(f.Data))
		}
		return n
	}
	cost0, cost1 := cost(full[0:2]), cost(full[2:4])
	cache := NewChunkCache(max(cost0, cost1))
	a := openShared(t, packed, cache)
	for _, g := range []int{0, 2, 1, 0} { // miss, miss+evict, miss+evict, hit
		checkOrdinals(t, a, full, g)
	}
	want := ChunkCacheStats{Hits: 1, Misses: 3, Evictions: 2, Bytes: cost0}
	if st := cache.Stats(); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	if n := a.ChunkDecodes(); n != 3 {
		t.Fatalf("ChunkDecodes = %d, want 3", n)
	}

	tiny := NewChunkCache(1)
	b := openShared(t, packed, tiny)
	checkOrdinals(t, b, full, 0)
	checkOrdinals(t, b, full, 1)
	if st := tiny.Stats(); st != (ChunkCacheStats{Misses: 2}) {
		t.Fatalf("oversized entries: stats = %+v, want two misses and nothing kept", st)
	}
}

// TestChunkCacheContentKeyed shares one cache between two archives with
// the same class names in the same chunks but one class changed: the
// unchanged chunks are byte-identical and shared, the changed chunk is
// not, and each archive serves its own bytes.
func TestChunkCacheContentKeyed(t *testing.T) {
	files := sample(t)
	changed := append([][]byte(nil), files...)
	i := -1
	for j, f := range files {
		m, ok, err := synth.MutateClass(f)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			changed[j], i = m, j
			break
		}
	}
	if i < 0 {
		t.Fatal("no mutable class in corpus")
	}
	packedA, packedB := packChunked(t, files, 2), packChunked(t, changed, 2)
	fullA, err := Unpack(packedA)
	if err != nil {
		t.Fatal(err)
	}
	fullB, err := Unpack(packedB)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(fullA[i].Data, fullB[i].Data) {
		t.Fatal("corpus construction broken: class did not change")
	}
	cache := NewChunkCache(1 << 20)
	a, b := openShared(t, packedA, cache), openShared(t, packedB, cache)
	if len(a.ClassNames()) != len(b.ClassNames()) || len(a.Chunks()) != len(b.Chunks()) {
		t.Fatal("archives differ in index shape")
	}
	checkOrdinals(t, a, fullA, allOrdinals(len(fullA))...)
	checkOrdinals(t, b, fullB, allOrdinals(len(fullB))...)
	checkOrdinals(t, a, fullA, i)
	chunks := int64(len(a.Chunks()))
	if st := cache.Stats(); st.Misses != chunks+1 || st.Hits != chunks {
		t.Fatalf("stats = %+v, want %d misses (every chunk once, plus the changed one) and %d hits",
			st, chunks+1, chunks)
	}
}

// TestChunkCacheDamagedChunk opens a bit-flipped copy of an archive
// whose healthy chunk is cached: the damaged chunk misses and fails
// with a CorruptError, and the healthy archive still serves.
func TestChunkCacheDamagedChunk(t *testing.T) {
	packed := packChunked(t, sample(t), 2)
	full, err := Unpack(packed)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewChunkCache(1 << 20)
	healthy := openShared(t, packed, cache)
	checkOrdinals(t, healthy, full, 0)

	damaged := bytes.Clone(packed)
	ch := healthy.ix.Chunks[0]
	damaged[ch.Off+ch.Len/2] ^= 0x40
	d := openShared(t, damaged, cache)
	if _, err := d.ExtractOrdinals([]int{0}); err == nil {
		t.Fatal("damaged chunk extracted cleanly")
	} else if _, ok := AsCorrupt(err); !ok {
		t.Fatalf("damaged chunk: err = %v, want a CorruptError", err)
	}
	checkOrdinals(t, healthy, full, 0)
	if st := cache.Stats(); st.Misses != 2 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 2 misses and 1 hit", st)
	}
}

// forgeIndex rewrites a version-3 archive's trailing class index with
// names in place of the recorded ones, as a stored index with a valid
// checksum, so only the chunk-against-index cross-check can tell.
func forgeIndex(packed []byte, a *Archive, names []string) []byte {
	size := len(packed)
	blobLen := binary.BigEndian.Uint64(packed[size-12 : size-4])
	var raw []byte
	raw = varint.AppendUint(raw, uint64(a.ix.ChunkClasses))
	raw = varint.AppendUint(raw, uint64(len(a.ix.Chunks)))
	for _, ch := range a.ix.Chunks {
		raw = varint.AppendUint(raw, uint64(ch.Off))
		raw = varint.AppendUint(raw, uint64(ch.Len))
		raw = varint.AppendUint(raw, uint64(ch.Classes))
	}
	raw = varint.AppendUint(raw, uint64(len(names)))
	for _, n := range names {
		raw = varint.AppendUint(raw, uint64(len(n)))
		raw = append(raw, n...)
	}
	blob := varint.AppendUint([]byte{1}, uint64(len(raw))) // coding 1: stored
	blob = append(blob, raw...)
	out := bytes.Clone(packed[:size-12-4-int(blobLen)])
	out = append(out, blob...)
	out = binary.BigEndian.AppendUint32(out, crc32.Checksum(blob, crc32.MakeTable(crc32.Castagnoli)))
	out = binary.BigEndian.AppendUint64(out, uint64(len(blob)))
	return append(out, "CJPX"...)
}

// TestChunkCacheHitChecksIndex warms a shared cache through a healthy
// archive, then reads the same chunk bytes through an archive whose
// index swaps two class names: the hit must fail the opening archive's
// own index check instead of serving classes under the wrong names.
func TestChunkCacheHitChecksIndex(t *testing.T) {
	packed := packChunked(t, sample(t), 2)
	full, err := Unpack(packed)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewChunkCache(1 << 20)
	healthy := openShared(t, packed, cache)
	checkOrdinals(t, healthy, full, 0)

	names := healthy.ClassNames()
	checkOrdinals(t, openShared(t, forgeIndex(packed, healthy, names), cache), full, 0)
	if names[0] == names[1] {
		t.Fatal("corpus construction broken: first two classes share a name")
	}
	names[0], names[1] = names[1], names[0]
	forged := openShared(t, forgeIndex(packed, healthy, names), cache)
	if _, err := forged.ExtractOrdinals([]int{0}); err == nil {
		t.Fatal("swapped index names served from the cache")
	} else if _, ok := AsCorrupt(err); !ok {
		t.Fatalf("swapped index names: err = %v, want a CorruptError", err)
	}
	if st := cache.Stats(); st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 1 miss and 2 hits", st)
	}
}

// TestChunkCacheHonorsTighterLimits warms a shared cache through an
// archive opened with default limits; the same bytes opened with a
// decode budget smaller than the chunk must still fail with ErrTooLarge.
func TestChunkCacheHonorsTighterLimits(t *testing.T) {
	packed := packChunked(t, sample(t), 2)
	cache := NewChunkCache(1 << 20)
	loose := openShared(t, packed, cache)
	if _, err := loose.ExtractOrdinals([]int{0}); err != nil {
		t.Fatal(err)
	}
	opts := sharedOpts(cache)
	opts.MaxDecodedBytes = loose.DecodedBytes() - 1
	tight, err := OpenArchiveBytes(packed, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tight.ExtractOrdinals([]int{0}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("tight archive after a loose warm-up: err = %v, want ErrTooLarge", err)
	}
}

// TestChunkCacheSingleflight parks a herd on one cold key: exactly one
// caller decodes and the rest share its result. A failed decode reaches
// its caller but is not cached.
func TestChunkCacheSingleflight(t *testing.T) {
	c := NewChunkCache(1 << 20)
	want := []File{{Name: "A.class", Data: []byte{0xca, 0xfe}}}
	release := make(chan struct{})
	var calls atomic.Int32
	decode := func() ([]File, error) {
		calls.Add(1)
		<-release
		return want, nil
	}
	const n = 16
	got := make([][]File, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = c.get(chunkKey{}, decode)
		}()
	}
	// Followers count as hits before they block, so this waits until
	// every one of them is parked on the leader's decode.
	for c.Stats().Hits < n-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	for i := range got {
		if errs[i] != nil || len(got[i]) != 1 || &got[i][0] != &want[0] {
			t.Fatalf("caller %d got %v, %v; want the leader's files", i, got[i], errs[i])
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("decode ran %d times, want 1", calls.Load())
	}

	boom := errors.New("boom")
	fail := func() ([]File, error) { return nil, boom }
	for i := 0; i < 2; i++ {
		if _, err := c.get(chunkKey{1}, fail); !errors.Is(err, boom) {
			t.Fatalf("failing decode: err = %v, want boom", err)
		}
	}
	if st := c.Stats(); st.Misses != 3 || st.Hits != n-1 {
		t.Fatalf("stats = %+v, want 3 misses (errors are not cached) and %d hits", st, n-1)
	}
}

// TestChunkCachePanickingDecode parks a follower on a decode that
// panics: the panic reaches the decoding caller, the follower gets an
// error instead of waiting forever, nothing is cached, and the next
// caller decodes afresh.
func TestChunkCachePanickingDecode(t *testing.T) {
	c := NewChunkCache(1 << 20)
	release := make(chan struct{})
	recovered := make(chan any)
	go func() {
		defer func() { recovered <- recover() }()
		c.get(chunkKey{}, func() ([]File, error) {
			<-release
			panic("boom")
		})
	}()
	for c.Stats().Misses < 1 {
		runtime.Gosched()
	}
	followerErr := make(chan error)
	go func() {
		_, err := c.get(chunkKey{}, func() ([]File, error) {
			t.Error("follower decoded while a decode was in flight")
			return nil, nil
		})
		followerErr <- err
	}()
	for c.Stats().Hits < 1 {
		runtime.Gosched()
	}
	close(release)
	if r := <-recovered; r != "boom" {
		t.Fatalf("decoding caller recovered %v, want the decode's panic", r)
	}
	if err := <-followerErr; !errors.Is(err, errDecodePanicked) {
		t.Fatalf("follower: err = %v, want errDecodePanicked", err)
	}
	want := []File{{Name: "A.class", Data: []byte{0xca, 0xfe}}}
	got, err := c.get(chunkKey{}, func() ([]File, error) { return want, nil })
	if err != nil || len(got) != 1 || &got[0] != &want[0] {
		t.Fatalf("after the panic: got %v, %v; want a fresh decode", got, err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 1 || st.Bytes == 0 {
		t.Fatalf("stats = %+v, want 2 misses, 1 hit and the fresh decode cached", st)
	}
}

// TestExtractInOrderReadsEachChunkOnce extracts every class in archive
// order without a shared cache: the Archive reads each chunk from its
// reader once, as a single full decode would, and decodes it once.
func TestExtractInOrderReadsEachChunkOnce(t *testing.T) {
	packed := packChunked(t, sample(t), 2)
	a, err := OpenArchiveBytes(packed, nil)
	if err != nil {
		t.Fatal(err)
	}
	opened := a.BytesRead()
	var chunkBytes int64
	for _, ch := range a.ix.Chunks {
		chunkBytes += ch.Len
	}
	for g := range a.ClassNames() {
		if _, err := a.ExtractOrdinals([]int{g}); err != nil {
			t.Fatal(err)
		}
	}
	if read := a.BytesRead() - opened; read != chunkBytes {
		t.Fatalf("extraction read %d bytes, want each chunk once (%d)", read, chunkBytes)
	}
	if n := a.ChunkDecodes(); n != int64(len(a.ix.Chunks)) {
		t.Fatalf("ChunkDecodes = %d, want %d", n, len(a.ix.Chunks))
	}
}

// TestReopenSharesWhatOpenLearned extracts through an Archive and
// through Reopens of it. A Reopen reads nothing to open; it serves a
// chunk another handle has extracted without reading or hashing it
// again; and each handle's BytesRead, DecodedBytes and ChunkDecodes
// count only its own work. RetainedBytes counts the classes a
// version-2 archive decoded at open, and none of them count again in a
// Reopen's decodes.
func TestReopenSharesWhatOpenLearned(t *testing.T) {
	files := sample(t)
	packed := packChunked(t, files, 2)
	full, err := Unpack(packed)
	if err != nil {
		t.Fatal(err)
	}
	a := openShared(t, packed, NewChunkCache(1<<20))
	opened := a.BytesRead()
	checkOrdinals(t, a, full, 0)
	if a.ChunkDecodes() != 1 || a.BytesRead() != opened+a.ix.Chunks[0].Len {
		t.Fatalf("first extraction: %d decodes, %d bytes read past open", a.ChunkDecodes(), a.BytesRead()-opened)
	}

	b := a.Reopen()
	checkOrdinals(t, b, full, 1) // chunk 0, whose key a learned
	if b.BytesRead() != 0 || b.ChunkDecodes() != 0 || b.DecodedBytes() != 0 {
		t.Fatalf("Reopen re-extracting chunk 0: read %d, decodes %d, decoded %d; want nothing",
			b.BytesRead(), b.ChunkDecodes(), b.DecodedBytes())
	}
	checkOrdinals(t, b, full, 2) // chunk 1, cold
	if b.ChunkDecodes() != 1 || b.BytesRead() != a.ix.Chunks[1].Len || b.DecodedBytes() == 0 {
		t.Fatalf("Reopen decoding chunk 1: read %d, decodes %d, decoded %d",
			b.BytesRead(), b.ChunkDecodes(), b.DecodedBytes())
	}
	read, decodes := a.BytesRead(), a.ChunkDecodes()
	checkOrdinals(t, a, full, 3) // chunk 1, whose key b learned
	if a.BytesRead() != read || a.ChunkDecodes() != decodes {
		t.Fatal("the opening Archive re-read a chunk its Reopen had served")
	}
	if want := a.ClassNames(); a.RetainedBytes() != int64(len(strings.Join(want, ""))) {
		t.Fatalf("version-3 RetainedBytes = %d, want the index's names", a.RetainedBytes())
	}

	v2, err := OpenArchiveBytes(packChunked(t, files, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	var cost int64
	for _, f := range full {
		cost += int64(len(f.Name) + len(f.Data))
	}
	if v2.RetainedBytes() != cost || v2.ChunkDecodes() != 1 {
		t.Fatalf("version-2 open: RetainedBytes %d, ChunkDecodes %d; want %d and 1", v2.RetainedBytes(), v2.ChunkDecodes(), cost)
	}
	r := v2.Reopen()
	checkOrdinals(t, r, full, allOrdinals(len(full))...)
	if r.ChunkDecodes() != 0 || r.DecodedBytes() != 0 || r.BytesRead() != 0 {
		t.Fatal("a version-2 Reopen decoded or read again")
	}
}
