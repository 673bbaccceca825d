package classpack

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"classpack/internal/core"
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
// with a CorruptError, and the healthy archive still serves. It runs
// with the healthy chunk's classes cached by an extraction, and with
// only its digests cached by a Diff's read, which the damaged chunk's
// digest read misses in the same way.
func TestChunkCacheDamagedChunk(t *testing.T) {
	packed := packChunked(t, sample(t), 2)
	full, err := Unpack(packed)
	if err != nil {
		t.Fatal(err)
	}
	for _, digestsOnly := range []bool{false, true} {
		cache := NewChunkCache(1 << 20)
		healthy := openShared(t, packed, cache)
		read := func(a *Archive) error {
			if digestsOnly {
				_, _, err := a.chunkDigests(0)
				return err
			}
			_, err := a.ExtractOrdinals([]int{0})
			return err
		}
		if err := read(healthy); err != nil {
			t.Fatal(err)
		}

		damaged := bytes.Clone(packed)
		ch := healthy.ix.Chunks[0]
		damaged[ch.Off+ch.Len/2] ^= 0x40
		d := openShared(t, damaged, cache)
		if err := read(d); err == nil {
			t.Fatalf("digests only %t: damaged chunk read cleanly", digestsOnly)
		} else if _, ok := AsCorrupt(err); !ok {
			t.Fatalf("digests only %t: damaged chunk: err = %v, want a CorruptError", digestsOnly, err)
		}
		if err := read(healthy); err != nil {
			t.Fatal(err)
		}
		if st := cache.Stats(); st.Misses != 2 || st.Hits != 1 {
			t.Fatalf("digests only %t: stats = %+v, want 2 misses and 1 hit", digestsOnly, st)
		}
		checkOrdinals(t, healthy, full, 0)
	}
}

// forgeIndex rewrites a version-3 archive's trailing class index with
// names in place of the recorded ones, as a stored index with a valid
// checksum, so only the chunk-against-index cross-check can tell.
func forgeIndex(packed []byte, a *Archive, names []string) []byte {
	size := len(packed)
	blobLen := binary.BigEndian.Uint64(packed[size-12 : size-4])
	return appendIndex(bytes.Clone(packed[:size-12-4-int(blobLen)]), a.ix.ChunkClasses, a.ix.Chunks, names)
}

// swapChunks rewrites a version-3 archive with the bodies of chunks i
// and j, which must hold as many classes, swapped, and its index's
// names kept: a well-framed archive with a valid index checksum whose
// chunks hold other classes than its index lists for them.
func swapChunks(packed []byte, a *Archive, i, j int) []byte {
	out := bytes.Clone(packed[:6])
	chunks := slices.Clone(a.ix.Chunks)
	for k := range chunks {
		src := a.ix.Chunks[k]
		if k == i {
			src = a.ix.Chunks[j]
		} else if k == j {
			src = a.ix.Chunks[i]
		}
		out = varint.AppendUint(out, uint64(src.Len))
		chunks[k].Off, chunks[k].Len = int64(len(out)), src.Len
		out = append(out, packed[src.Off:src.Off+src.Len]...)
	}
	return appendIndex(varint.AppendUint(out, 0), a.ix.ChunkClasses, chunks, a.ClassNames())
}

// appendIndex appends a stored version-3 index of chunks and names, its
// checksum and the footer to out.
func appendIndex(out []byte, chunkClasses int, chunks []core.ChunkInfo, names []string) []byte {
	var raw []byte
	raw = varint.AppendUint(raw, uint64(chunkClasses))
	raw = varint.AppendUint(raw, uint64(len(chunks)))
	for _, ch := range chunks {
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
	out = append(out, blob...)
	out = binary.BigEndian.AppendUint32(out, crc32.Checksum(blob, crc32.MakeTable(crc32.Castagnoli)))
	out = binary.BigEndian.AppendUint64(out, uint64(len(blob)))
	return append(out, "CJPX"...)
}

// TestChunkCacheHitChecksIndex warms a shared cache through a healthy
// archive, then reads the same chunk bytes through an archive whose
// index swaps two class names: the hit must fail the opening archive's
// own index check instead of serving classes under the wrong names.
// When the cache holds only the chunk's digests, a Diff's read of them
// finds the names digest differing from the index's and decodes, so
// the index check reports the difference just as it does cold, and an
// extraction decodes and fails the same check.
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
	swapped := slices.Clone(names)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	forged := openShared(t, forgeIndex(packed, healthy, swapped), cache)
	if _, err := forged.ExtractOrdinals([]int{0}); err == nil {
		t.Fatal("swapped index names served from the cache")
	} else if _, ok := AsCorrupt(err); !ok {
		t.Fatalf("swapped index names: err = %v, want a CorruptError", err)
	}
	if st := cache.Stats(); st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 1 miss and 2 hits", st)
	}

	// The same, with only the chunk's digests cached.
	_, _, coldErr := openShared(t, forgeIndex(packed, healthy, swapped), NewChunkCache(1<<20)).chunkDigests(0)
	if _, ok := AsCorrupt(coldErr); !ok {
		t.Fatalf("swapped index names, cold digest read: err = %v, want a CorruptError", coldErr)
	}
	digests := NewChunkCache(1 << 20)
	if _, _, err := openShared(t, packed, digests).chunkDigests(0); err != nil {
		t.Fatal(err)
	}
	same := openShared(t, forgeIndex(packed, healthy, names), digests)
	if _, files, err := same.chunkDigests(0); err != nil || files != nil || same.ChunkDecodes() != 0 {
		t.Fatalf("same index names: err %v, files %t, %d decodes; want digests from the entry alone",
			err, files != nil, same.ChunkDecodes())
	}
	forged = openShared(t, forgeIndex(packed, healthy, swapped), digests)
	if _, _, err := forged.chunkDigests(0); err == nil || err.Error() != coldErr.Error() {
		t.Fatalf("swapped index names, warm digest read: err = %v, want the cold read's %v", err, coldErr)
	}
	if _, err := forged.ExtractOrdinals([]int{0}); err == nil || err.Error() != coldErr.Error() {
		t.Fatalf("swapped index names, extraction over digests: err = %v, want %v", err, coldErr)
	}
	if st := digests.Stats(); st.Misses != 2 || st.Hits != 2 || forged.ChunkDecodes() != 2 {
		t.Fatalf("stats = %+v, %d decodes; want 2 misses (the digests, then the classes), 2 hits and 2 decodes",
			st, forged.ChunkDecodes())
	}
	checkOrdinals(t, openShared(t, packed, digests), full, 0, 1)
}

// TestChunkCacheHonorsTighterLimits warms a shared cache through an
// archive opened with default limits; the same bytes opened with a
// decode budget smaller than the chunk must still fail with ErrTooLarge.
// It runs with the chunk's classes cached by an extraction, and with
// only its digests cached by a Diff's read; the tight archive's
// extraction and digest read both fail.
func TestChunkCacheHonorsTighterLimits(t *testing.T) {
	packed := packChunked(t, sample(t), 2)
	for _, digestsOnly := range []bool{false, true} {
		cache := NewChunkCache(1 << 20)
		loose := openShared(t, packed, cache)
		var err error
		if digestsOnly {
			_, _, err = loose.chunkDigests(0)
		} else {
			_, err = loose.ExtractOrdinals([]int{0})
		}
		if err != nil {
			t.Fatal(err)
		}
		opts := sharedOpts(cache)
		opts.MaxDecodedBytes = loose.DecodedBytes() - 1
		tight, err := OpenArchiveBytes(packed, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tight.ExtractOrdinals([]int{0}); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("digests only %t: tight archive after a loose warm-up: err = %v, want ErrTooLarge", digestsOnly, err)
		}
		if _, _, err := tight.chunkDigests(0); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("digests only %t: tight digest read after a loose warm-up: err = %v, want ErrTooLarge", digestsOnly, err)
		}
	}
}

// TestChunkCacheSingleflight parks a herd on one cold key: exactly one
// caller decodes and the rest share its result. A failed decode reaches
// its caller but is not cached. Herds that mix Diff's digest reads with
// gets share one decode too, whichever kind leads, and a herd of gets
// on an entry holding only digests upgrades it with one decode while
// digest reads answer from it.
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
	if _, _, err := c.digests(chunkKey{1}, fail); !errors.Is(err, boom) {
		t.Fatalf("failing decode of digests: err = %v, want boom", err)
	}

	// A herd of Diff digest reads and gets on one cold key shares one
	// decode, whichever kind leads it; the entry keeps the classes,
	// since gets needed them, and the digests.
	entry := func(key chunkKey) *chunkEntry {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.entries[key].Value.(*chunkEntry)
	}
	var release2 chan struct{}
	blocking := func() ([]File, error) {
		calls.Add(1)
		<-release2
		return want, nil
	}
	read := func(i int, key chunkKey, digests bool) {
		var files []File
		var err error
		if digests {
			var d *chunkDigests
			d, files, err = c.digests(key, blocking)
			if err == nil && (len(d.classes) != 1 || d.classes[0] != sha256.Sum256(want[0].Data)) {
				t.Errorf("caller %d got digests %x", i, d.classes)
			}
		} else {
			files, err = c.get(key, blocking)
		}
		if err != nil || len(files) != 1 || &files[0] != &want[0] {
			t.Errorf("caller %d got %v, %v; want the leader's files", i, files, err)
		}
	}
	for k, leaderDigests := range []bool{true, false} {
		key := chunkKey{byte(2 + k)}
		release2 = make(chan struct{})
		calls.Store(0)
		misses, hits := c.Stats().Misses, c.Stats().Hits
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i > 0 && c.Stats().Misses == misses {
					runtime.Gosched() // the first caller leads the flight
				}
				read(i, key, (i%2 == 0) == leaderDigests)
			}()
		}
		for c.Stats().Hits < hits+n-1 {
			runtime.Gosched()
		}
		close(release2)
		wg.Wait()
		if e := entry(key); calls.Load() != 1 || !e.whole || e.digests == nil {
			t.Fatalf("mixed herd led by digests %t: %d decodes, entry holds classes %t and digests %t; want 1, true, true",
				leaderDigests, calls.Load(), e.whole, e.digests != nil)
		}
	}

	// Gets on a key whose entry holds only digests decode once between
	// them and add the classes to the entry, which keeps its digests;
	// meanwhile digest reads answer from the entry without waiting.
	only := chunkKey{4}
	if _, files, err := c.digests(only, func() ([]File, error) { return want, nil }); err != nil || files == nil {
		t.Fatalf("cold digest read: files %v, err %v", files, err)
	}
	if e := entry(only); e.whole || e.cost != e.digests.cost() {
		t.Fatalf("after a digest read the entry holds classes %t at cost %d; want digests alone", e.whole, e.cost)
	}
	release2 = make(chan struct{})
	calls.Store(0)
	misses, hits := c.Stats().Misses, c.Stats().Hits
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			read(i, only, false)
		}()
	}
	for c.Stats().Hits < hits+n-1 {
		runtime.Gosched()
	}
	if _, files, err := c.digests(only, blocking); err != nil || files != nil {
		t.Fatalf("digest read during the upgrade: files %v, err %v; want the entry's digests", files, err)
	}
	close(release2)
	wg.Wait()
	e := entry(only)
	if calls.Load() != 1 || !e.whole || e.digests == nil || e.cost != int64(len(want[0].Name)+len(want[0].Data))+e.digests.cost() {
		t.Fatalf("upgrade: %d decodes, entry holds classes %t and digests %t at cost %d",
			calls.Load(), e.whole, e.digests != nil, e.cost)
	}
	if st := c.Stats(); st.Misses != misses+1 || st.Hits != hits+n {
		t.Fatalf("upgrade: stats = %+v, want 1 more miss and %d more hits", st, n)
	}
}

// TestChunkCachePanickingDecode parks a follower on a decode that
// panics: the panic reaches the decoding caller, the follower gets an
// error instead of waiting forever, nothing is cached, and the next
// caller decodes afresh. It runs with a get and with a Diff's digest
// read as the decoding caller, each with a follower of either kind.
func TestChunkCachePanickingDecode(t *testing.T) {
	for _, leaderDigests := range []bool{false, true} {
		c := NewChunkCache(1 << 20)
		release := make(chan struct{})
		recovered := make(chan any)
		go func() {
			defer func() { recovered <- recover() }()
			panicking := func() ([]File, error) {
				<-release
				panic("boom")
			}
			if leaderDigests {
				c.digests(chunkKey{}, panicking)
			} else {
				c.get(chunkKey{}, panicking)
			}
		}()
		for c.Stats().Misses < 1 {
			runtime.Gosched()
		}
		followerErrs := make(chan error, 2)
		follower := func() ([]File, error) {
			t.Error("follower decoded while a decode was in flight")
			return nil, nil
		}
		go func() {
			_, err := c.get(chunkKey{}, follower)
			followerErrs <- err
		}()
		go func() {
			_, _, err := c.digests(chunkKey{}, follower)
			followerErrs <- err
		}()
		for c.Stats().Hits < 2 {
			runtime.Gosched()
		}
		close(release)
		if r := <-recovered; r != "boom" {
			t.Fatalf("digests leader %t: decoding caller recovered %v, want the decode's panic", leaderDigests, r)
		}
		for i := 0; i < 2; i++ {
			if err := <-followerErrs; !errors.Is(err, errDecodePanicked) {
				t.Fatalf("digests leader %t: follower: err = %v, want errDecodePanicked", leaderDigests, err)
			}
		}
		if st := c.Stats(); st.Bytes != 0 {
			t.Fatalf("digests leader %t: stats = %+v after the panic, want nothing cached", leaderDigests, st)
		}
		want := []File{{Name: "A.class", Data: []byte{0xca, 0xfe}}}
		got, err := c.get(chunkKey{}, func() ([]File, error) { return want, nil })
		if err != nil || len(got) != 1 || &got[0] != &want[0] {
			t.Fatalf("digests leader %t: after the panic: got %v, %v; want a fresh decode", leaderDigests, got, err)
		}
		if st := c.Stats(); st.Misses != 2 || st.Hits != 2 || st.Bytes == 0 {
			t.Fatalf("digests leader %t: stats = %+v, want 2 misses, 2 hits and the fresh decode cached", leaderDigests, st)
		}
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
