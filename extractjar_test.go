package classpack

import (
	"archive/zip"
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"classpack/internal/archive"
	"classpack/internal/classfile"
	"classpack/internal/synth"
)

// utf8Class is the binary name of jarCorpus's class whose jar member
// name needs the zip UTF-8 flag.
const utf8Class = "café/Ünïcode$Ω"

// jarCorpus returns raw classes for the ExtractJar tests: the sample
// corpus with, in its middle, a class named utf8Class, and at its end a
// mutated copy of a sample class under that class's name, so the
// archive holds one name twice.
func jarCorpus(t *testing.T) [][]byte {
	t.Helper()
	raw := sample(t)
	b := classfile.NewBuilder(utf8Class, "java/lang/Object", classfile.AccPublic|classfile.AccSuper)
	b.AddField(classfile.AccStatic, "f", "I")
	cf, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	named, err := classfile.Write(cf)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range raw {
		m, ok, err := synth.MutateClass(f)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			mid := len(raw) / 2
			out := append(append(append([][]byte(nil), raw[:mid]...), named), raw[mid:]...)
			return append(out, m)
		}
	}
	t.Fatal("no mutable class in corpus")
	return nil
}

// checkExtractJar fails unless ExtractJar(ords) builds exactly the
// bytes of JarFromFiles over ExtractOrdinals(ords).
func checkExtractJar(t *testing.T, a *Archive, ords []int) []byte {
	t.Helper()
	got, err := a.ExtractJar(ords)
	if err != nil {
		t.Fatalf("ExtractJar(%v): %v", ords, err)
	}
	files, err := a.ExtractOrdinals(ords)
	if err != nil {
		t.Fatal(err)
	}
	want, err := JarFromFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ExtractJar(%v): %d bytes differ from JarFromFiles' %d", ords, len(got), len(want))
	}
	return got
}

// filesCost is what a ChunkCache entry of files costs before any member
// body is made.
func filesCost(files []File) int64 {
	var n int64
	for _, f := range files {
		n += int64(len(f.Name) + len(f.Data))
	}
	return n
}

// bodiesCost is what the member bodies of files add to an entry's cost.
func bodiesCost(t *testing.T, files []File) int64 {
	t.Helper()
	var n int64
	for _, f := range files {
		b, err := archive.DeflateBody(f.Data)
		if err != nil {
			t.Fatal(err)
		}
		n += int64(len(b.Data))
	}
	return n
}

// TestExtractJarMatchesJarFromFiles holds ExtractJar to JarFromFiles
// over ExtractOrdinals on version-2 and version-3 archives: a subset
// within one chunk, every class across all chunks, both occurrences of
// a duplicated name, a name that needs the zip UTF-8 flag, shuffled and
// repeated ordinals, and no ordinal at all. On version 3 a second pass,
// through a Reopen, compresses nothing; on version 2 every call
// compresses every member again.
func TestExtractJarMatchesJarFromFiles(t *testing.T) {
	raw := jarCorpus(t)
	for _, chunk := range []int{0, 3} {
		packed := packChunked(t, raw, chunk)
		a := openShared(t, packed, NewChunkCache(1<<20))
		names := a.ClassNames()
		dup, err := a.SelectOrdinals(names[len(names)-1])
		if err != nil {
			t.Fatal(err)
		}
		if len(dup) != 2 {
			t.Fatalf("corpus construction broken: %d occurrences of the duplicated name", len(dup))
		}
		utf8, err := a.SelectOrdinals(utf8Class)
		if err != nil {
			t.Fatal(err)
		}
		all := allOrdinals(len(names))
		shuffled := append([]int(nil), all...)
		rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		cases := [][]int{{1, 0}, all, dup, utf8, shuffled, {2, 2, 0, 2}, {}}
		for _, ords := range cases {
			checkExtractJar(t, a, ords)
		}

		jar := checkExtractJar(t, a, utf8)
		zr, err := zip.NewReader(bytes.NewReader(jar), int64(len(jar)))
		if err != nil {
			t.Fatal(err)
		}
		if len(zr.File) != 1 || zr.File[0].Name != utf8Class+".class" || zr.File[0].Flags&0x800 == 0 {
			t.Fatalf("chunk=%d: the UTF-8 name's member lacks the UTF-8 flag", chunk)
		}
		if _, err := a.ExtractJar([]int{len(names)}); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("chunk=%d: ExtractJar of an ordinal past the end: err = %v", chunk, err)
		}

		b := a.Reopen()
		checkExtractJar(t, b, shuffled)
		if chunk == 0 {
			if n := b.MemberDeflates(); n != int64(len(shuffled)) {
				t.Fatalf("version 2: a repeat jar compressed %d members, want all %d again", n, len(shuffled))
			}
		} else if n := b.MemberDeflates(); n != 0 {
			t.Fatalf("version 3: a repeat jar compressed %d members, want none", n)
		}
	}
}

// TestExtractJarBodiesFollowTheCache extracts jars of single chunks of
// a version-3 archive through a ChunkCache bounded to one chunk and its
// member bodies: a chunk's bodies are made once while it is cached,
// counted in its entry's cost, and dropped with it, so after an
// eviction the chunk is decoded and its bodies made again, and the jar
// stays the same. A cache bounded to a chunk's classes alone serves the
// jar and then evicts the chunk, since its bodies push it past the
// bound.
func TestExtractJarBodiesFollowTheCache(t *testing.T) {
	packed := packChunked(t, jarCorpus(t), 3)
	full, err := Unpack(packed)
	if err != nil {
		t.Fatal(err)
	}
	cost := func(g int) (files, bodies int64) {
		return filesCost(full[g : g+3]), bodiesCost(t, full[g:g+3])
	}
	f0, b0 := cost(0)
	f1, b1 := cost(3)
	bound := max(f0+b0, f1+b1)
	if f0+b0+f1 <= bound || f1+b1+f0 <= bound {
		t.Fatal("corpus construction broken: two chunks fit the bound")
	}
	cache := NewChunkCache(bound)
	a := openShared(t, packed, cache)
	first := checkExtractJar(t, a, []int{2, 0, 1})
	if st := cache.Stats(); st.Bytes != f0+b0 || a.MemberDeflates() != 3 {
		t.Fatalf("after chunk 0's jar: stats %+v, %d deflates; want %d bytes and 3 deflates", st, a.MemberDeflates(), f0+b0)
	}
	checkExtractJar(t, a, []int{0, 1, 2})
	if a.MemberDeflates() != 3 {
		t.Fatalf("a repeat jar of cached chunk 0 compressed %d more members", a.MemberDeflates()-3)
	}
	checkExtractJar(t, a, []int{3, 4, 5}) // evicts chunk 0 and its bodies
	if st := cache.Stats(); st.Bytes != f1+b1 || st.Evictions != 1 {
		t.Fatalf("after chunk 1's jar: stats %+v, want %d bytes and 1 eviction", st, f1+b1)
	}
	again := checkExtractJar(t, a, []int{2, 0, 1})
	if !bytes.Equal(first, again) {
		t.Fatal("chunk 0's jar changed after its chunk was evicted and decoded again")
	}
	if a.ChunkDecodes() != 3 || a.MemberDeflates() != 9 {
		t.Fatalf("%d decodes, %d deflates; want 3 and 9", a.ChunkDecodes(), a.MemberDeflates())
	}
	if st := cache.Stats(); st.Bytes != f0+b0 || st.Evictions != 2 {
		t.Fatalf("after chunk 0's second jar: stats %+v, want %d bytes and 2 evictions", st, f0+b0)
	}

	tight := NewChunkCache(f0)
	got, err := openShared(t, packed, tight).ExtractJar([]int{2, 0, 1})
	if err != nil || !bytes.Equal(got, first) {
		t.Fatalf("bound below a chunk and its bodies: err %v, or the jar differs", err)
	}
	if st := tight.Stats(); st != (ChunkCacheStats{Misses: 1, Evictions: 1}) {
		t.Fatalf("bound below a chunk and its bodies: stats %+v, want the chunk evicted", st)
	}
}

// TestExtractJarConcurrent runs jars and class extractions over
// overlapping classes of a version-3 archive from many goroutines at
// once, through Reopens sharing one ChunkCache: every chunk is decoded
// once, every class a jar asks for is compressed once, the cache costs
// exactly the chunks' classes and those bodies, and every jar equals
// JarFromFiles'.
func TestExtractJarConcurrent(t *testing.T) {
	packed := packChunked(t, jarCorpus(t), 3)
	full, err := Unpack(packed)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 9 {
		t.Fatalf("corpus has %d classes, want three chunks", len(full))
	}
	jars := [][]int{{0, 3}, {4, 3, 6}, {6, 1}}
	want := make([][]byte, len(jars))
	for i, ords := range jars {
		var picked []File
		for _, g := range ords {
			picked = append(picked, full[g])
		}
		if want[i], err = JarFromFiles(picked); err != nil {
			t.Fatal(err)
		}
	}
	cache := NewChunkCache(1 << 20)
	a := openShared(t, packed, cache)
	const rounds = 8
	var decodes, deflates sync.Map
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for i := range jars {
			wg.Add(2)
			go func() {
				defer wg.Done()
				h := a.Reopen()
				got, err := h.ExtractJar(jars[i])
				if err != nil || !bytes.Equal(got, want[i]) {
					t.Errorf("jar %d: err %v, or bytes differ from JarFromFiles'", i, err)
				}
				decodes.Store(h, h.ChunkDecodes())
				deflates.Store(h, h.MemberDeflates())
			}()
			go func() {
				defer wg.Done()
				h := a.Reopen()
				g := jars[i][0]
				if got, err := h.ExtractOrdinals([]int{g}); err != nil || !bytes.Equal(got[0].Data, full[g].Data) {
					t.Errorf("class %d: err %v, or bytes differ from the full unpack", g, err)
				}
				decodes.Store(h, h.ChunkDecodes())
				if h.MemberDeflates() != 0 {
					t.Errorf("class %d: extracting a class compressed %d members", g, h.MemberDeflates())
				}
			}()
		}
	}
	wg.Wait()
	sum := func(m *sync.Map) (n int64) {
		m.Range(func(_, v any) bool { n += v.(int64); return true })
		return n
	}
	if d, z := sum(&decodes), sum(&deflates); d != 3 || z != 5 {
		t.Fatalf("%d decodes and %d deflates, want 3 chunks and 5 distinct classes", d, z)
	}
	var bodies []File
	for _, g := range []int{0, 1, 3, 4, 6} {
		bodies = append(bodies, full[g])
	}
	if st, want := cache.Stats(), filesCost(full[:9])+bodiesCost(t, bodies); st.Bytes != want {
		t.Fatalf("cache bytes = %d, want three chunks and five bodies, %d", st.Bytes, want)
	}
}
