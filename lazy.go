package classpack

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"slices"
	"strings"
	"sync/atomic"

	"classpack/internal/archive"
	"classpack/internal/classfile"
	"classpack/internal/core"
	"classpack/internal/corrupt"
	"classpack/internal/strip"
)

// ErrClassNotFound is returned (wrapped) by Archive.ExtractClass and
// ExtractClasses when the archive holds no class of the requested name.
var ErrClassNotFound = errors.New("classpack: class not found in archive")

// ErrAmbiguousClass is returned (wrapped) by Archive.ExtractClass and
// ExtractClasses when the requested name occurs more than once in the
// archive, so "the class of that name" is not well defined. Address each
// occurrence by ordinal instead: SelectOrdinals returns every match and
// ExtractOrdinals extracts them, exactly as a full Unpack would.
var ErrAmbiguousClass = errors.New("classpack: class name occurs more than once in archive")

// Archive is a random-access view of a packed archive. For a version-3
// archive it reads only the 6-byte header and the trailing class index
// at open; class bodies decode lazily, one chunk at a time, when
// extracted — so serving one class from an N-class archive costs
// O(chunk) decode work and memory, not O(N). Decoded chunks are kept in
// a ChunkCache (see Options.ChunkCache). Version-1/2 archives have no
// internal framing, so they are decoded eagerly at open and served from
// memory.
//
// An Archive is safe for concurrent use. It retains the io.ReaderAt,
// which must tolerate concurrent ReadAt calls as io.ReaderAt requires.
type Archive struct {
	*opened
	r *countingReaderAt // this handle's reads

	decoded  atomic.Int64
	decodes  atomic.Int64
	deflates atomic.Int64
}

// opened is what OpenArchive learned of an archive. The Archive it
// returns and every Reopen of that Archive share it.
type opened struct {
	version byte
	copts   core.Options
	uo      core.UnpackOpts

	ix      *core.Index // version 3 only
	names   []string    // class binary names in archive order
	byName  map[string]int
	dup     map[string]bool // names occurring more than once (usually nil)
	cache   *ChunkCache     // version 3 only
	keyHead []byte          // chunk-key prefix: header version and coding bytes, effective limits
	// keys holds each version-3 chunk's cache key once the chunk's files
	// have passed this archive's index checks (see chunkFiles).
	keys []atomic.Pointer[chunkKey]

	files    []File // version 1/2: eager decode of the whole archive
	retained int64  // see RetainedBytes
}

// countingReaderAt counts the bytes actually requested from the
// underlying reader, so tests (and curious callers) can observe that
// lazy extraction reads O(chunk) of the archive.
type countingReaderAt struct {
	r io.ReaderAt
	n atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.r.ReadAt(p, off)
	c.n.Add(int64(n))
	return n, err
}

// OpenArchive opens a packed archive for random access over an
// io.ReaderAt of the given size. Only Concurrency, MaxDecodedBytes,
// MaxClassCount and ChunkCache of opts are honored (coding choices
// travel in the archive); MaxDecodedBytes bounds each chunk decode. A
// nil opts uses defaults. Failures caused by the archive bytes are
// *CorruptError values or wrap one.
func OpenArchive(r io.ReaderAt, size int64, opts *Options) (*Archive, error) {
	uo := opts.unpackOpts()
	if err := checkConcurrency(uo.Concurrency); err != nil {
		return nil, err
	}
	cr := &countingReaderAt{r: r}
	var hdr [6]byte
	if _, err := cr.ReadAt(hdr[:], 0); err != nil {
		return nil, corrupt.Errorf("header", 0, "reading archive header: %v", err)
	}
	ver, copts, err := core.ParseHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	a := &Archive{opened: &opened{version: ver, copts: copts, uo: uo}, r: cr}
	if ver != core.Version3 {
		// No chunk framing to seek over: decode the whole body once. The
		// caller-supplied size is untrusted until bytes actually arrive,
		// so the read holds it to the decode budget before allocating — a
		// hostile size over a tiny reader fails in O(1) memory, like every
		// other declared length on the decode path — and then grows the
		// buffer with the bytes actually received.
		if size < 6 {
			return nil, corrupt.Errorf("container", size, "declared size %d is smaller than the header", size)
		}
		data, err := core.ReadBounded(io.NewSectionReader(cr, 0, size), size, core.EffectiveBudget(uo), "container", 0)
		if err != nil {
			return nil, err
		}
		files, err := a.decodeFiles(data[6:], ver != core.Version1)
		if err != nil {
			return nil, err
		}
		a.files = files
		a.names = make([]string, len(files))
		for i, f := range files {
			a.names[i] = strings.TrimSuffix(f.Name, ".class")
			a.retained += int64(len(f.Name) + len(f.Data))
		}
	} else {
		ix, err := core.ReadIndexAt(cr, size, uo)
		if err != nil {
			return nil, err
		}
		a.ix = ix
		a.names = ix.Names
		for _, n := range a.names {
			a.retained += int64(len(n))
		}
		a.keys = make([]atomic.Pointer[chunkKey], len(ix.Chunks))
		a.cache = newPrivateChunkCache()
		if opts != nil && opts.ChunkCache != nil {
			a.cache = opts.ChunkCache
		}
		head := binary.BigEndian.AppendUint64([]byte{ver, hdr[5]}, uint64(core.EffectiveBudget(uo)))
		a.keyHead = binary.BigEndian.AppendUint64(head, uint64(core.EffectiveMaxClasses(uo)))
	}
	a.byName = make(map[string]int, len(a.names))
	for i, n := range a.names {
		if _, ok := a.byName[n]; ok {
			// Duplicate entries make by-name lookup ambiguous; remember
			// them so ExtractClass can refuse instead of silently serving
			// the first occurrence's bytes for every request.
			if a.dup == nil {
				a.dup = make(map[string]bool)
			}
			a.dup[n] = true
			continue
		}
		a.byName[n] = i
	}
	return a, nil
}

// Reopen returns a new handle on the archive a reads, as OpenArchive
// would, but without reading anything: it shares a's index, the
// classes a decoded at open, the chunk keys a and its other handles
// have learned, and a's ChunkCache. Only its counters are its own:
// BytesRead, DecodedBytes, ChunkDecodes and MemberDeflates count the
// new handle's extractions from zero. A caller that keeps one Archive
// open across requests can extract each request through a Reopen of
// it, to learn the decodes that request ran.
func (a *Archive) Reopen() *Archive {
	return &Archive{opened: a.opened, r: &countingReaderAt{r: a.r.r}}
}

// RetainedBytes is the memory the Archive holds beyond its reader and
// its ChunkCache: the class names and bytes decoded at open for a
// version-1/2 archive, the class names of the index for version 3.
func (a *Archive) RetainedBytes() int64 { return a.retained }

// ordinalOf resolves a class name to its archive ordinal, failing with
// ErrClassNotFound for absent names and ErrAmbiguousClass for names the
// archive carries more than once.
func (a *Archive) ordinalOf(name string) (int, error) {
	n := trimClass(name)
	g, ok := a.byName[n]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrClassNotFound, name)
	}
	if a.dup[n] {
		return 0, fmt.Errorf("%w: %q (use SelectOrdinals + ExtractOrdinals to address each occurrence)",
			ErrAmbiguousClass, name)
	}
	return g, nil
}

// OpenArchiveBytes is OpenArchive over an in-memory archive.
func OpenArchiveBytes(data []byte, opts *Options) (*Archive, error) {
	return OpenArchive(bytes.NewReader(data), int64(len(data)), opts)
}

// decode decodes one container body, a version-3 chunk or a
// version-1/2 archive's whole body, building the classes need selects
// (see core.DecodeChunk), and counts the decode.
func (a *Archive) decode(body []byte, checked bool, need []bool, visit func(ord int, cf *classfile.ClassFile) error) error {
	decoded, err := core.DecodeChunk(a.copts, body, checked, a.uo, need, visit)
	a.decoded.Add(decoded)
	a.decodes.Add(1)
	return err
}

// decodeFiles decodes one container body (see decode) into serialized
// class files.
func (a *Archive) decodeFiles(body []byte, checked bool) ([]File, error) {
	var files []File
	err := a.decode(body, checked, nil, func(_ int, cf *classfile.ClassFile) error {
		raw, err := classfile.Write(cf)
		if err != nil {
			return err
		}
		files = append(files, File{Name: cf.ThisClassName() + ".class", Data: raw})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return files, nil
}

// Version is the archive's container version (1, 2 or 3).
func (a *Archive) Version() byte { return a.version }

// NumClasses is the number of classes in the archive.
func (a *Archive) NumClasses() int { return len(a.names) }

// ClassNames returns every class binary name in archive order.
func (a *Archive) ClassNames() []string {
	out := make([]string, len(a.names))
	copy(out, a.names)
	return out
}

// ChunkClasses is the archive's classes-per-chunk (0 for version 1/2).
func (a *Archive) ChunkClasses() int {
	if a.ix == nil {
		return 0
	}
	return a.ix.ChunkClasses
}

// ChunkSummary describes one chunk without decoding it.
type ChunkSummary struct {
	Classes         int
	CompressedBytes int64
}

// Chunks summarizes the archive's chunks; nil for version 1/2.
func (a *Archive) Chunks() []ChunkSummary {
	if a.ix == nil {
		return nil
	}
	out := make([]ChunkSummary, len(a.ix.Chunks))
	for i, ch := range a.ix.Chunks {
		out[i] = ChunkSummary{Classes: ch.Classes, CompressedBytes: ch.Len}
	}
	return out
}

// BytesRead is the total bytes requested from the underlying reader so
// far — header, index, and the chunks extraction actually touched.
func (a *Archive) BytesRead() int64 { return a.r.n.Load() }

// DecodedBytes is the total decoded wire-stream bytes materialized so
// far across the chunk decodes this Archive ran (what MaxDecodedBytes
// budgets per chunk); chunks served from the ChunkCache add nothing.
// Extracting one class from a fresh version-3 archive decodes only its
// containing chunk, and this counter proves it.
func (a *Archive) DecodedBytes() int64 { return a.decoded.Load() }

// ChunkDecodes is the number of chunk decodes this Archive ran: chunks
// decoded on ChunkCache misses for version 3, and the one whole-body
// decode at open for version 1/2.
func (a *Archive) ChunkDecodes() int64 { return a.decodes.Load() }

// MemberDeflates is the number of jar member bodies this Archive's
// ExtractJar calls compressed: for version 3, the bodies they made,
// which the ChunkCache then keeps for later calls; for version 1/2,
// every member of every call.
func (a *Archive) MemberDeflates() int64 { return a.deflates.Load() }

// trimClass strips an optional ".class" suffix, so callers can use
// either the binary name or the jar member name.
func trimClass(name string) string { return strings.TrimSuffix(name, ".class") }

// ExtractClass returns the named class's serialized bytes (the same
// bytes a full Unpack would produce for it), as a copy the caller owns.
// The name is the binary name, with or without a ".class" suffix. For a
// version-3 archive only the containing chunk is decoded, unless the
// ChunkCache already holds it. A missing class reports an error
// wrapping ErrClassNotFound; a name the archive carries more than once
// reports one wrapping ErrAmbiguousClass.
func (a *Archive) ExtractClass(name string) ([]byte, error) {
	g, err := a.ordinalOf(name)
	if err != nil {
		return nil, err
	}
	f, err := a.fileAt(g)
	if err != nil {
		return nil, err
	}
	return bytes.Clone(f.Data), nil
}

// fileAt returns the serialized file for an archive ordinal, shared
// with the chunk cache (or a.files): read-only.
func (a *Archive) fileAt(g int) (File, error) {
	if a.ix == nil {
		return a.files[g], nil
	}
	ci := a.ix.ChunkOf(g)
	files, _, err := a.chunkFiles(ci)
	if err != nil {
		return File{}, err
	}
	return files[g-a.ix.Start(ci)], nil
}

// chunkFiles returns chunk ci's files, and their cache key, through the
// archive's chunk cache, decoding when no entry holds the classes, and
// cross-checks them against this archive's index — hits included,
// since an entry was checked only against the index of the archive
// that decoded it. The files are shared with the cache: read-only.
//
// A chunk whose files have passed those checks once is looked up by
// its remembered key, without reading or hashing it again and without
// repeating the checks, so an Archive and its Reopens read and hash
// each chunk once while the cache holds it.
func (a *Archive) chunkFiles(ci int) ([]File, chunkKey, error) {
	if key := a.keys[ci].Load(); key != nil {
		if files, ok := a.cache.lookup(*key); ok {
			return files, *key, nil
		}
	}
	body, err := a.readChunk(ci)
	if err != nil {
		return nil, chunkKey{}, err
	}
	key := a.key(body)
	files, err := a.cache.get(key, func() ([]File, error) { return a.decodeFiles(body, true) })
	if err != nil {
		return nil, chunkKey{}, fmt.Errorf("classpack: chunk %d: %w", ci, err)
	}
	if err := a.checkChunk(ci, files); err != nil {
		return nil, chunkKey{}, err
	}
	a.keys[ci].Store(&key)
	return files, key, nil
}

// chunkDigests returns the digests of chunk ci's classes through the
// archive's chunk cache, as Diff matches classes, decoding only when no
// entry holds the chunk. It also returns the chunk's files when it had
// them to hand (see ChunkCache.digests), checked against this archive's
// index as chunkFiles checks them; nil files mean an entry holding only
// digests answered, whose names digest matched this archive's index.
// On a mismatch it decodes the chunk, so that the index check reports
// the difference. The files are shared with the cache: read-only.
func (a *Archive) chunkDigests(ci int) (*chunkDigests, []File, error) {
	body, err := a.readChunk(ci)
	if err != nil {
		return nil, nil, err
	}
	key := a.key(body)
	d, files, err := a.cache.digests(key, func() ([]File, error) { return a.decodeFiles(body, true) })
	if err != nil {
		return nil, nil, fmt.Errorf("classpack: chunk %d: %w", ci, err)
	}
	if files == nil && !a.indexHolds(ci, d) {
		if files, err = a.decodeFiles(body, true); err != nil {
			return nil, nil, fmt.Errorf("classpack: chunk %d: %w", ci, err)
		}
	}
	if files != nil {
		if err := a.checkChunk(ci, files); err != nil {
			return nil, nil, err
		}
	}
	a.keys[ci].Store(&key)
	return d, files, nil
}

// chunkClasses decodes chunk ci for this call alone, outside the chunk
// cache, and returns the classes at the chunk positions need selects
// (see core.DecodeChunk), in chunk order. With a nil need it builds
// every class and checks them against the archive's index, as
// chunkFiles checks the files it returns. With a need it checks
// nothing: it serves Diff, which builds only a chunk's changed classes
// once a cache entry holding the chunk's digests has matched the index.
func (a *Archive) chunkClasses(ci int, need []bool) ([]*classfile.ClassFile, error) {
	body, err := a.readChunk(ci)
	if err != nil {
		return nil, err
	}
	var cfs []*classfile.ClassFile
	err = a.decode(body, true, need, func(_ int, cf *classfile.ClassFile) error {
		cfs = append(cfs, cf)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("classpack: chunk %d: %w", ci, err)
	}
	if need == nil {
		if err := a.ix.CheckChunk(ci, len(cfs), func(i int) string { return cfs[i].ThisClassName() }); err != nil {
			return nil, err
		}
	}
	return cfs, nil
}

// readChunk reads chunk ci's bytes, held to the decode budget.
func (a *Archive) readChunk(ci int) ([]byte, error) {
	ch := a.ix.Chunks[ci]
	if err := core.CheckBuffered(ch.Len, core.EffectiveBudget(a.uo), "chunks", ch.Off); err != nil {
		return nil, fmt.Errorf("classpack: chunk %d: %w", ci, err)
	}
	body := make([]byte, ch.Len)
	if _, err := a.r.ReadAt(body, ch.Off); err != nil {
		return nil, corrupt.Errorf("chunks", ch.Off, "reading chunk %d: %v", ci, err)
	}
	return body, nil
}

// key is the chunk cache key of a chunk's bytes (see ChunkCache).
func (a *Archive) key(body []byte) chunkKey {
	h := sha256.New()
	h.Write(a.keyHead)
	h.Write(body)
	var key chunkKey
	h.Sum(key[:0])
	return key
}

// checkChunk reports a chunk whose files are not the classes the
// archive's index lists for chunk ci.
func (a *Archive) checkChunk(ci int, files []File) error {
	return a.ix.CheckChunk(ci, len(files), func(i int) string { return trimClass(files[i].Name) })
}

// indexHolds reports whether d is the digests of a chunk holding the
// classes the archive's index lists for chunk ci, by their count and
// the digest of their names.
func (a *Archive) indexHolds(ci int, d *chunkDigests) bool {
	n, start := a.ix.Chunks[ci].Classes, a.ix.Start(ci)
	return len(d.classes) == n && d.names == namesDigest(n, func(i int) string { return a.names[start+i] })
}

// ExtractClasses extracts the named classes, returned in input order.
// Chunks are decoded in ascending order, each at most once per call, so
// a subset clustered in one chunk costs one chunk decode regardless of
// subset size. Names the archive carries more than once report an error
// wrapping ErrAmbiguousClass (see ExtractOrdinals).
func (a *Archive) ExtractClasses(names []string) ([]File, error) {
	ords := make([]int, len(names))
	for i, name := range names {
		g, err := a.ordinalOf(name)
		if err != nil {
			return nil, err
		}
		ords[i] = g
	}
	return a.ExtractOrdinals(ords)
}

// ExtractOrdinals extracts classes by archive ordinal (0-based position
// in archive order, the order ClassNames reports), returned in input
// order as copies the caller owns. Ordinals address every class
// unambiguously — including duplicate-named entries, which by-name
// extraction refuses — so extracting 0..NumClasses-1 reproduces a full
// Unpack exactly. Chunks decode in ascending order, each at most once
// per call.
func (a *Archive) ExtractOrdinals(ords []int) ([]File, error) {
	out, err := a.ordinals(ords)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i].Data = bytes.Clone(out[i].Data)
	}
	return out, nil
}

// ordinals is ExtractOrdinals without the copies: the returned files
// share their bytes with the chunk cache (or a.files), so callers must
// not modify them.
func (a *Archive) ordinals(ords []int) ([]File, error) {
	if err := a.checkOrdinals(ords); err != nil {
		return nil, err
	}
	out := make([]File, len(ords))
	if a.ix == nil {
		for i, g := range ords {
			out[i] = a.files[g]
		}
		return out, nil
	}
	err := a.eachChunk(ords, func(ci int, positions []int) error {
		files, _, err := a.chunkFiles(ci)
		if err != nil {
			return err
		}
		for _, i := range positions {
			out[i] = files[ords[i]-a.ix.Start(ci)]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// checkOrdinals refuses an ordinal outside the archive.
func (a *Archive) checkOrdinals(ords []int) error {
	for _, g := range ords {
		if g < 0 || g >= len(a.names) {
			return fmt.Errorf("classpack: ordinal %d out of range [0,%d)", g, len(a.names))
		}
	}
	return nil
}

// eachChunk calls visit once for each version-3 chunk holding any of
// the checked ords, in ascending chunk order, with the positions in ords
// of the ordinals the chunk holds, so that a caller decodes each chunk
// at most once even when the request order jumps around.
func (a *Archive) eachChunk(ords []int, visit func(ci int, positions []int) error) error {
	byChunk := make(map[int][]int) // chunk -> positions in the request
	maxChunk := 0
	for i, g := range ords {
		ci := a.ix.ChunkOf(g)
		byChunk[ci] = append(byChunk[ci], i)
		if ci > maxChunk {
			maxChunk = ci
		}
	}
	for ci := 0; ci <= maxChunk; ci++ {
		positions, ok := byChunk[ci]
		if !ok {
			continue
		}
		if err := visit(ci, positions); err != nil {
			return err
		}
	}
	return nil
}

// ExtractJar builds a jar of the classes at ords (archive ordinals, as
// ExtractOrdinals takes them), in input order: exactly the bytes of
// JarFromFiles over ExtractOrdinals(ords), without copying a class.
// For a version-3 archive each class's jar member body, its DEFLATE and
// CRC-32, is made the first time a jar needs it and kept in its chunk's
// ChunkCache entry, so a later ExtractJar of that class, from this
// Archive or any other sharing the cache, compresses nothing while the
// entry lives (see ChunkCache). A version-1/2 archive's classes are
// decoded at open and held outside any ChunkCache, so its ExtractJar
// compresses every member on every call. Members are compressed on up
// to Options.Concurrency workers; MemberDeflates counts them.
func (a *Archive) ExtractJar(ords []int) ([]byte, error) {
	if a.ix == nil {
		files, err := a.ordinals(ords)
		if err != nil {
			return nil, err
		}
		a.deflates.Add(int64(len(files)))
		return jarFromFiles(files, a.uo.Concurrency)
	}
	if err := a.checkOrdinals(ords); err != nil {
		return nil, err
	}
	members := make([]archive.File, len(ords))
	bodies := make([]archive.Body, len(ords))
	err := a.eachChunk(ords, func(ci int, positions []int) error {
		files, key, err := a.chunkFiles(ci)
		if err != nil {
			return err
		}
		idx := make([]int, len(positions))
		for k, i := range positions {
			idx[k] = ords[i] - a.ix.Start(ci)
			members[i] = archive.File(files[idx[k]])
		}
		got, made, err := a.cache.memberBodies(key, files, idx, a.uo.Concurrency)
		a.deflates.Add(int64(made))
		if err != nil {
			return fmt.Errorf("classpack: chunk %d: %w", ci, err)
		}
		for k, i := range positions {
			bodies[i] = got[k]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return archive.AssembleJar(members, bodies)
}

// Select returns the archive's class names (in archive order) matching
// any of the given patterns. A pattern containing path.Match
// metacharacters is matched against the binary name ("java/util/*",
// "com/acme/**" is NOT supported — path.Match is single-star); any
// other pattern is an exact binary name, with or without ".class".
// A malformed pattern is an error; an empty result is not. An archive
// with duplicate entries yields the duplicated name once per occurrence;
// pass the result to ExtractOrdinals via SelectOrdinals (not
// ExtractClasses, which refuses ambiguous names) to extract such sets.
func (a *Archive) Select(patterns ...string) ([]string, error) {
	ords, err := a.SelectOrdinals(patterns...)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, g := range ords {
		out = append(out, a.names[g])
	}
	return out, nil
}

// SelectOrdinals is Select returning archive ordinals instead of names:
// every class matching any pattern, in archive order, one ordinal per
// occurrence. Feed the result to ExtractOrdinals; unlike name-keyed
// extraction this round-trips archives with duplicate entries, matching
// what a full Unpack produces for them.
func (a *Archive) SelectOrdinals(patterns ...string) ([]int, error) {
	exact := make([]string, 0, len(patterns))
	var globs []string
	for _, p := range patterns {
		if strings.ContainsAny(p, "*?[\\") {
			// Validate the pattern up front so a bad one fails loudly
			// rather than silently matching nothing.
			if _, err := path.Match(p, ""); err != nil {
				return nil, fmt.Errorf("classpack: pattern %q: %w", p, err)
			}
			globs = append(globs, p)
			continue
		}
		exact = append(exact, trimClass(p))
	}
	if len(globs) == 0 && !slices.ContainsFunc(exact, func(n string) bool { return a.dup[n] }) {
		// Each name is at most one class, which byName holds: no scan.
		out := make([]int, 0, len(exact))
		for _, n := range exact {
			if g, ok := a.byName[n]; ok {
				out = append(out, g)
			}
		}
		slices.Sort(out)
		return slices.Compact(out), nil
	}
	wanted := make(map[string]bool, len(exact))
	for _, n := range exact {
		wanted[n] = true
	}
	var out []int
	for i, name := range a.names {
		if wanted[name] {
			out = append(out, i)
			continue
		}
		for _, g := range globs {
			if ok, _ := path.Match(g, name); ok {
				out = append(out, i)
				break
			}
		}
	}
	return out, nil
}

// PackStream packs class files supplied one at a time by next — which
// returns io.EOF to finish — writing a version-3 archive to w while
// holding at most one chunk of classes in memory. It is the streaming
// counterpart of Pack for inputs too large to materialize; the output
// is byte-identical to Pack of the same files with the same
// ChunkClasses. A nil opts (or ChunkClasses <= 0) chunks every 64
// classes.
func PackStream(w io.Writer, next func() ([]byte, error), opts *Options) error {
	c := opts.core()
	if err := checkConcurrency(c.Concurrency); err != nil {
		return err
	}
	if c.ChunkClasses <= 0 {
		c.ChunkClasses = core.DefaultChunkClasses
	}
	var scratch strip.Scratch
	i := 0
	return core.PackStream(w, func() (*classfile.ClassFile, error) {
		raw, err := next()
		if err != nil {
			return nil, err // io.EOF terminates cleanly
		}
		cf, err := classfile.Parse(raw)
		if err != nil {
			return nil, fmt.Errorf("classpack: file %d: %w", i, err)
		}
		if err := strip.ApplyScratch(cf, strip.Options{}, &scratch); err != nil {
			return nil, fmt.Errorf("classpack: file %d: %w", i, err)
		}
		i++
		return cf, nil
	}, c)
}

// UnpackStream decodes an archive from an io.Reader, invoking visit
// with each class file as it completes. The format is sequential, so an
// eager class loader (§11 of the paper) can define each class the
// moment it arrives; pack the input superclass-first (see
// OrderForEagerLoading) so no definition blocks. A version-3 archive is
// decoded one chunk at a time off its length-prefix framing — the whole
// archive is never materialized — with the trailing index verified after
// the last chunk; version-1/2 archives are buffered, never past the
// decode budget plus a small slack, and decoded in place. A nil opts
// uses all cores and the default caps. A visit error
// aborts decoding and stays in the returned error's chain for
// errors.Is.
func UnpackStream(r io.Reader, visit func(File) error, opts *Options) error {
	uo := opts.unpackOpts()
	if err := checkConcurrency(uo.Concurrency); err != nil {
		return err
	}
	return core.UnpackReader(r, uo, func(cf *classfile.ClassFile) error {
		raw, err := classfile.Write(cf)
		if err != nil {
			return err
		}
		return visit(File{Name: cf.ThisClassName() + ".class", Data: raw})
	})
}
