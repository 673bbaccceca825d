// Version-3 container: the random-access layout. Classes are grouped
// into chunks of Options.ChunkClasses; each chunk is encoded from reset
// reference models (fresh MTF pools, §5) into its own checked streams
// container — exactly the version-2 body, including the per-stream and
// trailer CRC32Cs — so chunks decode independently and damage stays
// chunk-local. After the chunks comes a seekable index mapping every
// class name to its (chunk, ordinal) with per-chunk byte ranges, so one
// class extracts in O(chunk) decode work and bounded memory.
//
// Layout after the common 6-byte header (magic, version=3, options):
//
//	repeat:  uvarint(len(body)) ‖ body     one checked container per chunk
//	uvarint(0)                             end-of-chunks sentinel
//	index blob                             coding byte ‖ uvarint(rawLen) ‖ payload
//	crc32c(index blob)                     4 bytes, big-endian, Castagnoli
//	uint64be(len(index blob))              8 bytes
//	"CJPX"                                 footer magic
//
// The raw (pre-DEFLATE) index is all varints: chunkClasses, chunk count,
// then per chunk {absolute body offset, body length, class count}, then
// the class count followed by every class name (length-prefixed) in
// archive order. The footer is fixed-width so a reader can find the
// index from the end of the file with two reads.
//
// One chunkWriter writes this layout, for Pack and PackStream alike.
// One chunkWalker reads the framing back, for strict unpack from memory
// or from a stream, for salvage and for CheckFraming; ReadIndexAt alone
// parses the tail.
package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"classpack/internal/archive"
	"classpack/internal/classfile"
	"classpack/internal/corrupt"
	"classpack/internal/encoding/varint"
	"classpack/internal/par"
	"classpack/internal/streams"
)

// Section names of the version-3 container structure in corrupt errors.
const (
	sChunks = "chunks" // the chunk length-prefix framing
	sIndex  = "index"  // the trailing class index
	sFooter = "footer" // the fixed-width footer
)

// indexMagic closes every version-3 archive.
var indexMagic = [4]byte{'C', 'J', 'P', 'X'}

// footerSize is the fixed tail: 8-byte big-endian index length plus the
// footer magic. The index blob's CRC32C sits immediately before it.
const footerSize = 8 + 4

// Index blob codings (mirroring the stream codings: DEFLATE or stored).
const (
	idxFlate byte = 0
	idxStore byte = 1
)

// bodySlack is how much larger than the bytes it decodes to a valid
// container body or index blob can be. Store is every coding's fallback,
// and the index blob is stored when DEFLATE does not shrink it, so no
// payload exceeds its decoded size; what remains is directory and
// framing overhead (stream names, varints, CRCs, the footer).
const bodySlack = 1 << 16

// v3CRC is the CRC32C (Castagnoli) table for the index checksum, the
// same polynomial the checked stream containers use.
var v3CRC = crc32.MakeTable(crc32.Castagnoli)

// ChunkInfo locates one chunk: the absolute byte range of its container
// body within the archive and how many classes it holds.
type ChunkInfo struct {
	Off     int64 // body offset from the start of the archive
	Len     int64 // body length in bytes
	Classes int
}

// Index is the version-3 class index: where every chunk lives and which
// classes it holds, in archive order.
type Index struct {
	// ChunkClasses is the encoder's classes-per-chunk knob (the last
	// chunk may hold fewer).
	ChunkClasses int
	Chunks       []ChunkInfo
	// Names are all class binary names in archive order.
	Names []string

	starts  []int // starts[i] = archive ordinal of chunk i's first class
	blobOff int64 // absolute offset of the index blob
}

// finalize builds the chunk start table after Chunks/Names are set.
func (ix *Index) finalize() {
	ix.starts = make([]int, len(ix.Chunks)+1)
	for i, ch := range ix.Chunks {
		ix.starts[i+1] = ix.starts[i] + ch.Classes
	}
}

// NumClasses is the total class count across all chunks.
func (ix *Index) NumClasses() int { return len(ix.Names) }

// ChunkOf maps an archive ordinal to the chunk holding it.
func (ix *Index) ChunkOf(ordinal int) int {
	return sort.Search(len(ix.Chunks), func(i int) bool { return ix.starts[i+1] > ordinal })
}

// Start is the archive ordinal of the chunk's first class.
func (ix *Index) Start(chunk int) int { return ix.starts[chunk] }

// CheckChunk reports, as a corrupt error, a chunk that decoded to other
// classes than the index lists for it: count is how many it held and
// name(i) the i-th one's name. ci must be one of the index's chunks. It
// allocates only on failure, so it is cheap enough for every extraction.
func (ix *Index) CheckChunk(ci, count int, name func(i int) string) error {
	if want := ix.Chunks[ci].Classes; count != want {
		return corrupt.Errorf(sIndex, -1, "chunk %d holds %d classes, index says %d", ci, count, want)
	}
	first := ix.starts[ci]
	for i := 0; i < count; i++ {
		if n := name(i); n != ix.Names[first+i] {
			return corrupt.Errorf(sIndex, -1, "chunk %d class %d is %q, index says %q", ci, i, n, ix.Names[first+i])
		}
	}
	return nil
}

// EffectiveBudget resolves the decoded-bytes cap. The delta patch
// decoder and the lazy archive share the container's limits.
func EffectiveBudget(o UnpackOpts) int64 {
	if o.MaxDecodedBytes <= 0 {
		return streams.DefaultMaxDecodedBytes
	}
	return o.MaxDecodedBytes
}

// EffectiveMaxClasses resolves the class-count cap (see EffectiveBudget).
func EffectiveMaxClasses(o UnpackOpts) int {
	if o.MaxClassCount <= 0 {
		return DefaultMaxClassCount
	}
	return o.MaxClassCount
}

// chunkSize is the classes per version-3 chunk: ChunkClasses, or
// DefaultChunkClasses when that is unset.
func (o Options) chunkSize() int {
	if o.ChunkClasses <= 0 {
		return DefaultChunkClasses
	}
	return o.ChunkClasses
}

// packV3 encodes the version-3 layout. Chunks are mutually independent
// (each starts from reset models), so chunk encoding itself fans out
// over Options.Concurrency workers; the chunk writer then frames the
// bodies in archive order, so the output is byte-identical for every
// worker count.
func packV3(cfs []*classfile.ClassFile, opts Options) ([]byte, error) {
	chunkN := opts.chunkSize()
	numChunks := (len(cfs) + chunkN - 1) / chunkN
	classes := func(i int) []*classfile.ClassFile { return cfs[i*chunkN : min((i+1)*chunkN, len(cfs))] }
	// With several chunks in flight the per-chunk stream trial coding
	// runs serial — nesting worker pools would oversubscribe — while a
	// single-chunk archive keeps the full worker budget inside it.
	inner := opts.Concurrency
	if numChunks > 1 {
		inner = 1
	}
	bodies := make([][]byte, numChunks)
	if err := par.Do(opts.Concurrency, numChunks, func(i int) error {
		copts := opts
		copts.Concurrency = inner
		var err error
		bodies[i], err = encodeMonolith(classes(i), copts, Version2)
		return err
	}); err != nil {
		return nil, err
	}

	// Reserve the whole archive, tail included, so assembly never
	// reallocates: each chunk adds a length prefix and an index entry of
	// three varints, each class its name and the name's length.
	size := 6 + 1 + 1 + 4*varint.MaxLen64 + 4 + footerSize
	for _, b := range bodies {
		size += len(b) + 4*varint.MaxLen64
	}
	for _, cf := range cfs {
		size += len(cf.ThisClassName()) + varint.MaxLen64
	}
	var out bytes.Buffer
	out.Grow(size)
	cw := newChunkWriter(&out, opts)
	for i, body := range bodies {
		cw.chunk(body, classes(i))
	}
	if err := cw.close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// PackStream encodes classfiles supplied one at a time by next (which
// signals the end with io.EOF) into a version-3 archive written to w,
// holding at most one chunk of classes in memory — the streaming
// counterpart of Pack for inputs too large to materialize. The output
// is byte-identical to Pack of the same classfiles with the same
// ChunkClasses, for every Concurrency value.
func PackStream(w io.Writer, next func() (*classfile.ClassFile, error), opts Options) error {
	if err := checkScheme(opts); err != nil {
		return err
	}
	cw := newChunkWriter(w, opts)
	if cw.err != nil {
		return cw.err
	}
	buf := make([]*classfile.ClassFile, 0, opts.chunkSize())
	flush := func() error {
		body, err := encodeMonolith(buf, opts, Version2)
		if err != nil {
			return err
		}
		err = cw.chunk(body, buf)
		buf = buf[:0]
		return err
	}
	for {
		cf, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		buf = append(buf, cf)
		if len(buf) == cap(buf) {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if len(buf) > 0 {
		if err := flush(); err != nil {
			return err
		}
	}
	return cw.close()
}

// chunkWriter writes a version-3 archive: the header, then each chunk
// framed as uvarint(len) ‖ body while its index entry is recorded, then
// the tail. Like bufio.Writer it keeps the first write error: later
// writes are skipped and every call returns it.
type chunkWriter struct {
	w      io.Writer
	pos    int64 // bytes written so far: the next chunk's offset
	ix     Index
	prefix []byte // length-prefix scratch
	err    error
}

// newChunkWriter writes the 6-byte header to w.
func newChunkWriter(w io.Writer, opts Options) *chunkWriter {
	cw := &chunkWriter{w: w, ix: Index{ChunkClasses: opts.chunkSize()}}
	cw.write(append(Magic[:], Version3, encodeOptions(opts)))
	return cw
}

func (cw *chunkWriter) write(b []byte) {
	if cw.err == nil {
		_, cw.err = cw.w.Write(b)
		cw.pos += int64(len(b))
	}
}

// chunk writes one encoded chunk body and records its index entry and
// the names of the classes it holds.
func (cw *chunkWriter) chunk(body []byte, cfs []*classfile.ClassFile) error {
	cw.prefix = varint.AppendUint(cw.prefix[:0], uint64(len(body)))
	cw.write(cw.prefix)
	cw.ix.Chunks = append(cw.ix.Chunks, ChunkInfo{Off: cw.pos, Len: int64(len(body)), Classes: len(cfs)})
	cw.write(body)
	for _, cf := range cfs {
		cw.ix.Names = append(cw.ix.Names, cf.ThisClassName())
	}
	return cw.err
}

// close writes the tail: the end-of-chunks sentinel, the index blob,
// its CRC32C, the blob length and the footer magic.
func (cw *chunkWriter) close() error {
	blob := encodeIndex(&cw.ix)
	tail := make([]byte, 0, 1+len(blob)+4+footerSize)
	tail = varint.AppendUint(tail, 0)
	tail = append(tail, blob...)
	tail = binary.BigEndian.AppendUint32(tail, crc32.Checksum(blob, v3CRC))
	tail = binary.BigEndian.AppendUint64(tail, uint64(len(blob)))
	cw.write(append(tail, indexMagic[:]...))
	return cw.err
}

// encodeIndex serializes the index and wraps it in the blob framing
// (coding byte, raw length, payload), DEFLATE-compressed when smaller.
func encodeIndex(ix *Index) []byte {
	var raw []byte
	raw = varint.AppendUint(raw, uint64(ix.ChunkClasses))
	raw = varint.AppendUint(raw, uint64(len(ix.Chunks)))
	for _, ch := range ix.Chunks {
		raw = varint.AppendUint(raw, uint64(ch.Off))
		raw = varint.AppendUint(raw, uint64(ch.Len))
		raw = varint.AppendUint(raw, uint64(ch.Classes))
	}
	raw = varint.AppendUint(raw, uint64(len(ix.Names)))
	for _, n := range ix.Names {
		raw = varint.AppendUint(raw, uint64(len(n)))
		raw = append(raw, n...)
	}
	payload, coding := raw, idxStore
	if comp, err := archive.Flate(raw); err == nil && len(comp) < len(raw) {
		payload, coding = comp, idxFlate
	}
	blob := make([]byte, 0, len(payload)+varint.MaxLen64+1)
	blob = append(blob, coding)
	blob = varint.AppendUint(blob, uint64(len(raw)))
	return append(blob, payload...)
}

// ReadIndex parses the trailing class index of an in-memory version-3
// archive. Failures caused by the bytes are *corrupt.Error values;
// resource-cap violations (an index claiming a decoded size beyond
// MaxDecodedBytes, or more classes than MaxClassCount) additionally
// wrap corrupt.ErrTooLarge.
func ReadIndex(data []byte, o UnpackOpts) (*Index, error) {
	if _, err := header(data); err != nil {
		return nil, err
	}
	if data[4] != Version3 {
		return nil, corrupt.Errorf(sHeader, 4, "version %d archive has no class index", data[4])
	}
	return ReadIndexAt(bytes.NewReader(data), int64(len(data)), o)
}

// ReadIndexAt reads the class index of a version-3 archive through an
// io.ReaderAt without touching any chunk: one read for the fixed-width
// footer, one for the index blob. The caller is expected to have
// validated the 6-byte header (see ParseHeader). Short reads are
// reported as corruption — against a regular file they mean truncation.
func ReadIndexAt(r io.ReaderAt, size int64, o UnpackOpts) (*Index, error) {
	if size < 6+1+footerSize+4+2 {
		return nil, corrupt.Errorf(sFooter, size, "archive too short for a version-3 footer")
	}
	var foot [footerSize]byte
	if _, err := r.ReadAt(foot[:], size-footerSize); err != nil {
		return nil, corrupt.Errorf(sFooter, size-footerSize, "reading footer: %v", err)
	}
	if !bytes.Equal(foot[8:12], indexMagic[:]) {
		return nil, corrupt.Errorf(sFooter, size-4, "bad footer magic %q", foot[8:12])
	}
	blobLen := binary.BigEndian.Uint64(foot[:8])
	// The blob sits between the header + at least one sentinel byte and
	// its own CRC + footer.
	if blobLen < 2 || blobLen > uint64(size-footerSize-4-7) {
		return nil, corrupt.Errorf(sFooter, size-footerSize, "implausible index length %d for %d-byte archive", blobLen, size)
	}
	if err := CheckBuffered(int64(blobLen), EffectiveBudget(o), sFooter, size-footerSize); err != nil {
		return nil, err
	}
	blobOff := size - footerSize - 4 - int64(blobLen)
	buf := make([]byte, blobLen+4)
	if _, err := r.ReadAt(buf, blobOff); err != nil {
		return nil, corrupt.Errorf(sIndex, blobOff, "reading index: %v", err)
	}
	blob := buf[:blobLen]
	if got, want := crc32.Checksum(blob, v3CRC), binary.BigEndian.Uint32(buf[blobLen:]); got != want {
		return nil, corrupt.Errorf(sIndex, blobOff, "index checksum %08x, want %08x", got, want)
	}
	raw, err := decodeIndexBlob(blob, o)
	if err != nil {
		return nil, err
	}
	ix, err := parseIndexRaw(raw, blobOff-1, o)
	if err != nil {
		return nil, err
	}
	ix.blobOff = blobOff
	return ix, nil
}

// decodeIndexBlob undoes the blob framing: coding byte, declared raw
// length (charged against MaxDecodedBytes before inflation), payload.
func decodeIndexBlob(blob []byte, o UnpackOpts) ([]byte, error) {
	coding := blob[0]
	rawLen, n, err := varint.Uint(blob[1:])
	if err != nil {
		return nil, corrupt.Errorf(sIndex, 1, "index raw length: %v", err)
	}
	payload := blob[1+n:]
	if rawLen > uint64(EffectiveBudget(o)) {
		return nil, corrupt.TooLarge(sIndex, 0,
			"index declares %d decoded bytes, budget %d", rawLen, EffectiveBudget(o))
	}
	switch coding {
	case idxStore:
		if uint64(len(payload)) != rawLen {
			return nil, corrupt.Errorf(sIndex, 0, "stored index is %d bytes, declared %d", len(payload), rawLen)
		}
		return payload, nil
	case idxFlate:
		raw, err := archive.InflateLimit(payload, int64(rawLen))
		if err != nil {
			return nil, corrupt.Errorf(sIndex, 0, "inflate index: %v", err)
		}
		if uint64(len(raw)) != rawLen {
			return nil, corrupt.Errorf(sIndex, 0, "index inflated to %d bytes, declared %d", len(raw), rawLen)
		}
		return raw, nil
	}
	return nil, corrupt.Errorf(sIndex, 0, "unknown index coding %d", coding)
}

// parseIndexRaw parses the decompressed index. chunkLimit is the last
// byte position a chunk body may occupy (the byte before the index
// blob); every declared range is validated against it before use.
func parseIndexRaw(raw []byte, chunkLimit int64, o UnpackOpts) (*Index, error) {
	pos := 0
	next := func(what string) (uint64, error) {
		v, n, err := varint.Uint(raw[pos:])
		if err != nil {
			return 0, corrupt.Errorf(sIndex, int64(pos), "%s: %v", what, err)
		}
		pos += n
		return v, nil
	}
	chunkClasses, err := next("chunk size")
	if err != nil {
		return nil, err
	}
	if chunkClasses > math.MaxInt32 {
		return nil, corrupt.Errorf(sIndex, int64(pos), "implausible chunk size %d", chunkClasses)
	}
	numChunks, err := next("chunk count")
	if err != nil {
		return nil, err
	}
	// Every chunk entry takes at least 3 varint bytes, so a larger count
	// is a lie; the bound also keeps the preallocation proportional to
	// real input.
	if numChunks > uint64(len(raw)-pos)/3+1 {
		return nil, corrupt.Errorf(sIndex, int64(pos),
			"implausible chunk count %d for %d index bytes", numChunks, len(raw))
	}
	maxClasses := EffectiveMaxClasses(o)
	ix := &Index{ChunkClasses: int(chunkClasses), Chunks: make([]ChunkInfo, 0, numChunks)}
	minOff := int64(7) // header plus at least one length-prefix byte
	totalClasses := 0
	for i := uint64(0); i < numChunks; i++ {
		off, err := next("chunk offset")
		if err != nil {
			return nil, err
		}
		length, err := next("chunk length")
		if err != nil {
			return nil, err
		}
		count, err := next("chunk class count")
		if err != nil {
			return nil, err
		}
		if off < uint64(minOff) || off > uint64(chunkLimit) || length > uint64(chunkLimit)-off {
			return nil, corrupt.Errorf(sIndex, int64(pos),
				"chunk %d range [%d,+%d) outside [%d,%d)", i, off, length, minOff, chunkLimit)
		}
		if count == 0 || count > uint64(maxClasses-totalClasses) {
			return nil, corrupt.TooLarge(sIndex, int64(pos),
				"chunk %d class count %d exceeds remaining cap %d", i, count, maxClasses-totalClasses)
		}
		totalClasses += int(count)
		ix.Chunks = append(ix.Chunks, ChunkInfo{Off: int64(off), Len: int64(length), Classes: int(count)})
		minOff = int64(off) + int64(length) + 1 // plus the next length prefix
	}
	numNames, err := next("class count")
	if err != nil {
		return nil, err
	}
	if numNames != uint64(totalClasses) {
		return nil, corrupt.Errorf(sIndex, int64(pos),
			"index lists %d names for %d chunked classes", numNames, totalClasses)
	}
	// Each name entry takes at least its 1-byte length prefix.
	if numNames > uint64(len(raw)-pos) {
		return nil, corrupt.Errorf(sIndex, int64(pos),
			"implausible name count %d for %d index bytes", numNames, len(raw)-pos)
	}
	ix.Names = make([]string, 0, numNames)
	for i := uint64(0); i < numNames; i++ {
		nameLen, err := next("name length")
		if err != nil {
			return nil, err
		}
		if nameLen > uint64(len(raw)-pos) {
			return nil, corrupt.Errorf(sIndex, int64(pos), "truncated name %d", i)
		}
		ix.Names = append(ix.Names, string(raw[pos:pos+int(nameLen)]))
		pos += int(nameLen)
	}
	if pos != len(raw) {
		return nil, corrupt.Errorf(sIndex, int64(pos), "%d trailing index bytes", len(raw)-pos)
	}
	ix.finalize()
	return ix, nil
}

// DecodeChunk decodes one container body — a version-3 chunk, or the
// whole body of a version-1/2 archive — invoking visit with each class
// it builds and its ordinal within the body. need selects the ordinals
// to build: need[i] for ordinal i, none past its end; a nil need builds
// every class. A class that is not built is still read off the wire,
// since the reference models are sequential, and still counts against
// MaxDecodedBytes and MaxClassCount; only its build and its visit are
// skipped. checked selects the container layout (true for every
// version-3 chunk and version-2 body). It returns the decoded
// wire-stream bytes the body expanded to, which is what MaxDecodedBytes
// budgets; callers decoding several chunks charge a shared budget by
// shrinking o.MaxDecodedBytes as they go.
func DecodeChunk(opts Options, body []byte, checked bool, o UnpackOpts, need []bool, visit func(ord int, cf *classfile.ClassFile) error) (int64, error) {
	var r *streams.Reader
	var err error
	if checked {
		r, err = streams.NewCheckedReaderLimit(body, o.Concurrency, o.MaxDecodedBytes)
	} else {
		r, err = streams.NewReaderLimit(body, o.Concurrency, o.MaxDecodedBytes)
	}
	if err != nil {
		return 0, err
	}
	_, err = newUnpacker(opts, r).decodeClasses(o, need, visit)
	return r.DecodedBytes(), err
}

// chunkWalker reads the version-3 chunk framing, uvarint(len) ‖ body
// repeated until uvarint(0). It reads either an in-memory archive, whose
// bodies are sub-slices so nothing is copied, or a stream, whose bodies
// are read one at a time. Its two policies are unpackChunks (strict) and
// salvageChunks.
type chunkWalker struct {
	data []byte        // the whole archive; unused when br is set
	br   *bufio.Reader // the stream after the header, or nil
	pos  int64         // absolute offset of the next unread byte
}

// ReadByte reads one framing byte from either source and advances pos,
// so varint.ReadUint can parse the length prefixes.
func (w *chunkWalker) ReadByte() (byte, error) {
	if w.br != nil {
		c, err := w.br.ReadByte()
		if err == nil {
			w.pos++
		}
		return c, err
	}
	if w.pos >= int64(len(w.data)) {
		return 0, io.EOF
	}
	c := w.data[w.pos]
	w.pos++
	return c, nil
}

// walk reads the chunks in archive order and hands each to decode with
// its ordinal, its absolute body offset, and o narrowed to what the
// chunks before it left of the MaxDecodedBytes budget and the
// MaxClassCount cap. decode reports the decoded bytes and classes to
// charge. walk returns nil after the end-of-chunks sentinel, with pos at
// the first byte of the tail; a *corrupt.Error at a framing fault or an
// exhausted limit; and decode's first error as it is.
func (w *chunkWalker) walk(o UnpackOpts, decode func(ci int, off int64, body []byte, co UnpackOpts) (int64, int, error)) error {
	budget, classes := EffectiveBudget(o), EffectiveMaxClasses(o)
	for ci := 0; ; ci++ {
		at := w.pos
		n, err := varint.ReadUint(w)
		if err != nil {
			return corrupt.Errorf(sChunks, at, "chunk %d length: %v", ci, err)
		}
		if n == 0 {
			return nil
		}
		off := w.pos
		var body []byte
		if w.br == nil {
			if n > uint64(len(w.data))-uint64(off) {
				return corrupt.Errorf(sChunks, off, "chunk %d body truncated", ci)
			}
			body = w.data[off : off+int64(n)]
		} else if body, err = ReadBounded(w.br, int64(min(n, math.MaxInt64)), budget, sChunks, off); err != nil {
			// A streamed body is buffered before it decodes, so its claimed
			// length is held to what the remaining budget can justify.
			return fmt.Errorf("core: chunk %d body: %w", ci, err)
		}
		w.pos += int64(n)
		if budget < 1 {
			return corrupt.TooLarge(sChunks, w.pos, "decoded budget exhausted before chunk %d", ci)
		}
		if classes < 1 {
			return corrupt.TooLarge(sChunks, w.pos, "class cap %d reached before chunk %d", EffectiveMaxClasses(o), ci)
		}
		co := o
		co.MaxDecodedBytes, co.MaxClassCount = budget, classes
		decoded, count, err := decode(ci, off, body, co)
		if err != nil {
			return err
		}
		budget -= decoded
		classes -= count
	}
}

// index reads the tail after the end-of-chunks sentinel and parses it
// with ReadIndexAt, requiring the index blob to start right there.
func (w *chunkWalker) index(o UnpackOpts) (*Index, error) {
	var tail []byte
	if w.br == nil {
		tail = w.data[w.pos:]
	} else {
		var err error
		if tail, err = ReadBounded(w.br, -1, EffectiveBudget(o), sIndex, w.pos); err != nil {
			return nil, err
		}
	}
	ix, err := ReadIndexAt(tailReader{tail, w.pos}, w.pos+int64(len(tail)), o)
	if err != nil {
		return nil, err
	}
	if ix.blobOff != w.pos {
		return nil, corrupt.Errorf(sChunks, w.pos, "%d stray bytes between chunks and index", ix.blobOff-w.pos)
	}
	return ix, nil
}

// tailReader serves an archive's tail at its absolute offsets, which
// start at base, so ReadIndexAt parses a walked tail as it would a file.
type tailReader struct {
	tail []byte
	base int64
}

func (t tailReader) ReadAt(p []byte, off int64) (int, error) {
	if off < t.base {
		return 0, corrupt.Errorf(sIndex, off, "index overlaps the chunks, which end at %d", t.base)
	}
	return bytes.NewReader(t.tail).ReadAt(p, off-t.base)
}

// unpackChunks is the walker's strict policy. Every chunk must decode
// through DecodeChunk; then the tail, parsed by ReadIndexAt, must list
// exactly the chunks walked — byte ranges, class counts and names — with
// no stray bytes before the index. visit sees each class as it decodes,
// before the index is checked.
func unpackChunks(w *chunkWalker, opts Options, o UnpackOpts, visit func(*classfile.ClassFile) error) error {
	var walked []ChunkInfo
	var names []string
	err := w.walk(o, func(ci int, off int64, body []byte, co UnpackOpts) (int64, int, error) {
		first := len(names)
		decoded, err := DecodeChunk(opts, body, true, co, nil, func(_ int, cf *classfile.ClassFile) error {
			names = append(names, cf.ThisClassName())
			return visit(cf)
		})
		if err != nil {
			return 0, 0, fmt.Errorf("core: unpack chunk %d: %w", ci, err)
		}
		walked = append(walked, ChunkInfo{Off: off, Len: int64(len(body)), Classes: len(names) - first})
		return decoded, len(names) - first, nil
	})
	if err != nil {
		return err
	}
	ix, err := w.index(o)
	if err != nil {
		return err
	}
	if len(ix.Chunks) != len(walked) {
		return corrupt.Errorf(sIndex, -1, "index lists %d chunks, archive holds %d", len(ix.Chunks), len(walked))
	}
	for ci, ch := range walked {
		if got := ix.Chunks[ci]; got.Off != ch.Off || got.Len != ch.Len {
			return corrupt.Errorf(sIndex, -1,
				"index places chunk %d at [%d,+%d), framing says [%d,+%d)", ci, got.Off, got.Len, ch.Off, ch.Len)
		}
		first := ix.Start(ci)
		if err := ix.CheckChunk(ci, ch.Classes, func(i int) string { return names[first+i] }); err != nil {
			return err
		}
	}
	return nil
}

// CheckFraming walks the chunk framing of data, the in-memory version-3
// archive whose index ReadIndex or ReadIndexAt parsed as ix, and decodes
// nothing. It reports, as a corrupt error on the chunk framing, a length
// prefix, gap or end-of-chunks sentinel that ix does not account for:
// the walk must find exactly ix's chunks, at ix's byte ranges, and then
// the sentinel right before the index blob.
func (ix *Index) CheckFraming(data []byte) error {
	w := &chunkWalker{data: data, pos: 6}
	walked := 0
	err := w.walk(UnpackOpts{}, func(ci int, off int64, body []byte, _ UnpackOpts) (int64, int, error) {
		if ci >= len(ix.Chunks) {
			return 0, 0, corrupt.Errorf(sChunks, off, "framing holds chunk %d, index lists %d chunks", ci, len(ix.Chunks))
		}
		if ch := ix.Chunks[ci]; ch.Off != off || ch.Len != int64(len(body)) {
			return 0, 0, corrupt.Errorf(sChunks, off,
				"framing places chunk %d at [%d,+%d), index says [%d,+%d)", ci, off, len(body), ch.Off, ch.Len)
		}
		walked++
		return 0, 0, nil
	})
	if err != nil {
		return err
	}
	if walked != len(ix.Chunks) {
		return corrupt.Errorf(sChunks, w.pos, "framing ends after %d chunks, index lists %d", walked, len(ix.Chunks))
	}
	if w.pos != ix.blobOff {
		return corrupt.Errorf(sChunks, w.pos, "framing ends at %d, index starts at %d", w.pos, ix.blobOff)
	}
	return nil
}

// UnpackReader decodes an archive from a plain io.Reader, invoking
// visit as each class completes. A version-3 archive goes through the
// same strict chunk walk as an in-memory one, holding one chunk in
// memory at a time; version-1/2 archives have no internal framing, so
// they are buffered whole and decoded in place. Failures caused by the
// archive bytes are *corrupt.Error values; I/O failures of r surface as
// corruption too, since a short read from an archive source is
// indistinguishable from truncation.
func UnpackReader(r io.Reader, o UnpackOpts, visit func(*classfile.ClassFile) error) error {
	br := bufio.NewReader(r)
	var hdr [6]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return corrupt.Errorf(sHeader, 0, "reading archive header: %v", err)
	}
	opts, err := header(hdr[:])
	if err != nil {
		return err
	}
	if hdr[4] != Version3 {
		data, err := ReadBounded(io.MultiReader(bytes.NewReader(hdr[:]), br), -1, EffectiveBudget(o), sContainer, 0)
		if err != nil {
			return err
		}
		return UnpackStreamOpts(data, o, visit)
	}
	return unpackChunks(&chunkWalker{br: br, pos: 6}, opts, o, visit)
}

// CheckBuffered reports a length n that a reader would have to buffer
// before decoding, past the decode budget plus bodySlack, as a
// *corrupt.Error at stream and off that wraps ErrTooLarge.
func CheckBuffered(n, budget int64, stream string, off int64) error {
	if n-bodySlack > budget {
		return corrupt.TooLarge(stream, off, "%d bytes to buffer against a decode budget of %d", n, budget)
	}
	return nil
}

// ReadBounded reads n bytes from r, or all of r when n is negative,
// without buffering more than CheckBuffered allows: a declared n fails
// it before anything is read, an undeclared read fails it as soon as
// one byte too many arrives, and the buffer grows with the bytes that
// arrive, never with a declared length. Failures are *corrupt.Error
// values at stream and off; a short or failed read is one too, since a
// source that ends early is indistinguishable from a truncated archive.
func ReadBounded(r io.Reader, n, budget int64, stream string, off int64) ([]byte, error) {
	if err := CheckBuffered(n, budget, stream, off); err != nil {
		return nil, err
	}
	want := n
	if n < 0 {
		want = budget + min(bodySlack+1, math.MaxInt64-budget)
	}
	var buf bytes.Buffer
	got, err := buf.ReadFrom(io.LimitReader(r, want))
	if err != nil {
		return nil, corrupt.Errorf(stream, off+got, "reading: %v", err)
	}
	if got < n {
		return nil, corrupt.Errorf(stream, off+got, "%d of %d bytes: %v", got, n, io.ErrUnexpectedEOF)
	}
	if err := CheckBuffered(got, budget, stream, off); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
