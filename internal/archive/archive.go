// Package archive implements the baseline container formats the paper
// compares against (§2): jar files (zip archives with per-file DEFLATE
// compression), uncompressed "j0r" archives (zip with stored entries), and
// j0r.gz archives (a stored zip compressed with gzip as a whole, §2.1).
// Output is deterministic: entries carry no timestamps.
package archive

import (
	"archive/zip"
	"bytes"
	"compress/flate"
	"compress/gzip"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"sync"
	"unicode/utf8"

	"classpack/internal/par"
)

// File is one archive member.
type File struct {
	Name string
	Data []byte
}

// Constructing a flate.Writer allocates its full match-finder state
// (hundreds of KB) and dominates the allocation profile on small
// corpora, so writers, readers, and scratch buffers are pooled and
// Reset between uses. All pooled writers use BestCompression — the only
// level this package compresses at — so a recycled writer always
// behaves identically to a fresh one.
var (
	flateWriterPool sync.Pool // *flate.Writer at BestCompression
	flateReaderPool sync.Pool // flateReader
	gzipWriterPool  sync.Pool // *gzip.Writer at BestCompression
	bufferPool      sync.Pool // *bytes.Buffer
)

// flateReader is what flate.NewReader actually returns: a ReadCloser
// that can be Reset onto a new source.
type flateReader interface {
	io.ReadCloser
	flate.Resetter
}

func getFlateWriter(w io.Writer) *flate.Writer {
	if fw, ok := flateWriterPool.Get().(*flate.Writer); ok {
		fw.Reset(w)
		return fw
	}
	fw, err := flate.NewWriter(w, flate.BestCompression)
	if err != nil {
		panic(err) // BestCompression is a valid level
	}
	return fw
}

func putFlateWriter(fw *flate.Writer) { flateWriterPool.Put(fw) }

func getFlateReader(data []byte) flateReader {
	src := bytes.NewReader(data)
	if fr, ok := flateReaderPool.Get().(flateReader); ok {
		if fr.Reset(src, nil) == nil {
			return fr
		}
	}
	return flate.NewReader(src).(flateReader)
}

func putFlateReader(fr flateReader) { flateReaderPool.Put(fr) }

func getBuffer() *bytes.Buffer {
	if b, ok := bufferPool.Get().(*bytes.Buffer); ok {
		b.Reset()
		return b
	}
	return new(bytes.Buffer)
}

// maxPooledBuffer bounds retained scratch capacity so one huge archive
// does not pin its buffer for the life of the process.
const maxPooledBuffer = 4 << 20

func putBuffer(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuffer {
		bufferPool.Put(b)
	}
}

// Zip header fields as archive/zip's CreateHeader sets them; assemble
// sets them itself so that CreateRaw writes the same bytes.
const (
	zipVersion20    = 20    // creator and reader version
	zipDataDescFlag = 0x8   // sizes and CRC follow the body
	zipUTF8NameFlag = 0x800 // the name is UTF-8, not CP-437
)

// Body is one zip member's finished body: the member's data as the zip
// stores it, and the CRC-32 of the data it stands for. A made Body's
// Data is never nil.
type Body struct {
	Data []byte
	CRC  uint32
}

// DeflateBody makes data's jar member body: raw DEFLATE at
// BestCompression through the pooled writers, matching the paper's gzip
// usage, as WriteJar compresses every member.
func DeflateBody(data []byte) (Body, error) {
	z, err := Flate(data)
	if err != nil {
		return Body{}, err
	}
	return Body{Data: z, CRC: crc32.ChecksumIEEE(data)}, nil
}

// writeZip builds a zip of files with every member at method (Store or
// Deflate). The member bodies are independent, so they are made on up
// to concurrency workers (0 = all cores, 1 = inline on the calling
// goroutine), and then assembled in input order, so the bytes are the
// same for every concurrency.
func writeZip(files []File, method uint16, concurrency int) ([]byte, error) {
	bodies := make([]Body, len(files))
	err := par.Do(concurrency, len(files), func(i int) error {
		f := files[i]
		if method == zip.Store || isDir(f.Name) {
			bodies[i] = Body{Data: f.Data, CRC: crc32.ChecksumIEEE(f.Data)}
			return nil
		}
		var err error
		if bodies[i], err = DeflateBody(f.Data); err != nil {
			return fmt.Errorf("archive: %s: %w", f.Name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return assemble(files, bodies, method)
}

// AssembleJar builds a jar from members whose bodies are already made:
// bodies[i] is DeflateBody(files[i].Data), and of files only the names
// and data lengths are read. The bytes equal WriteJar(files)'s.
func AssembleJar(files []File, bodies []Body) ([]byte, error) {
	return assemble(files, bodies, zip.Deflate)
}

// assemble writes the zip of files with their finished bodies, in input
// order, with CreateRaw and the header fields CreateHeader would have
// set, so the bytes equal those of a CreateHeader-and-write loop. A
// directory entry is stored with no data descriptor and zero sizes, as
// CreateHeader stores it, and its body must be empty.
func assemble(files []File, bodies []Body, method uint16) ([]byte, error) {
	// Size the buffer once: each member takes a local header (30 bytes),
	// a data descriptor (16) and a central directory entry (46) beside
	// its name twice and its body, and the end record takes 22.
	size := 22
	for i, f := range files {
		size += 92 + 2*len(f.Name) + len(bodies[i].Data)
	}
	var out bytes.Buffer
	out.Grow(size)
	zw := zip.NewWriter(&out)
	for i, f := range files {
		fh := &zip.FileHeader{
			Name:           f.Name,
			Method:         method,
			CreatorVersion: zipVersion20,
			ReaderVersion:  zipVersion20,
		}
		if needsUTF8Flag(f.Name) {
			fh.Flags |= zipUTF8NameFlag
		}
		if isDir(f.Name) {
			// CreateRaw's writer for a directory rejects any body.
			fh.Method = zip.Store
		} else {
			fh.Flags |= zipDataDescFlag
			fh.CRC32 = bodies[i].CRC
			fh.CompressedSize64 = uint64(len(bodies[i].Data))
			fh.UncompressedSize64 = uint64(len(f.Data))
		}
		w, err := zw.CreateRaw(fh)
		if err != nil {
			return nil, fmt.Errorf("archive: %s: %w", f.Name, err)
		}
		if _, err := w.Write(bodies[i].Data); err != nil {
			return nil, fmt.Errorf("archive: %s: %w", f.Name, err)
		}
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// isDir reports whether a member name denotes a directory entry.
func isDir(name string) bool { return strings.HasSuffix(name, "/") }

// needsUTF8Flag reports whether CreateHeader would set the UTF-8 flag
// for name: it does when name is valid UTF-8 and holds a rune outside
// the range that CP-437 and the common local encodings agree on.
func needsUTF8Flag(name string) bool {
	require := false
	for i := 0; i < len(name); {
		r, size := utf8.DecodeRuneInString(name[i:])
		i += size
		if r < 0x20 || r > 0x7d || r == 0x5c {
			if !utf8.ValidRune(r) || (r == utf8.RuneError && size == 1) {
				return false
			}
			require = true
		}
	}
	return require
}

// WriteJar builds a jar (zip, per-file DEFLATE), compressing members on
// all cores. It is WriteJarN with concurrency 0.
func WriteJar(files []File) ([]byte, error) { return WriteJarN(files, 0) }

// WriteJarN builds a jar, DEFLATE-compressing its members on up to
// concurrency workers (0 = all cores, 1 = serial on the calling
// goroutine). The jar bytes are identical for every concurrency.
func WriteJarN(files []File, concurrency int) ([]byte, error) {
	return writeZip(files, zip.Deflate, concurrency)
}

// WriteStored builds a "j0r": a jar whose entries are stored uncompressed.
func WriteStored(files []File) ([]byte, error) { return writeZip(files, zip.Store, 1) }

// GzipWhole compresses data as one gzip stream at maximum compression.
func GzipWhole(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	gw, ok := gzipWriterPool.Get().(*gzip.Writer)
	if ok {
		gw.Reset(&buf)
	} else {
		var err error
		if gw, err = gzip.NewWriterLevel(&buf, gzip.BestCompression); err != nil {
			//classpack:vet-allow poolbalance Get missed (fresh pool); there is no writer to return on this path
			return nil, err
		}
	}
	_, werr := gw.Write(data)
	cerr := gw.Close()
	gzipWriterPool.Put(gw)
	if werr != nil {
		return nil, werr
	}
	if cerr != nil {
		return nil, cerr
	}
	return buf.Bytes(), nil
}

// GunzipWhole decompresses a single gzip stream.
func GunzipWhole(data []byte) ([]byte, error) {
	gr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	defer gr.Close()
	return io.ReadAll(gr)
}

// WriteJ0rGz builds a j0r.gz: individual files stored uncompressed in a
// jar, the jar gzip'd as a whole (§2.1).
func WriteJ0rGz(files []File) ([]byte, error) {
	stored, err := WriteStored(files)
	if err != nil {
		return nil, err
	}
	return GzipWhole(stored)
}

// ReadJar lists the members of a jar or j0r produced by this package (or
// any zip archive).
func ReadJar(data []byte) ([]File, error) {
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	var out []File
	for _, zf := range zr.File {
		r, err := zf.Open()
		if err != nil {
			return nil, fmt.Errorf("archive: %s: %w", zf.Name, err)
		}
		payload, err := io.ReadAll(r)
		r.Close()
		if err != nil {
			return nil, fmt.Errorf("archive: %s: %w", zf.Name, err)
		}
		out = append(out, File{Name: zf.Name, Data: payload})
	}
	return out, nil
}

// ReadJ0rGz is the inverse of WriteJ0rGz.
func ReadJ0rGz(data []byte) ([]File, error) {
	stored, err := GunzipWhole(data)
	if err != nil {
		return nil, err
	}
	return ReadJar(stored)
}

// countWriter discards its input, keeping only the byte count.
type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

// FlateSize returns the DEFLATE-compressed size of data at maximum
// compression, without gzip framing — the measurement the paper uses when
// it reports zlib sizes excluding header bytes. The compressed bytes are
// counted, never materialized.
func FlateSize(data []byte) int {
	var n countWriter
	fw := getFlateWriter(&n)
	_, werr := fw.Write(data)
	cerr := fw.Close()
	putFlateWriter(fw)
	if werr != nil || cerr != nil {
		return 0
	}
	return int(n)
}

// Flate compresses data with raw DEFLATE at maximum compression.
func Flate(data []byte) ([]byte, error) {
	d := NewDeflater()
	if _, err := d.Write(data); err != nil {
		d.Close()
		return nil, err
	}
	return d.Close()
}

// Deflater is Flate fed in pieces. compress/flate codes a position only
// once it holds that position's full lookahead (the longest match), or
// on Close, so its output depends on the bytes written and not on how
// the writes split them: Close returns exactly Flate of everything
// written. A Deflater holds a pooled writer and buffer until Close.
type Deflater struct {
	fw  *flate.Writer
	buf *bytes.Buffer
}

// NewDeflater starts a raw DEFLATE stream at maximum compression.
func NewDeflater() *Deflater {
	buf := getBuffer()
	return &Deflater{fw: getFlateWriter(buf), buf: buf}
}

// Write appends p to the stream.
func (d *Deflater) Write(p []byte) (int, error) { return d.fw.Write(p) }

// Close ends the stream, returns the writer and buffer to their pools,
// and returns the compressed bytes.
func (d *Deflater) Close() ([]byte, error) {
	err := d.fw.Close()
	putFlateWriter(d.fw)
	var out []byte
	if err == nil {
		out = make([]byte, d.buf.Len())
		copy(out, d.buf.Bytes())
	}
	putBuffer(d.buf)
	d.fw, d.buf = nil, nil
	return out, err
}

// Inflate decompresses raw DEFLATE data.
func Inflate(data []byte) ([]byte, error) {
	fr := getFlateReader(data)
	buf := getBuffer()
	defer putBuffer(buf)
	if _, err := buf.ReadFrom(fr); err != nil {
		// A reader that saw corrupt input is dropped, not recycled.
		fr.Close()
		//classpack:vet-allow poolbalance a reader that saw corrupt input is dropped, not recycled
		return nil, err
	}
	if err := fr.Close(); err != nil {
		//classpack:vet-allow poolbalance a reader whose Close failed is dropped, not recycled
		return nil, err
	}
	putFlateReader(fr)
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out, nil
}

// ErrInflateTooLarge reports a DEFLATE stream that decompressed past the
// caller's cap; inflation stops at the cap rather than materializing the
// rest, which is the bomb guard for length-prefixed formats whose
// declared sizes cannot be trusted.
var ErrInflateTooLarge = errors.New("archive: inflated data exceeds limit")

// InflateLimit decompresses raw DEFLATE data, failing with
// ErrInflateTooLarge as soon as the output would exceed max bytes. At
// most max+1 bytes are ever buffered, regardless of how much the stream
// claims to expand to.
func InflateLimit(data []byte, max int64) ([]byte, error) {
	if max < 0 {
		max = 0
	}
	fr := getFlateReader(data)
	buf := getBuffer()
	defer putBuffer(buf)
	// Read one byte past the cap: hitting it proves the stream is too
	// large without inflating the remainder.
	n, err := buf.ReadFrom(io.LimitReader(fr, max+1))
	if err != nil {
		fr.Close()
		//classpack:vet-allow poolbalance a reader that saw corrupt input is dropped, not recycled
		return nil, err
	}
	if n > max {
		fr.Close()
		//classpack:vet-allow poolbalance a reader mid-stream at the cap is dropped, not recycled
		return nil, ErrInflateTooLarge
	}
	if err := fr.Close(); err != nil {
		//classpack:vet-allow poolbalance a reader whose Close failed is dropped, not recycled
		return nil, err
	}
	putFlateReader(fr)
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out, nil
}
