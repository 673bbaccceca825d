// Package streams implements the multi-stream container of the wire
// format: dissimilar data (opcodes, registers, references, string
// characters, ...) is separated into named byte streams that are coded
// independently (§4, §7), following the stream separation idea of Ernst
// et al. that the paper builds on.
//
// Each stream picks its own coding, as §14 suggests ("the compression
// stage could try several encoding methods of each kind of data, and
// select the one that happens to work best ... the encoded data would
// include a description of the encoding mechanism"): DEFLATE, an adaptive
// arithmetic coder, or raw storage — whichever is smallest — with a flag
// byte recording the choice.
//
// The reader side treats the container as hostile input: every declared
// length is validated against the bytes actually present, the total
// decoded size is charged against a caller-supplied budget before any
// allocation, and stream inflation is capped incrementally so a small
// archive claiming a huge payload fails fast instead of exhausting
// memory. Failures are reported as *corrupt.Error values naming the
// stream and offset.
//
// Two container layouts exist. The original ("plain") layout carries no
// integrity data. The checked layout — produced by FinishChecked and read
// by NewCheckedReaderLimit — follows every stream's encoded payload with
// a CRC32C (Castagnoli) of those payload bytes and ends the container
// with a trailer CRC32C over everything that precedes it, so corruption
// is detected before decoding and localized to one stream.
//
// One reader parses both layouts: NewSalvageReader records every piece
// of damage it finds and quarantines the damaged streams instead of
// failing the whole container. The strict constructors, NewReaderLimit
// and NewCheckedReaderLimit, fail with the first damage it records.
package streams

import (
	"bytes"
	"hash/crc32"
	"math"
	"sort"

	"classpack/internal/archive"
	"classpack/internal/corrupt"
	"classpack/internal/encoding/arith"
	"classpack/internal/encoding/varint"
	"classpack/internal/par"
)

// castagnoli is the CRC32C table shared by writer and readers.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcSize is the width of each checksum in the checked layout.
const crcSize = 4

// appendCRC appends a big-endian CRC32C.
func appendCRC(out []byte, c uint32) []byte {
	return append(out, byte(c>>24), byte(c>>16), byte(c>>8), byte(c))
}

// readCRC decodes a big-endian CRC32C.
func readCRC(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// Stream coding identifiers (the per-stream flag byte).
const (
	codingFlate byte = 0
	codingStore byte = 1
	codingArith byte = 2
)

// DefaultMaxDecodedBytes is the decoded-size budget the readers enforce
// when the caller does not choose one: the sum of all streams' decoded
// bytes may not exceed it.
const DefaultMaxDecodedBytes = int64(1) << 30

// Writer accumulates named streams and serializes them into a container.
//
// A stream that grows past arithTrialLimit can only be coded as DEFLATE
// or stored, and the writer only ever appends to it, so the Writer
// starts its DEFLATE at once and feeds it each deflateBlock as the block
// fills. When the Writer's concurrency allows more than one worker, one
// background goroutine (the coder) runs these DEFLATEs beside the code
// that writes the streams; otherwise they run inline. Finish,
// FinishChecked and Sizes hand the coder the tails and wait for it.
// A Writer that will not be finished must be closed, to stop its coder.
type Writer struct {
	streams     map[string]*Stream
	order       []string
	compress    bool
	concurrency int
	background  bool          // large streams deflate on the coder
	jobs        chan<- block  // the coder's queue; nil while no coder runs
	done        chan struct{} // closed when the coder exits
}

// NewWriter returns an empty container writer. compress selects §14's
// trial coding (false stores every stream raw), and concurrency bounds
// the workers that code the streams (<= 0 meaning all cores). The
// container is byte-identical for every concurrency value.
func NewWriter(compress bool, concurrency int) *Writer {
	return &Writer{
		streams:     make(map[string]*Stream),
		compress:    compress,
		concurrency: concurrency,
		background:  par.Workers(concurrency, 2) > 1,
	}
}

// Stream returns the named stream, creating it on first use.
func (w *Writer) Stream(name string) *Stream {
	s, ok := w.streams[name]
	if !ok {
		s = &Stream{w: w, next: math.MaxInt}
		if w.compress {
			s.next = arithTrialLimit + 1
		}
		w.streams[name] = s
		w.order = append(w.order, name)
	}
	return s
}

// arithTrialLimit bounds the streams offered to the arithmetic coder:
// above this size DEFLATE's pattern matching essentially always wins, so
// trying (and decoding) the much slower coder buys nothing. The decoder
// enforces the same bound, so an archive claiming a huge
// arithmetic-coded stream is rejected outright.
const arithTrialLimit = 1 << 16

// deflateBlock is the size of the copied blocks a large stream's DEFLATE
// is fed while the stream is still being written.
const deflateBlock = 64 << 10

// coderQueue bounds the blocks waiting for the coder. A writer that gets
// that far ahead waits for it, so at most coderQueue copies (4 MiB) are
// held. The largest stream of the reference corpora, tools' 499 KB of
// string characters, is 8 blocks, so their walks never wait.
const coderQueue = 64

// encodeStream picks the smallest coding for a stream's raw bytes.
func encodeStream(raw []byte, compress bool) (byte, []byte) {
	if !compress || len(raw) == 0 {
		return codingStore, raw
	}
	comp, err := archive.Flate(raw)
	return pickCoding(raw, comp, err)
}

// pickCoding chooses among raw storage, comp (raw's DEFLATE, unless err
// is set) and, for a stream within arithTrialLimit, the arithmetic
// coder: whichever is smallest, earlier on ties.
func pickCoding(raw, comp []byte, err error) (byte, []byte) {
	payload, coding := raw, codingStore
	if err == nil && len(comp) < len(payload) {
		payload, coding = comp, codingFlate
	}
	if len(raw) <= arithTrialLimit {
		if coded := arith.Encode(raw); len(coded) < len(payload) {
			payload, coding = coded, codingArith
		}
	}
	return coding, payload
}

// Finish serializes all streams in the plain (unchecked) layout,
// choosing each stream's coding per §14. The container is assembled in
// sorted name order after all codings are chosen, so it is
// byte-identical for every concurrency value. Finish, FinishChecked and
// Sizes may each be called again, but no stream may be written after
// the first of them.
func (w *Writer) Finish() ([]byte, error) {
	return w.finish(false)
}

// FinishChecked serializes all streams in the checked layout: each
// stream's directory entry is followed by a CRC32C of its encoded
// payload, and the container ends with a trailer CRC32C over every byte
// that precedes it. Like Finish, the output is byte-identical for every
// concurrency value.
func (w *Writer) FinishChecked() ([]byte, error) {
	return w.finish(true)
}

func (w *Writer) finish(checked bool) ([]byte, error) {
	names, encs := w.code()
	var out []byte
	out = varint.AppendUint(out, uint64(len(names)))
	for i, name := range names {
		raw := w.streams[name].buf.Bytes()
		out = varint.AppendUint(out, uint64(len(name)))
		out = append(out, name...)
		out = varint.AppendUint(out, uint64(len(raw)))
		out = append(out, encs[i].coding)
		out = varint.AppendUint(out, uint64(len(encs[i].payload)))
		out = append(out, encs[i].payload...)
		if checked {
			out = appendCRC(out, crc32.Checksum(encs[i].payload, castagnoli))
		}
	}
	if checked {
		out = appendCRC(out, crc32.Checksum(out, castagnoli))
	}
	return out, nil
}

// coded is one stream's chosen coding and payload.
type coded struct {
	coding  byte
	payload []byte
}

// code chooses every stream's coding. It returns the stream names in
// container order, which is sorted, and their codings in the same order.
// The large streams' tails go to their DEFLATEs first; the other streams
// are trial-coded on up to concurrency workers meanwhile. Workers take
// the longest raw stream first, ties by name: the costliest codings
// start first, so at the end no worker sits idle while another codes one
// large stream.
func (w *Writer) code() ([]string, []coded) {
	names := append([]string(nil), w.order...)
	sort.Strings(names)
	var small []int
	for i, name := range names {
		switch s := w.streams[name]; {
		case s.deflater == nil:
			small = append(small, i)
		case !s.sealed:
			s.deflate(s.buf.Bytes()[s.fed:], true)
		}
	}
	w.stopCoder(false)
	sort.SliceStable(small, func(a, b int) bool {
		return w.streams[names[small[a]]].Len() > w.streams[names[small[b]]].Len()
	})
	encs := make([]coded, len(names))
	_ = par.Do(w.concurrency, len(small), func(k int) error {
		i := small[k]
		coding, payload := encodeStream(w.streams[names[i]].buf.Bytes(), w.compress)
		encs[i] = coded{coding, payload}
		return nil
	})
	w.stopCoder(true)
	for i, name := range names {
		if s := w.streams[name]; s.sealed {
			coding, payload := pickCoding(s.buf.Bytes(), s.comp, s.compErr)
			encs[i] = coded{coding, payload}
		}
	}
	return names, encs
}

// Sizes reports per-stream raw and encoded sizes as they would
// serialize, coding as Finish does.
func (w *Writer) Sizes() map[string][2]int {
	names, encs := w.code()
	out := make(map[string][2]int, len(names))
	for i, name := range names {
		out[name] = [2]int{w.streams[name].buf.Len(), len(encs[i].payload)}
	}
	return out
}

// Close stops the coder of a Writer that will not be finished, once it
// has coded the blocks already handed to it. After Finish,
// FinishChecked or Sizes it does nothing.
func (w *Writer) Close() { w.stopCoder(true) }

// block is one piece of a large stream's raw bytes for its DEFLATE;
// last marks the stream's tail.
type block struct {
	s    *Stream
	data []byte
	last bool
}

// startCoder starts a coder on a new queue. It first waits for any
// earlier coder to exit, so that one coder at most runs the DEFLATEs.
// The coder ranges over the queue it was started with: the Writer keeps
// only the queue's send side, and clears it when it closes the queue.
func (w *Writer) startCoder() {
	w.stopCoder(true)
	jobs, done := make(chan block, coderQueue), make(chan struct{})
	w.jobs, w.done = jobs, done
	go func() {
		defer close(done)
		for b := range jobs {
			b.s.code(b.data, b.last)
		}
	}()
}

// stopCoder ends the coder's queue, so the coder exits once it has coded
// every block handed to it, and with wait set waits for that. A later
// block starts a new coder.
func (w *Writer) stopCoder(wait bool) {
	if w.jobs != nil {
		close(w.jobs)
		w.jobs = nil
	}
	if wait && w.done != nil {
		<-w.done
		w.done = nil
	}
}

// Stream is one named byte stream. It implements varint.ByteWriter.
type Stream struct {
	buf  bytes.Buffer
	w    *Writer
	next int // buf.Len() at which spill runs next
	fed  int // raw bytes handed to the DEFLATE

	// A stream past arithTrialLimit has a deflater, which only the coder
	// touches once a block went to it. Handing over its tail seals the
	// stream; comp and compErr are the DEFLATE's result once the coder is
	// done.
	deflater *archive.Deflater
	sealed   bool
	comp     []byte
	compErr  error
}

// WriteByte appends one byte.
func (s *Stream) WriteByte(b byte) error {
	s.buf.WriteByte(b)
	s.grew()
	return nil
}

// Byte appends one byte; it cannot fail, so it returns no error.
func (s *Stream) Byte(b byte) { _ = s.WriteByte(b) }

// Write appends raw bytes.
func (s *Stream) Write(p []byte) (int, error) {
	n, _ := s.buf.Write(p)
	s.grew()
	return n, nil
}

// WriteString appends a string without an intermediate []byte copy.
func (s *Stream) WriteString(str string) (int, error) {
	n, _ := s.buf.WriteString(str)
	s.grew()
	return n, nil
}

// grew spills the stream once it reaches s.next bytes.
func (s *Stream) grew() {
	if s.buf.Len() >= s.next {
		s.spill()
	}
}

// spill feeds the stream's complete blocks to its DEFLATE, starting the
// DEFLATE the first time: the stream has then outgrown arithTrialLimit.
func (s *Stream) spill() {
	if s.deflater == nil {
		s.deflater = archive.NewDeflater()
	}
	for s.buf.Len()-s.fed >= deflateBlock {
		s.deflate(s.buf.Bytes()[s.fed:s.fed+deflateBlock], false)
	}
	s.next = s.fed + deflateBlock
}

// deflate hands data, the stream's next raw bytes, to its DEFLATE: inline,
// or on the coder. The coder gets a copy, because bytes.Buffer keeps the
// slices Bytes returns valid only until the next write. The tail (last)
// seals the stream.
func (s *Stream) deflate(data []byte, last bool) {
	s.fed += len(data)
	if last {
		s.sealed = true
	}
	w := s.w
	if !w.background {
		s.code(data, last)
		return
	}
	if w.jobs == nil {
		w.startCoder()
	}
	w.jobs <- block{s: s, data: append([]byte(nil), data...), last: last}
}

// code runs the stream's DEFLATE over data, and after the tail records
// its result.
func (s *Stream) code(data []byte, last bool) {
	_, _ = s.deflater.Write(data)
	if last {
		s.comp, s.compErr = s.deflater.Close()
	}
}

// Uint appends an unsigned varint.
func (s *Stream) Uint(v uint64) { _ = varint.WriteUint(s, v) }

// Int appends a zigzag varint.
func (s *Stream) Int(v int64) { _ = varint.WriteInt(s, v) }

// Len reports the stream's raw length.
func (s *Stream) Len() int { return s.buf.Len() }

// Reader reads a container produced by Writer.
type Reader struct {
	streams map[string]*RStream
	decoded int64
}

// DecodedBytes is the total decoded size of all streams the container
// materialized — what MaxDecodedBytes budgets. Callers decoding several
// containers against one shared budget (the version-3 chunk layout)
// subtract it after each container.
func (r *Reader) DecodedBytes() int64 { return r.decoded }

// entry is one stream's header fields and undecoded payload. payloadOff
// is the payload's byte offset within the container; quarantine is the
// damage that poisoned the stream (nil when intact).
type entry struct {
	name       string
	rawLen     uint64
	coding     byte
	payload    []byte
	payloadOff int64
	quarantine *corrupt.Error
}

// Names of container sections (as opposed to wire streams) in corrupt
// errors: the stream directory itself and the trailer checksum.
const (
	containerStream = "container"
	trailerStream   = "trailer"
)

// NewReaderLimit parses a plain (unchecked) container, walking the
// headers serially and then decoding the independent stream payloads on
// up to concurrency workers (<= 0 meaning all cores). The decoded
// streams are identical for every concurrency value.
//
// maxDecoded (<= 0 meaning DefaultMaxDecodedBytes) caps the sum of all
// streams' declared decoded sizes; the budget is charged while walking
// the directory — before any payload is inflated or allocated — and each
// stream's inflation is additionally capped at its declared size, so a
// bomb archive fails in O(header) work.
//
// It fails with the first damage NewSalvageReader would report.
func NewReaderLimit(data []byte, concurrency int, maxDecoded int64) (*Reader, error) {
	return firstDamage(NewSalvageReader(data, concurrency, maxDecoded, false))
}

// NewCheckedReaderLimit is NewReaderLimit for the checked layout: the
// container trailer CRC32C is verified first, then each stream's payload
// CRC32C while walking the directory. Any mismatch fails with a
// *corrupt.Error naming the damaged stream (or "trailer").
func NewCheckedReaderLimit(data []byte, concurrency int, maxDecoded int64) (*Reader, error) {
	return firstDamage(NewSalvageReader(data, concurrency, maxDecoded, true))
}

// firstDamage is the strict policy: a container with any damage fails
// with the first.
func firstDamage(r *Reader, damage []*corrupt.Error) (*Reader, error) {
	if len(damage) > 0 {
		return nil, damage[0]
	}
	return r, nil
}

// NewSalvageReader parses as much of a container as it can instead of
// failing on the first error. Damaged parts are quarantined: a stream
// whose checksum mismatches (checked layout) or whose payload fails to
// decode is still present in the Reader, but every read from it fails
// with the quarantining *corrupt.Error, so consumers discover the damage
// exactly where the stream is first needed.
//
// The returned damage list describes, in order: a trailer mismatch
// (checked layout), the streams whose checksum mismatches, the
// directory failure that ended the walk, and the streams whose payload
// fails to decode; each group is in container order. A trailer
// mismatch alone (with all per-stream checksums intact) quarantines
// nothing.
func NewSalvageReader(data []byte, concurrency int, maxDecoded int64, checked bool) (*Reader, []*corrupt.Error) {
	entries, damage := directory(data, maxDecoded, checked)
	raws := make([][]byte, len(entries))
	failed := make([]*corrupt.Error, len(entries))
	_ = par.Do(concurrency, len(entries), func(i int) error {
		if entries[i].quarantine == nil {
			raws[i], failed[i] = decodeStream(&entries[i])
		}
		return nil
	})
	r := &Reader{streams: make(map[string]*RStream, len(entries))}
	for i, e := range entries {
		fail := e.quarantine
		if failed[i] != nil {
			fail = failed[i]
			damage = append(damage, fail)
		}
		r.streams[e.name] = &RStream{name: e.name, buf: raws[i], fail: fail}
		r.decoded += int64(len(raws[i]))
	}
	return r, damage
}

// directory verifies a checked container's trailer and walks the stream
// directory. It returns the entries it parsed and the damage it found:
// a trailer mismatch, the streams whose checksum mismatches, in
// container order, then the failure that ended the walk. A trailer
// mismatch does not stop the walk, because the per-stream checksums
// localize the damage.
func directory(data []byte, maxDecoded int64, checked bool) ([]entry, []*corrupt.Error) {
	var damage []*corrupt.Error
	body := data
	if checked {
		if len(data) < crcSize {
			damage = append(damage, corrupt.Errorf(trailerStream, int64(len(data)),
				"container too short for trailer checksum"))
		} else {
			body = data[:len(data)-crcSize]
			got := crc32.Checksum(body, castagnoli)
			if want := readCRC(data[len(body):]); got != want {
				damage = append(damage, corrupt.Errorf(trailerStream, int64(len(body)),
					"container checksum %08x, want %08x", got, want))
			}
		}
	}
	entries, end := walkEntries(body, maxDecoded, checked)
	for _, e := range entries {
		if e.quarantine != nil {
			damage = append(damage, e.quarantine)
		}
	}
	if end != nil {
		damage = append(damage, end)
	}
	return entries, damage
}

// walkEntries parses the stream directory of body (the trailer, if any,
// already stripped). A directory failure ends the walk: it returns the
// entries parsed so far and that failure. A stream whose checksum
// mismatches is quarantined and the walk continues, because its framing
// is intact.
func walkEntries(body []byte, maxDecoded int64, checked bool) ([]entry, *corrupt.Error) {
	if maxDecoded <= 0 {
		maxDecoded = DefaultMaxDecodedBytes
	}
	pos := 0
	next := func() (uint64, error) {
		v, n, err := varint.Uint(body[pos:])
		pos += n
		return v, err
	}
	count, err := next()
	if err != nil {
		return nil, corrupt.Errorf(containerStream, int64(pos), "stream count: %v", err)
	}
	// Each directory entry needs at least 4 bytes (name length, raw
	// length, flag, encoded length), so a count beyond that is a lie; the
	// bound also keeps the preallocation proportional to real input.
	if count > uint64(len(body))/4+1 {
		return nil, corrupt.Errorf(containerStream, int64(pos),
			"implausible stream count %d for %d bytes", count, len(body))
	}
	entries := make([]entry, 0, count)
	budget := maxDecoded
	for i := uint64(0); i < count; i++ {
		nameLen, err := next()
		if err != nil {
			return entries, corrupt.Errorf(containerStream, int64(pos), "name length: %v", err)
		}
		if nameLen == 0 {
			return entries, corrupt.Errorf(containerStream, int64(pos), "empty stream name")
		}
		if nameLen > uint64(len(body)-pos) {
			return entries, corrupt.Errorf(containerStream, int64(pos), "truncated name")
		}
		name := string(body[pos : pos+int(nameLen)])
		pos += int(nameLen)
		rawLen, err := next()
		if err != nil {
			return entries, corrupt.Errorf(containerStream, int64(pos), "%s: raw length: %v", name, err)
		}
		if pos >= len(body) {
			return entries, corrupt.Errorf(containerStream, int64(pos), "%s: missing flag", name)
		}
		coding := body[pos]
		pos++
		encLen, err := next()
		if err != nil {
			return entries, corrupt.Errorf(containerStream, int64(pos), "%s: encoded length: %v", name, err)
		}
		if encLen > uint64(len(body)-pos) {
			return entries, corrupt.Errorf(containerStream, int64(pos), "%s: truncated payload", name)
		}
		payloadOff := int64(pos)
		payload := body[pos : pos+int(encLen)]
		pos += int(encLen)
		e := entry{name: name, rawLen: rawLen, coding: coding, payload: payload, payloadOff: payloadOff}
		if checked {
			if len(body)-pos < crcSize {
				return entries, corrupt.Errorf(containerStream, int64(pos), "%s: missing payload checksum", name)
			}
			want := readCRC(body[pos:])
			pos += crcSize
			if got := crc32.Checksum(payload, castagnoli); got != want {
				e.quarantine = corrupt.Errorf(name, payloadOff, "payload checksum %08x, want %08x", got, want)
			}
		}
		if e.quarantine == nil {
			if rawLen > uint64(budget) {
				return entries, corrupt.TooLarge(containerStream, int64(pos),
					"%s: declared decoded size %d exceeds remaining budget %d (cap %d)",
					name, rawLen, budget, maxDecoded)
			}
			budget -= int64(rawLen)
		}
		entries = append(entries, e)
	}
	if pos != len(body) {
		return entries, corrupt.Errorf(containerStream, int64(pos), "%d trailing bytes", len(body)-pos)
	}
	return entries, nil
}

// Section describes one stream's encoded payload location within a
// container, for tools that need to target or report physical regions
// (the fault-injection harness, salvage damage reports).
type Section struct {
	Name string
	Off  int64 // payload offset within the container bytes
	Len  int64 // payload length in bytes
}

// Sections lists the payload regions of a container without decoding
// any payloads. checked selects the layout. It fails with the first
// damage the directory walk finds.
func Sections(data []byte, checked bool) ([]Section, error) {
	entries, damage := directory(data, 1<<62, checked)
	if len(damage) > 0 {
		return nil, damage[0]
	}
	out := make([]Section, len(entries))
	for i, e := range entries {
		out[i] = Section{Name: e.name, Off: e.payloadOff, Len: int64(len(e.payload))}
	}
	return out, nil
}

// decodeStream reverses one stream's coding. The declared raw length was
// budget-checked by the caller; inflation is still capped at that length
// so a payload lying about its size cannot decompress past it.
func decodeStream(e *entry) ([]byte, *corrupt.Error) {
	var raw []byte
	switch e.coding {
	case codingStore:
		raw = e.payload
	case codingFlate:
		var err error
		raw, err = archive.InflateLimit(e.payload, int64(e.rawLen))
		if err != nil {
			return nil, corrupt.Errorf(e.name, -1, "inflate: %v", err)
		}
	case codingArith:
		if e.rawLen > arithTrialLimit {
			return nil, corrupt.Errorf(e.name, -1,
				"arith-coded stream claims %d bytes, limit %d", e.rawLen, arithTrialLimit)
		}
		var err error
		raw, err = arith.Decode(e.payload, int(e.rawLen))
		if err != nil {
			return nil, corrupt.Errorf(e.name, -1, "arith: %v", err)
		}
	default:
		return nil, corrupt.Errorf(e.name, -1, "unknown coding %d", e.coding)
	}
	if uint64(len(raw)) != e.rawLen {
		return nil, corrupt.Errorf(e.name, -1, "raw length %d, want %d", len(raw), e.rawLen)
	}
	return raw, nil
}

// Stream returns the named stream; absent names yield an empty stream so
// that decoders reading zero elements do not special-case.
func (r *Reader) Stream(name string) *RStream {
	s, ok := r.streams[name]
	if !ok {
		s = &RStream{name: name}
		r.streams[name] = s
	}
	return s
}

// RStream reads one stream. It implements varint.ByteReader. A
// quarantined stream carries a non-nil fail error that
// every read returns, so damage surfaces exactly where the stream is
// first consumed.
type RStream struct {
	name string
	buf  []byte
	pos  int
	fail *corrupt.Error
}

// Name returns the stream's name in the container ("" for streams
// constructed directly in tests).
func (s *RStream) Name() string { return s.name }

// Quarantined reports the damage that poisoned this stream, if any.
func (s *RStream) Quarantined() *corrupt.Error { return s.fail }

// ReadByte reads one byte.
func (s *RStream) ReadByte() (byte, error) {
	if s.fail != nil {
		return 0, s.fail
	}
	if s.pos >= len(s.buf) {
		return 0, corrupt.Errorf(s.name, int64(s.pos), "read past end of stream")
	}
	b := s.buf[s.pos]
	s.pos++
	return b, nil
}

// Raw reads n raw bytes.
func (s *RStream) Raw(n int) ([]byte, error) {
	if s.fail != nil {
		return nil, s.fail
	}
	if n < 0 {
		return nil, corrupt.Errorf(s.name, int64(s.pos), "negative raw read of %d bytes", n)
	}
	if n > len(s.buf)-s.pos {
		return nil, corrupt.Errorf(s.name, int64(s.pos), "raw read of %d bytes past end", n)
	}
	b := s.buf[s.pos : s.pos+n]
	s.pos += n
	return b, nil
}

// Uint reads an unsigned varint. Reading past the end and a varint
// that overflows 64 bits are both damage to this stream.
func (s *RStream) Uint() (uint64, error) {
	v, err := varint.ReadUint(s)
	if err == varint.ErrOverflow {
		err = corrupt.Errorf(s.name, int64(s.pos), "%v", err)
	}
	return v, err
}

// Int reads a zigzag varint (see Uint).
func (s *RStream) Int() (int64, error) {
	v, err := s.Uint()
	return varint.Unzigzag(v), err
}

// Remaining reports unread bytes.
func (s *RStream) Remaining() int { return len(s.buf) - s.pos }
