package classpack

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"

	"classpack/internal/encoding/varint"
)

// bombArchive builds a syntactically valid archive at the given wire
// version whose stream directory claims rawLen decoded bytes backed by
// an empty payload. Version 2 bombs carry correct checksums, so they
// reach the budget check rather than dying at the CRC gate.
func bombArchive(t *testing.T, rawLen uint64, version byte) []byte {
	t.Helper()
	packed, err := Pack(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	bomb := append([]byte(nil), packed[:6]...) // real magic/version/options header
	bomb[4] = version
	var body []byte
	body = varint.AppendUint(body, 1) // stream count
	name := "class.meta"
	body = varint.AppendUint(body, uint64(len(name)))
	body = append(body, name...)
	body = varint.AppendUint(body, rawLen) // claimed decoded size
	body = append(body, 1)                 // coding: store
	body = varint.AppendUint(body, 0)      // encoded length: nothing behind the claim
	if version >= 2 {
		castagnoli := crc32.MakeTable(crc32.Castagnoli)
		appendCRC := func(b []byte, c uint32) []byte {
			return append(b, byte(c>>24), byte(c>>16), byte(c>>8), byte(c))
		}
		body = appendCRC(body, crc32.Checksum(nil, castagnoli)) // empty payload CRC
		body = appendCRC(body, crc32.Checksum(body, castagnoli))
	}
	return append(bomb, body...)
}

// TestDecompressionBombFailsFast pins the bomb defense at both wire
// versions: a ~40-byte archive claiming a 4 GiB stream must be rejected
// at the directory walk — with ErrTooLarge, and without allocating
// anywhere near the claimed size.
func TestDecompressionBombFailsFast(t *testing.T) {
	for _, version := range []byte{1, 2} {
		bomb := bombArchive(t, 4<<30, version)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Unpack(bomb)
		runtime.ReadMemStats(&after)

		if !errors.Is(err, ErrTooLarge) {
			t.Fatalf("v%d: Unpack(bomb) = %v, want ErrTooLarge", version, err)
		}
		if _, ok := AsCorrupt(err); !ok {
			t.Fatalf("v%d: bomb rejection is not a CorruptError: %v", version, err)
		}
		// Rejection happens before any stream materializes; the whole call
		// should stay within a modest constant, not the 4 GiB claim.
		if delta := after.TotalAlloc - before.TotalAlloc; delta > 1<<20 {
			t.Fatalf("v%d: rejecting the bomb allocated %d bytes", version, delta)
		}
	}
}

// TestOpenArchiveSizeBomb pins the lazy-open defense for version-1/2
// archives (which have no chunk framing, so OpenArchive falls back to
// an eager whole-body read): a hostile caller-supplied size over a tiny
// reader must be rejected against the decode budget in O(1) memory, not
// allocated up front.
func TestOpenArchiveSizeBomb(t *testing.T) {
	packed, err := Pack(sample(t), nil) // version 2, a few KiB
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(packed)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = OpenArchive(r, 4<<30, nil) // claims 4 GiB backed by the small reader
	runtime.ReadMemStats(&after)

	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("OpenArchive(hostile size) = %v, want ErrTooLarge", err)
	}
	if _, ok := AsCorrupt(err); !ok {
		t.Fatalf("size-bomb rejection is not a CorruptError: %v", err)
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 1<<20 {
		t.Fatalf("rejecting the size bomb allocated %d bytes", delta)
	}

	// A size merely inflated beyond the reader (but within budget) must
	// fail as corruption — short read — after allocating only what
	// actually arrived.
	if _, err := OpenArchive(bytes.NewReader(packed), int64(len(packed))+100, nil); err == nil {
		t.Fatal("OpenArchive accepted a size larger than the reader")
	} else if _, ok := AsCorrupt(err); !ok {
		t.Fatalf("short-read rejection is not a CorruptError: %v", err)
	}

	// And the honest size still opens.
	if _, err := OpenArchive(bytes.NewReader(packed), int64(len(packed)), nil); err != nil {
		t.Fatalf("honest open: %v", err)
	}
}

// chunkBomb is a version-3 archive whose index, with a valid checksum,
// lists one class in one junk chunk that fills the rest of the archive.
type chunkBomb struct {
	head, tail []byte
	size       int64
}

func newChunkBomb(t *testing.T, size int64) chunkBomb {
	t.Helper()
	opts := DefaultOptions()
	opts.ChunkClasses = 1
	packed, err := Pack(sample(t), &opts)
	if err != nil {
		t.Fatal(err)
	}
	b := chunkBomb{head: packed[:6], size: size}
	// The index is stored raw; its only chunk starts at offset 7, after
	// a one-byte length prefix, and ends at the end-of-chunks sentinel.
	const indexLen = 15 // the chunk length takes a 4-byte varint
	var raw []byte
	for _, v := range []uint64{1, 1, 7, uint64(size) - 8 - indexLen - 16, 1, 1, 3} {
		raw = varint.AppendUint(raw, v)
	}
	raw = append(raw, "p/C"...)
	blob := append([]byte{1, byte(len(raw))}, raw...)
	if len(blob) != indexLen {
		t.Fatalf("index blob is %d bytes, want %d", len(blob), indexLen)
	}
	b.tail = binary.BigEndian.AppendUint32(blob, crc32.Checksum(blob, crc32.MakeTable(crc32.Castagnoli)))
	b.tail = binary.BigEndian.AppendUint64(b.tail, indexLen)
	b.tail = append(b.tail, "CJPX"...)
	return b
}

func (b chunkBomb) ReadAt(p []byte, off int64) (int, error) {
	tailOff := b.size - int64(len(b.tail))
	for i := range p {
		switch at := off + int64(i); {
		case at < int64(len(b.head)):
			p[i] = b.head[at]
		case at >= tailOff:
			p[i] = b.tail[at-tailOff]
		default:
			p[i] = 0xff
		}
	}
	return len(p), nil
}

// TestExtractChunkBomb pins that lazy extraction holds a chunk length
// the index declares to the decode budget plus the container's 64 KiB
// slack before allocating it: a chunk that large could never decode
// within the budget, so extracting from it must fail with ErrTooLarge
// without a chunk-sized buffer.
func TestExtractChunkBomb(t *testing.T) {
	const budget = 1 << 20
	const size = 64 << 20
	a, err := OpenArchive(newChunkBomb(t, size), size, &Options{MaxDecodedBytes: budget})
	if err != nil {
		t.Fatalf("OpenArchive: %v", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = a.ExtractClass("p/C")
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("ExtractClass = %v, want ErrTooLarge", err)
	}
	if _, ok := AsCorrupt(err); !ok {
		t.Fatalf("chunk-bomb rejection is not a CorruptError: %v", err)
	}
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(budget+1<<16); got > bound {
		t.Fatalf("rejecting the chunk bomb allocated %d bytes, bound %d", got, bound)
	}
}

// TestMaxDecodedBytesOption checks the per-call override: a claim that
// fits the default 1 GiB budget still fails against a caller cap.
func TestMaxDecodedBytesOption(t *testing.T) {
	bomb := bombArchive(t, 1<<20, 2)
	if _, err := Unpack(bomb); errors.Is(err, ErrTooLarge) {
		// The 1 MiB claim is under the default budget; it must fail for
		// a different reason (empty payload), not the cap.
		t.Fatalf("1 MiB claim hit the default cap: %v", err)
	}
	opts := &Options{MaxDecodedBytes: 1 << 16}
	_, err := UnpackOpts(bomb, opts)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("UnpackOpts(bomb, 64KiB cap) = %v, want ErrTooLarge", err)
	}
}

// TestMaxClassCountOption checks the materialization cap: a valid
// archive with a small class-count cap fails with ErrTooLarge before
// decoding any class.
func TestMaxClassCountOption(t *testing.T) {
	files := sample(t)
	if len(files) < 3 {
		t.Fatalf("corpus too small: %d files", len(files))
	}
	files = files[:3]
	packed, err := Pack(files, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unpack(packed); err != nil {
		t.Fatalf("pristine archive: %v", err)
	}
	_, err = UnpackOpts(packed, &Options{MaxClassCount: 2})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("UnpackOpts(3 classes, cap 2) = %v, want ErrTooLarge", err)
	}
}
