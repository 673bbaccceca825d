package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"testing"

	"classpack/internal/classfile"
	"classpack/internal/corrupt"
	"classpack/internal/faultinject"
	"classpack/internal/synth"
)

// v3Opts is the default configuration with chunking enabled.
func v3Opts(chunk int) Options {
	opts := DefaultOptions()
	opts.ChunkClasses = chunk
	return opts
}

// synthStripped generates a stripped synthetic corpus with serialized
// reference bytes.
func synthStripped(t testing.TB, scale float64) ([]*classfile.ClassFile, [][]byte) {
	t.Helper()
	p, err := synth.ProfileByName("202_jess")
	if err != nil {
		t.Fatal(err)
	}
	cfs, err := synth.GenerateStripped(p, scale)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(cfs))
	for i, cf := range cfs {
		if want[i], err = classfile.Write(cf); err != nil {
			t.Fatal(err)
		}
	}
	return cfs, want
}

// checkClasses verifies decoded classes serialize byte-identically to
// want, in order.
func checkClasses(t *testing.T, got []*classfile.ClassFile, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d classes, want %d", len(got), len(want))
	}
	for i, cf := range got {
		data, err := classfile.Write(cf)
		if err != nil {
			t.Fatalf("class %d: write: %v", i, err)
		}
		if !bytes.Equal(data, want[i]) {
			t.Fatalf("class %d (%s) differs after v3 round trip", i, cf.ThisClassName())
		}
	}
}

func TestV3RoundTripChunkSizes(t *testing.T) {
	cfs := buildTestClasses(t)
	want := strippedBytes(t, cfs)
	for _, chunk := range []int{1, 2, 64, 10000} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			packed, err := Pack(cfs, v3Opts(chunk))
			if err != nil {
				t.Fatalf("Pack: %v", err)
			}
			if packed[4] != Version3 {
				t.Fatalf("version byte = %d, want %d", packed[4], Version3)
			}
			back, err := Unpack(packed)
			if err != nil {
				t.Fatalf("Unpack: %v", err)
			}
			checkClasses(t, back, want)
		})
	}
}

func TestV3ZeroChunkStaysV2(t *testing.T) {
	cfs := buildTestClasses(t)
	packed, err := Pack(cfs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if packed[4] != Version2 {
		t.Fatalf("ChunkClasses=0 packed version %d, want %d", packed[4], Version2)
	}
}

func TestV3Deterministic(t *testing.T) {
	cfs := buildTestClasses(t)
	opts := v3Opts(2)
	var first []byte
	for _, j := range []int{1, 2, 3, 8, 0} {
		opts.Concurrency = j
		packed, err := Pack(cfs, opts)
		if err != nil {
			t.Fatalf("j=%d: %v", j, err)
		}
		if first == nil {
			first = packed
			continue
		}
		if !bytes.Equal(packed, first) {
			t.Fatalf("j=%d produced different v3 bytes", j)
		}
	}
}

func TestV3PackStreamMatchesPack(t *testing.T) {
	cfs := buildTestClasses(t)
	opts := v3Opts(2)
	opts.Concurrency = 4
	packed, err := Pack(cfs, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	i := 0
	next := func() (*classfile.ClassFile, error) {
		if i == len(cfs) {
			return nil, io.EOF
		}
		cf := cfs[i]
		i++
		return cf, nil
	}
	if err := PackStream(&buf, next, opts); err != nil {
		t.Fatalf("PackStream: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), packed) {
		t.Fatalf("PackStream output (%d bytes) differs from Pack (%d bytes)", buf.Len(), len(packed))
	}
}

func TestV3UnpackReader(t *testing.T) {
	cfs := buildTestClasses(t)
	want := strippedBytes(t, cfs)
	for _, ver := range []struct {
		name string
		opts Options
	}{
		{"v2", DefaultOptions()},
		{"v3", v3Opts(2)},
	} {
		t.Run(ver.name, func(t *testing.T) {
			packed, err := Pack(cfs, ver.opts)
			if err != nil {
				t.Fatal(err)
			}
			var back []*classfile.ClassFile
			err = UnpackReader(bytes.NewReader(packed), UnpackOpts{}, func(cf *classfile.ClassFile) error {
				back = append(back, cf)
				return nil
			})
			if err != nil {
				t.Fatalf("UnpackReader: %v", err)
			}
			checkClasses(t, back, want)
		})
	}
}

func TestV3EmptyArchive(t *testing.T) {
	packed, err := Pack(nil, v3Opts(64))
	if err != nil {
		t.Fatal(err)
	}
	out, err := Unpack(packed)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("empty v3 archive decoded %d classes", len(out))
	}
	ix, err := ReadIndex(packed, UnpackOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumClasses() != 0 || len(ix.Chunks) != 0 {
		t.Fatalf("empty archive index: %d classes, %d chunks", ix.NumClasses(), len(ix.Chunks))
	}
}

func TestV3Index(t *testing.T) {
	cfs := buildTestClasses(t)
	packed, err := Pack(cfs, v3Opts(2))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ReadIndex(packed, UnpackOpts{})
	if err != nil {
		t.Fatalf("ReadIndex: %v", err)
	}
	if ix.ChunkClasses != 2 {
		t.Fatalf("ChunkClasses = %d, want 2", ix.ChunkClasses)
	}
	if want := (len(cfs) + 1) / 2; len(ix.Chunks) != want {
		t.Fatalf("%d chunks, want %d", len(ix.Chunks), want)
	}
	if ix.NumClasses() != len(cfs) {
		t.Fatalf("index lists %d classes, want %d", ix.NumClasses(), len(cfs))
	}
	for i, cf := range cfs {
		name := cf.ThisClassName()
		if ix.Names[i] != name {
			t.Fatalf("index name %d = %q, want %q", i, ix.Names[i], name)
		}
		chunk := ix.ChunkOf(i)
		if ord := i - ix.Start(chunk); chunk != i/2 || ord != i%2 {
			t.Fatalf("class %d (%s) is at (%d,%d), want (%d,%d)", i, name, chunk, ord, i/2, i%2)
		}
	}
}

// TestV3ChunkDecodesStandalone pins the core random-access property: a
// chunk body sliced out by the index decodes on its own, with no other
// chunk touched.
func TestV3ChunkDecodesStandalone(t *testing.T) {
	cfs := buildTestClasses(t)
	want := strippedBytes(t, cfs)
	packed, err := Pack(cfs, v3Opts(1))
	if err != nil {
		t.Fatal(err)
	}
	_, opts, err := ParseHeader(packed[:6])
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ReadIndex(packed, UnpackOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for ci, ch := range ix.Chunks {
		body := packed[ch.Off : ch.Off+ch.Len]
		var got []*classfile.ClassFile
		if _, err := DecodeChunk(opts, body, true, UnpackOpts{}, nil, func(ord int, cf *classfile.ClassFile) error {
			got = append(got, cf)
			return nil
		}); err != nil {
			t.Fatalf("chunk %d: %v", ci, err)
		}
		checkClasses(t, got, want[ix.Start(ci):ix.Start(ci)+ch.Classes])
	}
}

// decodeNeed decodes body with need at worker count j and returns each
// visited class's ordinal and bytes, the decoded bytes charged, and the
// error.
func decodeNeed(t *testing.T, opts Options, body []byte, checked bool, j int, need []bool) ([]int, [][]byte, int64, error) {
	t.Helper()
	var ords []int
	var got [][]byte
	decoded, err := DecodeChunk(opts, body, checked, UnpackOpts{Concurrency: j}, need, func(ord int, cf *classfile.ClassFile) error {
		data, err := classfile.Write(cf)
		if err != nil {
			return err
		}
		ords = append(ords, ord)
		got = append(got, data)
		return nil
	})
	return ords, got, decoded, err
}

// TestDecodeChunkNeed pins the partial decode: at -j 1, 2 and 8, a
// DecodeChunk given a need set builds and visits exactly the classes of
// the full decode at the selected ordinals, in order, charges the same
// decoded bytes, and fails with the same error on damaged bodies, those
// of a version-1 archive, which carries no checksum, so that damage
// reaches the class loop.
func TestDecodeChunkNeed(t *testing.T) {
	cfs, _ := synthStripped(t, 0.3)
	packed, err := Pack(cfs, v3Opts(16))
	if err != nil {
		t.Fatal(err)
	}
	_, opts, err := ParseHeader(packed[:6])
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ReadIndex(packed, UnpackOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ch := ix.Chunks[0]
	body := packed[ch.Off : ch.Off+ch.Len]
	n := ch.Classes
	needs := map[string][]bool{"none": make([]bool, n), "all": make([]bool, n), "first": make([]bool, n),
		"last": make([]bool, n), "every third": make([]bool, n), "short": make([]bool, n/2)}
	for i := 0; i < n; i++ {
		needs["all"][i] = true
		needs["every third"][i] = i%3 == 1
	}
	needs["first"][0], needs["last"][n-1], needs["short"][n/2-1] = true, true, true
	for _, j := range []int{1, 2, 8} {
		fullOrds, full, fullDecoded, err := decodeNeed(t, opts, body, true, j, nil)
		if err != nil || len(full) != n {
			t.Fatalf("j=%d: full decode gave %d classes, err %v", j, len(full), err)
		}
		for name, need := range needs {
			ords, got, decoded, err := decodeNeed(t, opts, body, true, j, need)
			if err != nil {
				t.Fatalf("j=%d need %s: %v", j, name, err)
			}
			if decoded != fullDecoded {
				t.Errorf("j=%d need %s: charged %d decoded bytes, full decode %d", j, name, decoded, fullDecoded)
			}
			var want []int
			for _, g := range fullOrds {
				if g < len(need) && need[g] {
					want = append(want, g)
				}
			}
			if !slices.Equal(ords, want) {
				t.Fatalf("j=%d need %s: visited %v, want %v", j, name, ords, want)
			}
			for k, g := range ords {
				if !bytes.Equal(got[k], full[g]) {
					t.Fatalf("j=%d need %s: class %d differs from the full decode's", j, name, g)
				}
			}
		}
	}

	v1, err := PackVersion(cfs[:n], opts, Version1)
	if err != nil {
		t.Fatal(err)
	}
	plan := faultinject.NewPlan(29)
	failed := 0
	for m := 0; m < 120; m++ {
		damaged := plan.Next(len(v1) - 6).Apply(v1[6:])
		_, _, _, fullErr := decodeNeed(t, opts, damaged, false, 1, nil)
		if fullErr != nil {
			failed++
		}
		for _, j := range []int{1, 2, 8} {
			_, _, _, err := decodeNeed(t, opts, damaged, false, j, needs["every third"])
			if fmt.Sprint(err) != fmt.Sprint(fullErr) {
				t.Fatalf("mutant %d j=%d: partial decode error %v, full decode error %v", m, j, err, fullErr)
			}
		}
	}
	if failed < 40 {
		t.Fatalf("only %d of 120 mutants failed to decode", failed)
	}
}

func TestV3CorruptIndex(t *testing.T) {
	cfs := buildTestClasses(t)
	packed, err := Pack(cfs, v3Opts(2))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ReadIndex(packed, UnpackOpts{})
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(name string, f func(b []byte)) {
		t.Run(name, func(t *testing.T) {
			b := bytes.Clone(packed)
			f(b)
			if _, err := ReadIndex(b, UnpackOpts{}); err == nil {
				t.Fatal("ReadIndex accepted a corrupt index")
			} else if _, ok := corrupt.As(err); !ok {
				t.Fatalf("ReadIndex error %T is not a corrupt.Error: %v", err, err)
			}
			if _, err := Unpack(b); err == nil {
				t.Fatal("Unpack accepted a corrupt index")
			}
		})
	}
	mutate("footer-magic", func(b []byte) { b[len(b)-1] ^= 0xff })
	mutate("footer-length", func(b []byte) { b[len(b)-9] ^= 0xff })
	mutate("blob-bitflip", func(b []byte) { b[ix.blobOff+1] ^= 0x40 })
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{1, 5, footerSize, footerSize + 10, len(packed) - 7} {
			if _, err := ReadIndex(packed[:len(packed)-cut], UnpackOpts{}); err == nil {
				t.Fatalf("ReadIndex accepted an archive truncated by %d bytes", cut)
			}
		}
	})
}

func TestV3BudgetHonored(t *testing.T) {
	cfs := buildTestClasses(t)
	packed, err := Pack(cfs, v3Opts(1))
	if err != nil {
		t.Fatal(err)
	}
	err = UnpackStreamOpts(packed, UnpackOpts{MaxDecodedBytes: 64}, func(*classfile.ClassFile) error { return nil })
	if !errors.Is(err, corrupt.ErrTooLarge) {
		t.Fatalf("tiny budget: err = %v, want ErrTooLarge", err)
	}
	err = UnpackReader(bytes.NewReader(packed), UnpackOpts{MaxDecodedBytes: 64}, func(*classfile.ClassFile) error { return nil })
	if !errors.Is(err, corrupt.ErrTooLarge) {
		t.Fatalf("tiny budget (reader): err = %v, want ErrTooLarge", err)
	}
	if _, err := Salvage(packed, UnpackOpts{MaxClassCount: 1}); err != nil {
		t.Fatalf("Salvage returned a hard error on a capped archive: %v", err)
	}
}

func TestV3ClassCountCap(t *testing.T) {
	cfs := buildTestClasses(t)
	packed, err := Pack(cfs, v3Opts(1))
	if err != nil {
		t.Fatal(err)
	}
	err = UnpackStreamOpts(packed, UnpackOpts{MaxClassCount: 1}, func(*classfile.ClassFile) error { return nil })
	if !errors.Is(err, corrupt.ErrTooLarge) {
		t.Fatalf("class cap: err = %v, want ErrTooLarge", err)
	}
}

func TestV3SalvageChunkIsolation(t *testing.T) {
	cfs := buildTestClasses(t)
	want := strippedBytes(t, cfs)
	names := make(map[string]int, len(cfs))
	for i, cf := range cfs {
		names[cf.ThisClassName()] = i
	}
	packed, err := Pack(cfs, v3Opts(1))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ReadIndex(packed, UnpackOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the middle chunk's body.
	victim := 1
	b := bytes.Clone(packed)
	ch := ix.Chunks[victim]
	for off := ch.Off + ch.Len/4; off < ch.Off+ch.Len; off += ch.Len / 4 {
		b[off] ^= 0xa5
	}
	res, err := Salvage(b, UnpackOpts{})
	if err != nil {
		t.Fatalf("Salvage: %v", err)
	}
	if res.TotalClasses != len(cfs) {
		t.Fatalf("TotalClasses = %d, want %d", res.TotalClasses, len(cfs))
	}
	if len(res.Classes) != len(cfs)-1 {
		t.Fatalf("recovered %d classes, want %d", len(res.Classes), len(cfs)-1)
	}
	// Chunks after the damaged one must recover byte-identically: match
	// by name, since the damaged chunk leaves a gap.
	for _, cf := range res.Classes {
		i, ok := names[cf.ThisClassName()]
		if !ok {
			t.Fatalf("salvage invented class %q", cf.ThisClassName())
		}
		if i == victim {
			t.Fatalf("salvage recovered the damaged class %q", cf.ThisClassName())
		}
		got, err := classfile.Write(cf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("recovered class %q differs from the clean original", cf.ThisClassName())
		}
	}
	lost := 0
	sawVictim := false
	for _, d := range res.Damage {
		lost += d.ClassesLost
		if d.Chunk == victim {
			sawVictim = true
		}
		if d.Chunk >= 0 && d.Chunk != victim {
			t.Fatalf("damage attributed to intact chunk %d: %v", d.Chunk, d.Err)
		}
	}
	if !sawVictim {
		t.Fatalf("no damage attributed to chunk %d: %+v", victim, res.Damage)
	}
	if lost != 1 {
		t.Fatalf("damage accounts for %d lost classes, want 1", lost)
	}
}

func TestV3SalvageDestroyedIndex(t *testing.T) {
	cfs := buildTestClasses(t)
	packed, err := Pack(cfs, v3Opts(1))
	if err != nil {
		t.Fatal(err)
	}
	b := bytes.Clone(packed)
	for i := len(b) - footerSize; i < len(b); i++ {
		b[i] = 0
	}
	res, err := Salvage(b, UnpackOpts{})
	if err != nil {
		t.Fatalf("Salvage: %v", err)
	}
	// The framing walk drives recovery: a destroyed index costs nothing.
	if len(res.Classes) != len(cfs) {
		t.Fatalf("recovered %d classes with a destroyed index, want %d", len(res.Classes), len(cfs))
	}
	found := false
	for _, d := range res.Damage {
		if d.Chunk == -1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no container-level damage recorded for the destroyed index: %+v", res.Damage)
	}
}

func TestV3LargeCorpusRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("large corpus round trip skipped in -short mode")
	}
	cfs, want := synthStripped(t, 0.5)
	packed, err := Pack(cfs, v3Opts(16))
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unpack(packed)
	if err != nil {
		t.Fatal(err)
	}
	checkClasses(t, back, want)
}

// rewriteIndex re-serializes a version-3 archive's tail around an edited
// index, with a valid checksum and footer. Extra bytes go just before
// the end-of-chunks sentinel: a zero there ends the framing early and
// leaves the real sentinel as a stray byte.
func rewriteIndex(t *testing.T, packed []byte, edit func(ix *Index), extra []byte) []byte {
	t.Helper()
	ix, err := ReadIndex(packed, UnpackOpts{})
	if err != nil {
		t.Fatal(err)
	}
	edit(ix)
	var out bytes.Buffer
	out.Write(packed[:ix.blobOff-1])
	out.Write(extra)
	cw := &chunkWriter{w: &out, ix: *ix}
	if err := cw.close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestV3StrictWalkChecksIndex pins that both strict decode paths, in
// memory and streaming, check the index against the walked chunks after
// the walk: an index with a valid checksum that misplaces a chunk,
// miscounts or misnames classes, or sits behind stray bytes is corrupt.
func TestV3StrictWalkChecksIndex(t *testing.T) {
	cfs := buildTestClasses(t)
	packed, err := Pack(cfs, v3Opts(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := rewriteIndex(t, packed, func(*Index) {}, nil); !bytes.Equal(got, packed) {
		t.Fatal("rewriting an unedited index changed the archive")
	}
	cases := []struct {
		name  string
		edit  func(ix *Index)
		extra []byte
	}{
		{"renamed class", func(ix *Index) { ix.Names[1] = "p/Other" }, nil},
		{"swapped names", func(ix *Index) { ix.Names[0], ix.Names[2] = ix.Names[2], ix.Names[0] }, nil},
		{"moved class count", func(ix *Index) { ix.Chunks[0].Classes--; ix.Chunks[1].Classes++ }, nil},
		{"shifted chunk", func(ix *Index) { ix.Chunks[1].Off++; ix.Chunks[1].Len-- }, nil},
		{"dropped chunk", func(ix *Index) {
			last := len(ix.Chunks) - 1
			ix.Names = ix.Names[:len(ix.Names)-ix.Chunks[last].Classes]
			ix.Chunks = ix.Chunks[:last]
		}, nil},
		{"stray bytes", func(*Index) {}, []byte{0}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := rewriteIndex(t, packed, c.edit, c.extra)
			if _, err := ReadIndex(b, UnpackOpts{}); err != nil {
				t.Fatalf("edited index does not parse on its own: %v", err)
			}
			nop := func(*classfile.ClassFile) error { return nil }
			for src, err := range map[string]error{
				"bytes":  UnpackStreamOpts(b, UnpackOpts{}, nop),
				"reader": UnpackReader(bytes.NewReader(b), UnpackOpts{}, nop),
			} {
				if _, ok := corrupt.As(err); !ok {
					t.Errorf("%s: err = %v, want a CorruptError", src, err)
				}
			}
		})
	}
}

// TestChunkWalkerSlicesInMemoryBodies pins that walking an in-memory
// archive hands out sub-slices of it: no chunk body is copied.
func TestChunkWalkerSlicesInMemoryBodies(t *testing.T) {
	packed, err := Pack(buildTestClasses(t), v3Opts(1))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ReadIndex(packed, UnpackOpts{})
	if err != nil {
		t.Fatal(err)
	}
	w := &chunkWalker{data: packed, pos: 6}
	walked := 0
	err = w.walk(UnpackOpts{}, func(ci int, off int64, body []byte, _ UnpackOpts) (int64, int, error) {
		if &body[0] != &packed[off] {
			t.Fatalf("chunk %d body is a copy", ci)
		}
		walked++
		return 0, 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if walked != len(ix.Chunks) || w.pos != ix.blobOff {
		t.Fatalf("walked %d chunks to offset %d, index lists %d with its blob at %d",
			walked, w.pos, len(ix.Chunks), ix.blobOff)
	}
}

// TestCheckChunkAllocs pins that the index cross-check every lazy
// extraction runs allocates nothing when the chunk matches.
func TestCheckChunkAllocs(t *testing.T) {
	packed, err := Pack(buildTestClasses(t), v3Opts(2))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ReadIndex(packed, UnpackOpts{})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for ci, ch := range ix.Chunks {
			first := ix.Start(ci)
			if err := ix.CheckChunk(ci, ch.Classes, func(i int) string { return ix.Names[first+i] }); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("CheckChunk allocated %.0f times per run", allocs)
	}
}

// junkReader is an endless source of 0xff bytes that counts what it
// hands out.
type junkReader struct{ n int64 }

func (j *junkReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0xff
	}
	j.n += int64(len(p))
	return len(p), nil
}

// footerBomb is a version-3 archive of the given size whose footer
// claims the largest index blob the size allows; every other byte is
// junk, so only a length check stands between ReadIndexAt and a
// size-sized buffer.
type footerBomb struct{ size int64 }

func (b footerBomb) ReadAt(p []byte, off int64) (int, error) {
	head := append(Magic[:], Version3, 0)
	var tail [4 + footerSize]byte // CRC (junk), blob length, magic
	binary.BigEndian.PutUint64(tail[4:], uint64(b.size-footerSize-4-7))
	copy(tail[12:], indexMagic[:])
	tailOff := b.size - int64(len(tail))
	for i := range p {
		switch at := off + int64(i); {
		case at < int64(len(head)):
			p[i] = head[at]
		case at >= tailOff:
			p[i] = tail[at-tailOff]
		default:
			p[i] = 0xff
		}
	}
	return len(p), nil
}

// TestBufferingBoundedByBudget pins that the container code buffers no
// more than the decode budget plus bodySlack on behalf of a length it
// has not checked: a version-1/2 body and a version-3 tail read from a
// stream, and an index blob whose length the footer declares. Each must
// fail with ErrTooLarge having read (from a stream) or allocated (for
// the blob) at most that plus one bufio buffer.
func TestBufferingBoundedByBudget(t *testing.T) {
	const budget = 1 << 20
	const bound = budget + bodySlack + 4096 // plus one bufio.Reader buffer
	o := UnpackOpts{MaxDecodedBytes: budget}
	nop := func(*classfile.ClassFile) error { return nil }
	cfs := buildTestClasses(t)

	v2, err := Pack(cfs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	v3, err := Pack(cfs, v3Opts(2))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ReadIndex(v3, UnpackOpts{})
	if err != nil {
		t.Fatal(err)
	}
	chunks := v3[:ix.blobOff] // every chunk and the end-of-chunks sentinel

	for _, c := range []struct {
		name   string
		prefix []byte // valid bytes ahead of the junk
	}{
		{"v2 body", v2[:6]},
		{"v3 tail", chunks},
	} {
		t.Run(c.name, func(t *testing.T) {
			junk := &junkReader{}
			src := io.MultiReader(bytes.NewReader(c.prefix), io.LimitReader(junk, 64<<20))
			err := UnpackReader(src, o, nop)
			if !errors.Is(err, corrupt.ErrTooLarge) {
				t.Fatalf("err = %v, want ErrTooLarge", err)
			}
			if junk.n > bound {
				t.Fatalf("read %d junk bytes, bound %d", junk.n, bound)
			}
		})
	}

	t.Run("index blob", func(t *testing.T) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadIndexAt(footerBomb{size: 64 << 20}, 64<<20, o)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, corrupt.ErrTooLarge) {
			t.Fatalf("err = %v, want ErrTooLarge", err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > bound {
			t.Fatalf("allocated %d bytes, bound %d", got, bound)
		}
	})
}
