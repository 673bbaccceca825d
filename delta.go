package classpack

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"

	"classpack/internal/classfile"
	"classpack/internal/core"
	"classpack/internal/corrupt"
	"classpack/internal/delta"
)

// ErrDeltaMismatch is returned (wrapped) by ApplyDelta when the patch
// was computed against a different old archive than the one supplied:
// the old-archive digest recorded in the patch does not match. The
// patch itself is well-formed; it just does not apply here.
var ErrDeltaMismatch = errors.New("classpack: patch does not apply to this archive")

// Diff computes a CJPD patch that transforms oldArchive into newArchive
// (both complete packed archives): classes of the new archive whose
// serialized bytes also appear in the old archive are recorded as
// copies by ordinal, and only added or changed classes travel in the
// patch, packed as a normal chunked payload archive. ApplyDelta
// reconstructs the new archive byte-for-byte.
//
// When both archives use the version-3 chunked layout, chunks whose
// bytes are unchanged between the versions match whole without being
// decoded — diffing two near-identical archives touches only the
// changed chunks, and Diff(a, a) decodes nothing. Classes match by the
// SHA-256 of their bytes, and Diff reads those digests of each changed
// chunk through opts.ChunkCache: from any entry that holds the chunk,
// or from a decode, after which the cache keeps the chunk's digests
// (32 bytes a class, plus 32 for its class names) and never its
// classes. So, through a shared cache, a chain of diffs in which each
// diff's old archive is the previous diff's new one decodes each
// changed chunk once, not twice. A new chunk whose digests the cache
// held is still decoded when it carries a changed class, for that call
// alone, but only the classes the patch carries are built and written:
// the chunk's other classes are only read off the wire, which the
// sequential reference models require. Before it reads a chunk, Diff
// walks the length prefixes of each version-3 archive, decoding
// nothing, and refuses, as strict Unpack does, an archive whose chunk
// framing its index does not account for. Only Concurrency,
// MaxDecodedBytes, MaxClassCount and ChunkCache of opts are honored (a
// nil opts uses defaults). The new archive must be version 2 or 3;
// version-1 archives (which Pack no longer emits) cannot be delta
// targets.
func Diff(oldArchive, newArchive []byte, opts *Options) ([]byte, error) {
	oldA, err := OpenArchiveBytes(oldArchive, opts)
	if err != nil {
		return nil, fmt.Errorf("classpack: old archive: %w", err)
	}
	newA, err := OpenArchiveBytes(newArchive, opts)
	if err != nil {
		return nil, fmt.Errorf("classpack: new archive: %w", err)
	}
	p, err := diffArchives(oldA, newA, oldArchive, newArchive, opts)
	if err != nil {
		return nil, err
	}
	return p.Encode(), nil
}

// diffArchives builds the patch from two opened archives (whose raw
// bytes the caller still holds; chunk-level matching hashes chunk
// bodies without decoding them).
func diffArchives(oldA, newA *Archive, oldArchive, newArchive []byte, opts *Options) (*delta.Patch, error) {
	if newA.version == core.Version1 {
		return nil, fmt.Errorf("classpack: version-1 archives cannot be delta targets (re-pack as version 2 or 3)")
	}
	if err := oldA.checkFraming(oldArchive); err != nil {
		return nil, fmt.Errorf("classpack: old archive: %w", err)
	}
	if err := newA.checkFraming(newArchive); err != nil {
		return nil, fmt.Errorf("classpack: new archive: %w", err)
	}
	const unassigned = -2
	ops := make([]int, newA.NumClasses())
	for i := range ops {
		ops[i] = unassigned
	}

	// Chunk-level shortcut: a new chunk whose body bytes equal an old
	// chunk's maps all its classes positionally — identical bytes decode
	// to identical classes — without decoding either side. Both indexes
	// must then list the same names for the two chunks; where they do
	// not, one of them lies, and the chunks go through the digest path,
	// whose index checks report it.
	usedOld := make(map[int]bool)
	if oldA.ix != nil && newA.ix != nil {
		oldByHash := make(map[[sha256.Size]byte]int, len(oldA.ix.Chunks))
		for ci := len(oldA.ix.Chunks) - 1; ci >= 0; ci-- { // first occurrence wins
			ch := oldA.ix.Chunks[ci]
			oldByHash[sha256.Sum256(oldArchive[ch.Off:ch.Off+ch.Len])] = ci
		}
		for ci, ch := range newA.ix.Chunks {
			oci, ok := oldByHash[sha256.Sum256(newArchive[ch.Off:ch.Off+ch.Len])]
			if !ok || oldA.ix.Chunks[oci].Classes != ch.Classes {
				continue
			}
			oStart, nStart := oldA.ix.Start(oci), newA.ix.Start(ci)
			if !slices.Equal(oldA.names[oStart:oStart+ch.Classes], newA.names[nStart:nStart+ch.Classes]) {
				continue
			}
			for i := 0; i < ch.Classes; i++ {
				ops[nStart+i] = oStart + i
			}
			usedOld[oci] = true
		}
	}

	// Remaining new classes match old classes by the SHA-256 of their
	// bytes, read chunk by chunk (see diffChunk). The old side only
	// digests classes in chunks the shortcut did not consume (their
	// classes are already reachable positionally), so an unchanged
	// chunk costs one hash of its compressed bytes, not a decode; and
	// it is digested only once a new class needs matching.
	var byDigest map[[sha256.Size]byte]int
	var payloadFiles [][]byte
	for ci := range newA.diffChunks() {
		start, n := newA.chunkRange(ci)
		if !slices.Contains(ops[start:start+n], unassigned) {
			continue
		}
		if byDigest == nil {
			var err error
			if byDigest, err = oldDigests(oldA, usedOld); err != nil {
				return nil, fmt.Errorf("classpack: old archive: %w", err)
			}
		}
		sums, files, err := newA.diffChunk(ci)
		if err != nil {
			return nil, fmt.Errorf("classpack: new archive: %w", err)
		}
		var carried []bool // the payload's classes, when files is nil
		for i, h := range sums {
			if g, ok := byDigest[h]; ok {
				ops[start+i] = g
				continue
			}
			ops[start+i] = delta.PayloadOp
			if files != nil {
				payloadFiles = append(payloadFiles, files[i].Data)
				continue
			}
			if carried == nil {
				carried = make([]bool, len(sums))
			}
			carried[i] = true
		}
		if carried != nil {
			// The chunk cache held only this chunk's digests, which
			// matched the index: build the payload's classes alone.
			cfs, err := newA.chunkClasses(ci, carried)
			if err != nil {
				return nil, fmt.Errorf("classpack: new archive: %w", err)
			}
			for _, cf := range cfs {
				raw, err := classfile.Write(cf)
				if err != nil {
					return nil, fmt.Errorf("classpack: new archive: chunk %d: %w", ci, err)
				}
				payloadFiles = append(payloadFiles, raw)
			}
		}
	}

	// Added/changed classes travel as a normal chunked archive encoded
	// with the new archive's coding choices, so the payload compresses
	// with the same models the full archive would use.
	var payload []byte
	if len(payloadFiles) > 0 {
		popts := Options{
			Scheme:       newA.copts.Scheme,
			StackState:   newA.copts.StackState,
			Compress:     newA.copts.Compress,
			Preload:      newA.copts.Preload,
			ChunkClasses: core.DefaultChunkClasses,
		}
		if opts != nil {
			popts.Concurrency = opts.Concurrency
		}
		var err error
		payload, err = Pack(payloadFiles, &popts)
		if err != nil {
			return nil, fmt.Errorf("classpack: packing patch payload: %w", err)
		}
	}

	p := &delta.Patch{
		NewVersion:   newA.version,
		NewOptions:   newArchive[5],
		ChunkClasses: newA.ChunkClasses(),
		OldDigest:    sha256.Sum256(oldArchive),
		NewDigest:    sha256.Sum256(newArchive),
		Ops:          ops,
		Payload:      payload,
	}
	return p, nil
}

// oldDigests maps the digest of each class of a's chunks but those in
// skip to its ordinal; a digest held twice maps to the first ordinal.
func oldDigests(a *Archive, skip map[int]bool) (map[[sha256.Size]byte]int, error) {
	byDigest := make(map[[sha256.Size]byte]int)
	for ci := range a.diffChunks() {
		if skip[ci] {
			continue
		}
		start, _ := a.chunkRange(ci)
		sums, _, err := a.diffChunk(ci)
		if err != nil {
			return nil, err
		}
		for i, h := range sums {
			if _, ok := byDigest[h]; !ok {
				byDigest[h] = start + i
			}
		}
	}
	return byDigest, nil
}

// checkFraming refuses a version-3 archive whose chunk framing its index
// does not account for (see core.Index.CheckFraming). Diff reads chunks
// by the index's byte ranges alone, so without the check it could diff
// an archive that strict Unpack refuses.
func (a *Archive) checkFraming(data []byte) error {
	if a.ix == nil {
		return nil
	}
	return a.ix.CheckFraming(data)
}

// diffChunks is how many chunks Diff reads a in: a version-3 archive's
// chunks, or one chunk of all the classes of a version-1/2 archive.
func (a *Archive) diffChunks() int {
	if a.ix == nil {
		return 1
	}
	return len(a.ix.Chunks)
}

// chunkRange returns the first ordinal and the class count of chunk ci
// (see diffChunks).
func (a *Archive) chunkRange(ci int) (start, n int) {
	if a.ix == nil {
		return 0, len(a.files)
	}
	return a.ix.Start(ci), a.ix.Chunks[ci].Classes
}

// diffChunk returns the SHA-256 of the bytes of each class of chunk ci
// (see diffChunks), and the chunk's files when it had them to hand. A
// version-1/2 archive's one chunk was decoded at open, and no chunk
// cache holds it. A version-3 chunk's digests come through the chunk
// cache (see chunkDigests), and its files are nil when an entry that
// holds only digests answered.
func (a *Archive) diffChunk(ci int) ([][sha256.Size]byte, []File, error) {
	if a.ix == nil {
		return classDigests(a.files), a.files, nil
	}
	d, files, err := a.chunkDigests(ci)
	if err != nil {
		return nil, nil, err
	}
	return d.classes, files, nil
}

// ApplyDelta reconstructs the new archive from the old archive and a
// CJPD patch produced by Diff, returning bytes identical to the new
// archive Diff was given — the reconstruction is re-verified against
// the digest recorded in the patch before it is returned. It decodes
// the classes the patch copies from the old archive: for a version-3
// old archive only the chunks holding them, each in full and checked
// against the archive's index; for a version-1/2 one its whole body,
// once. It decodes the patch payload through the normal checked path.
// Then it packs the decoded classes as they are, with the coding
// choices and chunk size the patch records: the decoder builds each
// class as Strip leaves it, so no class is written, re-parsed or
// re-stripped. Only Concurrency, MaxDecodedBytes and MaxClassCount of
// opts are honored. ChunkCache is not: its entries hold serialized
// bytes, which ApplyDelta would have to parse again.
//
// Failures caused by the patch or archive bytes are *CorruptError
// values or wrap one; a well-formed patch built against a different old
// archive fails wrapping ErrDeltaMismatch.
func ApplyDelta(oldArchive, patch []byte, opts *Options) ([]byte, error) {
	uo := opts.unpackOpts()
	if err := checkConcurrency(uo.Concurrency); err != nil {
		return nil, err
	}
	p, err := delta.Parse(patch, core.EffectiveMaxClasses(uo))
	if err != nil {
		return nil, err
	}
	if sha256.Sum256(oldArchive) != p.OldDigest {
		return nil, fmt.Errorf("%w: patch was built against archive %s",
			ErrDeltaMismatch, hex.EncodeToString(p.OldDigest[:]))
	}
	copies, err := copiedClasses(oldArchive, p.Ops, uo)
	if err != nil {
		return nil, err
	}
	var payload []*classfile.ClassFile
	if len(p.Payload) > 0 {
		err := core.UnpackStreamOpts(p.Payload, uo, func(cf *classfile.ClassFile) error {
			payload = append(payload, cf)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("classpack: patch payload: %w", err)
		}
	}
	if want := p.PayloadClasses(); len(payload) != want {
		return nil, corrupt.Errorf("patch", -1,
			"payload holds %d classes, ops take %d", len(payload), want)
	}
	cfs := make([]*classfile.ClassFile, len(p.Ops))
	nc, np := 0, 0
	for g, op := range p.Ops {
		if op == delta.PayloadOp {
			cfs[g] = payload[np]
			np++
		} else {
			cfs[g] = copies[nc]
			nc++
		}
	}
	// Re-pack with exactly the header choices the patch recorded; the
	// packed format is deterministic, so identical classes and options
	// reproduce the new archive bit for bit.
	hdr := []byte{core.Magic[0], core.Magic[1], core.Magic[2], core.Magic[3], p.NewVersion, p.NewOptions}
	_, copts, err := core.ParseHeader(hdr)
	if err != nil {
		return nil, err
	}
	copts.Concurrency, copts.ChunkClasses = uo.Concurrency, p.ChunkClasses
	out, err := core.PackVersion(cfs, copts, p.NewVersion)
	if err != nil {
		return nil, fmt.Errorf("classpack: reassembling archive: %w", err)
	}
	if sha256.Sum256(out) != p.NewDigest {
		return nil, corrupt.Errorf("patch", -1,
			"reconstructed archive digest differs from the one the patch records")
	}
	return out, nil
}

// copiedClasses decodes the classes of oldArchive that ops copy, in op
// order (see ApplyDelta). The same old class copied twice is one
// ClassFile, which packing only reads.
func copiedClasses(oldArchive []byte, ops []int, uo core.UnpackOpts) ([]*classfile.ClassFile, error) {
	ver, _, err := core.ParseHeader(oldArchive)
	if err != nil {
		return nil, fmt.Errorf("classpack: old archive: %w", err)
	}
	var a *Archive
	var all []*classfile.ClassFile // version 1/2: every class
	if ver == core.Version3 {
		a, err = OpenArchiveBytes(oldArchive, &Options{Concurrency: uo.Concurrency,
			MaxDecodedBytes: uo.MaxDecodedBytes, MaxClassCount: uo.MaxClassCount})
	} else {
		err = core.UnpackStreamOpts(oldArchive, uo, func(cf *classfile.ClassFile) error {
			all = append(all, cf)
			return nil
		})
	}
	if err != nil {
		return nil, fmt.Errorf("classpack: old archive: %w", err)
	}
	n := len(all)
	if a != nil {
		n = a.NumClasses()
	}
	var ords []int
	for _, op := range ops {
		if op == delta.PayloadOp {
			continue
		}
		if op >= n {
			return nil, corrupt.Errorf("patch", -1, "op copies old class %d, archive holds %d", op, n)
		}
		ords = append(ords, op)
	}
	out := make([]*classfile.ClassFile, len(ords))
	if a == nil {
		for i, g := range ords {
			out[i] = all[g]
		}
		return out, nil
	}
	err = a.eachChunk(ords, func(ci int, positions []int) error {
		cfs, err := a.chunkClasses(ci, nil)
		if err != nil {
			return err
		}
		for _, i := range positions {
			out[i] = cfs[ords[i]-a.ix.Start(ci)]
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("classpack: old archive: %w", err)
	}
	return out, nil
}

// DeltaSummary describes a parsed CJPD patch without applying it.
type DeltaSummary struct {
	NewVersion     byte   // container version of the reconstructed archive
	NewClasses     int    // classes in the reconstructed archive
	CopiedClasses  int    // satisfied from the old archive
	PayloadClasses int    // carried in the patch payload
	PayloadBytes   int    // size of the embedded payload archive
	OldDigest      string // hex sha256 of the old archive
	NewDigest      string // hex sha256 of the new archive
}

// DescribeDelta parses a CJPD patch and reports what it would do. Only
// MaxClassCount of opts is honored (it caps the patch's class count).
func DescribeDelta(patch []byte, opts *Options) (*DeltaSummary, error) {
	p, err := delta.Parse(patch, core.EffectiveMaxClasses(opts.unpackOpts()))
	if err != nil {
		return nil, err
	}
	carried := p.PayloadClasses()
	return &DeltaSummary{
		NewVersion:     p.NewVersion,
		NewClasses:     len(p.Ops),
		CopiedClasses:  len(p.Ops) - carried,
		PayloadClasses: carried,
		PayloadBytes:   len(p.Payload),
		OldDigest:      hex.EncodeToString(p.OldDigest[:]),
		NewDigest:      hex.EncodeToString(p.NewDigest[:]),
	}, nil
}
