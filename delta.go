package classpack

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

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
// changed chunks, and Diff(a, a) decodes nothing. Only Concurrency,
// MaxDecodedBytes, MaxClassCount and ChunkCache of opts are honored (a
// nil opts uses defaults). The new archive must be version 2 or 3; version-1
// archives (which Pack no longer emits) cannot be delta targets.
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
	const unassigned = -2
	ops := make([]int, newA.NumClasses())
	for i := range ops {
		ops[i] = unassigned
	}

	// Chunk-level shortcut: a new chunk whose body bytes equal an old
	// chunk's maps all its classes positionally — identical bytes decode
	// to identical classes — without decoding either side.
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
			for i := 0; i < ch.Classes; i++ {
				ops[newA.ix.Start(ci)+i] = oldA.ix.Start(oci) + i
			}
			usedOld[oci] = true
		}
	}

	// Remaining new classes match old classes by content digest. The old
	// side only digests classes in chunks the shortcut did not consume
	// (their classes are already reachable positionally), so an
	// unchanged chunk costs one hash of its compressed bytes, not a
	// decode.
	var newOrds []int
	for g, op := range ops {
		if op == unassigned {
			newOrds = append(newOrds, g)
		}
	}
	var payloadFiles [][]byte
	if len(newOrds) > 0 {
		byDigest := make(map[[sha256.Size]byte]int)
		var oldOrds []int
		if oldA.ix != nil {
			for ci, ch := range oldA.ix.Chunks {
				if usedOld[ci] {
					continue
				}
				start := oldA.ix.Start(ci)
				for i := 0; i < ch.Classes; i++ {
					oldOrds = append(oldOrds, start+i)
				}
			}
		} else {
			for g := 0; g < oldA.NumClasses(); g++ {
				oldOrds = append(oldOrds, g)
			}
		}
		oldFiles, err := oldA.ordinals(oldOrds)
		if err != nil {
			return nil, fmt.Errorf("classpack: old archive: %w", err)
		}
		for i, f := range oldFiles {
			h := sha256.Sum256(f.Data)
			if _, ok := byDigest[h]; !ok {
				byDigest[h] = oldOrds[i]
			}
		}
		newFiles, err := newA.ordinals(newOrds)
		if err != nil {
			return nil, fmt.Errorf("classpack: new archive: %w", err)
		}
		for i, f := range newFiles {
			if g, ok := byDigest[sha256.Sum256(f.Data)]; ok {
				ops[newOrds[i]] = g
			} else {
				ops[newOrds[i]] = delta.PayloadOp
				payloadFiles = append(payloadFiles, f.Data)
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

// ApplyDelta reconstructs the new archive from the old archive and a
// CJPD patch produced by Diff, returning bytes identical to the new
// archive Diff was given — the reconstruction is re-verified against
// the digest recorded in the patch before it is returned. Copied
// classes extract lazily from the old archive (a version-3 old archive
// decodes only the chunks the patch references); the patch payload
// decodes through the normal checked path. Only Concurrency,
// MaxDecodedBytes, MaxClassCount and ChunkCache of opts are honored.
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
	oldA, err := OpenArchiveBytes(oldArchive, opts)
	if err != nil {
		return nil, fmt.Errorf("classpack: old archive: %w", err)
	}
	var copyOrds []int
	for _, op := range p.Ops {
		if op == delta.PayloadOp {
			continue
		}
		if op >= oldA.NumClasses() {
			return nil, corrupt.Errorf("patch", -1,
				"op copies old class %d, archive holds %d", op, oldA.NumClasses())
		}
		copyOrds = append(copyOrds, op)
	}
	copies, err := oldA.ordinals(copyOrds)
	if err != nil {
		return nil, fmt.Errorf("classpack: old archive: %w", err)
	}
	var payload []File
	if len(p.Payload) > 0 {
		payload, err = UnpackOpts(p.Payload, opts)
		if err != nil {
			return nil, fmt.Errorf("classpack: patch payload: %w", err)
		}
	}
	if want := p.PayloadClasses(); len(payload) != want {
		return nil, corrupt.Errorf("patch", -1,
			"payload holds %d classes, ops take %d", len(payload), want)
	}
	files := make([][]byte, len(p.Ops))
	nc, np := 0, 0
	for g, op := range p.Ops {
		if op == delta.PayloadOp {
			files[g] = payload[np].Data
			np++
		} else {
			files[g] = copies[nc].Data
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
	popts := Options{
		Scheme:       copts.Scheme,
		StackState:   copts.StackState,
		Compress:     copts.Compress,
		Preload:      copts.Preload,
		Concurrency:  uo.Concurrency,
		ChunkClasses: p.ChunkClasses,
	}
	out, err := Pack(files, &popts)
	if err != nil {
		return nil, fmt.Errorf("classpack: reassembling archive: %w", err)
	}
	if sha256.Sum256(out) != p.NewDigest {
		return nil, corrupt.Errorf("patch", -1,
			"reconstructed archive digest differs from the one the patch records")
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
