package core

import (
	"classpack/internal/classfile"
	"classpack/internal/corrupt"
	"classpack/internal/streams"
)

// SalvageResult is what Salvage recovered from a (possibly damaged)
// archive.
type SalvageResult struct {
	// Version is the archive's container version byte.
	Version byte
	// TotalClasses is the class count the archive declares, or 0 when
	// the count itself was unreadable or failed a resource cap. For
	// version-3 archives the trailing index is authoritative when it
	// parses; otherwise the sum of readable per-chunk declarations is
	// used, so the figure can undercount when framing damage hides
	// whole chunks.
	TotalClasses int
	// Classes are the fully decoded classes, in archive order. Within
	// one container body the wire format is sequential and stateful
	// (reference pools, per-stream positions), so once one class fails
	// to decode nothing after it in the same body can be trusted: for
	// version-1/2 archives Classes is always an intact prefix of the
	// archive. Version-3 chunks reset all model state, so decoding
	// resumes at the next chunk boundary and Classes may have gaps —
	// consult V3Damage for which chunks lost classes.
	Classes []*classfile.ClassFile
	// Quarantined lists container-level damage in detection order:
	// streams whose checksum mismatched or whose payload failed to
	// decode, trailer damage, and directory damage. A quarantined stream
	// only costs classes if decoding actually reads it (see Abort).
	// Version-3 archives report per-chunk damage in V3Damage instead.
	Quarantined []*corrupt.Error
	// Abort is the failure that ended class decoding, nil when every
	// declared class decoded. When decoding first touches a quarantined
	// stream, Abort is that stream's quarantining error. Unused for
	// version-3 archives (chunk failures don't end decoding).
	Abort *corrupt.Error
	// AbortClass is the index of the class being decoded when Abort hit
	// (-1 when Abort is nil or the class count itself was unreadable).
	AbortClass int
	// V3Damage lists version-3 damage in detection order: per-chunk
	// quarantines and decode aborts, plus container-level failures
	// (chunk framing, index, footer) attributed to Chunk == -1.
	V3Damage []V3Damage
}

// V3Damage describes one piece of damage found while salvaging a
// version-3 archive.
type V3Damage struct {
	// Chunk is the damaged chunk's index, or -1 for container-level
	// damage (chunk framing, the class index, the footer).
	Chunk int
	// Err is the underlying failure.
	Err *corrupt.Error
	// ClassesLost is how many classes this damage cost. Classes that
	// cannot be attributed to a specific failure (chunks hidden behind
	// framing damage, chunks whose own class count was unreadable) are
	// charged to the last damage entry.
	ClassesLost int
}

// chunkSalvage is the outcome of best-effort decoding one container
// body (a whole version-1/2 archive body, or one version-3 chunk).
type chunkSalvage struct {
	declared    int // body's declared class count, -1 when unreadable
	classes     []*classfile.ClassFile
	quarantined []*corrupt.Error
	abort       *corrupt.Error // failure that ended decoding, nil if complete
	abortAt     int            // class index when abort hit, -1 otherwise
	decoded     int64          // decoded wire-stream bytes (budget charge)
}

// salvageBody decodes as many classes as possible from one container
// body, quarantining damaged streams up front and stopping at the first
// class that reads damaged or inconsistent data.
func salvageBody(opts Options, o UnpackOpts, body []byte, checked bool) chunkSalvage {
	r, quarantined := streams.NewSalvageReader(body, o.Concurrency, o.MaxDecodedBytes, checked)
	cs := chunkSalvage{abortAt: -1, quarantined: quarantined, decoded: r.DecodedBytes()}
	var err error
	cs.declared, err = newUnpacker(opts, r).decodeClasses(o, func(_ int, cf *classfile.ClassFile) error {
		cs.classes = append(cs.classes, cf)
		return nil
	})
	if err != nil {
		cs.abort = asCorrupt(sMeta, err)
		if cs.declared >= 0 {
			cs.abortAt = len(cs.classes)
		}
	}
	return cs
}

// Salvage decodes as much of a packed archive as the damage allows,
// instead of failing on the first corrupt byte the way Unpack does.
// Checksum-failing streams (version 2 and later) and streams whose
// payload cannot be decoded are quarantined up front; classes are then
// decoded sequentially until one reads damaged or inconsistent data,
// and every class completed before that point is returned. Version-3
// chunks are isolated failure domains: a damaged chunk costs only its
// own classes, and decoding resumes at the next chunk boundary.
//
// The error return is reserved for inputs that are not a packed archive
// at all (bad magic, unknown version, undecodable scheme): the 6-byte
// header is the root of trust, and without it there is nothing to
// salvage against.
func Salvage(data []byte, o UnpackOpts) (*SalvageResult, error) {
	opts, err := header(data)
	if err != nil {
		return nil, err
	}
	if data[4] == Version3 {
		return salvageChunks(data, opts, o), nil
	}
	cs := salvageBody(opts, o, data[6:], data[4] != Version1)
	res := &SalvageResult{
		Version:     data[4],
		Classes:     cs.classes,
		Quarantined: cs.quarantined,
		Abort:       cs.abort,
		AbortClass:  cs.abortAt,
	}
	if cs.declared >= 0 {
		res.TotalClasses = cs.declared
	}
	return res, nil
}

// salvageChunks is the chunk walker's salvage policy. The framing, not
// the index, drives recovery, so a destroyed index costs no classes:
// each chunk is salvaged in isolation, a framing fault ends the walk as
// container-level damage, and the index, when it parses, only supplies
// the class total. The shared decoded-bytes budget and class cap are
// charged per chunk as Unpack charges them.
func salvageChunks(data []byte, opts Options, o UnpackOpts) *SalvageResult {
	res := &SalvageResult{Version: Version3, AbortClass: -1}
	ix, ixErr := ReadIndex(data, o)
	if ixErr != nil {
		res.V3Damage = append(res.V3Damage, V3Damage{Chunk: -1, Err: asCorrupt(sIndex, ixErr)})
	}
	maxClasses := EffectiveMaxClasses(o)
	declaredSum := 0
	w := &chunkWalker{data: data, pos: 6}
	err := w.walk(o, func(ci int, _ int64, body []byte, co UnpackOpts) (int64, int, error) {
		cs := salvageBody(opts, co, body, true)
		for _, q := range cs.quarantined {
			if q != cs.abort {
				res.V3Damage = append(res.V3Damage, V3Damage{Chunk: ci, Err: q})
			}
		}
		res.Classes = append(res.Classes, cs.classes...)
		if cs.declared >= 0 {
			declaredSum += cs.declared
		}
		if cs.abort != nil {
			lost := 0
			if cs.declared >= 0 {
				lost = cs.declared - len(cs.classes)
			}
			res.V3Damage = append(res.V3Damage, V3Damage{Chunk: ci, Err: cs.abort, ClassesLost: lost})
		}
		return cs.decoded, len(cs.classes), nil
	})
	if err != nil {
		res.V3Damage = append(res.V3Damage, V3Damage{Chunk: -1, Err: asCorrupt(sChunks, err)})
	}
	total := declaredSum
	if total > maxClasses {
		// Several aborting chunks can each declare close to the cap; the
		// sum of their claims is not evidence of real classes beyond it.
		total = maxClasses
	}
	if ixErr == nil {
		// The index is authoritative when it parses: it also counts
		// chunks the framing walk never reached.
		total = ix.NumClasses()
	}
	if total < len(res.Classes) {
		// A lying index cannot make recovered classes count as lost.
		total = len(res.Classes)
	}
	res.TotalClasses = total
	attributed := 0
	for _, d := range res.V3Damage {
		attributed += d.ClassesLost
	}
	if un := total - len(res.Classes) - attributed; un > 0 {
		if len(res.V3Damage) == 0 {
			// The framing walk ended cleanly (e.g. a zeroed length uvarint
			// reads as the sentinel) yet the index counts more classes:
			// report the premature end itself.
			res.V3Damage = append(res.V3Damage, V3Damage{Chunk: -1,
				Err: corrupt.Errorf(sChunks, w.pos, "chunk framing ends early: %d classes unaccounted for", un)})
		}
		res.V3Damage[len(res.V3Damage)-1].ClassesLost += un
	}
	return res
}

// asCorrupt normalizes any decode failure to a *corrupt.Error, tagging
// errors from outside the taxonomy with the stream they surfaced in.
func asCorrupt(stream string, err error) *corrupt.Error {
	if ce, ok := corrupt.As(err); ok {
		return ce
	}
	return corrupt.New(stream, -1, err)
}
