package core

import (
	"classpack/internal/classfile"
	"classpack/internal/corrupt"
	"classpack/internal/streams"
)

// SalvageResult is what Salvage recovered from a (possibly damaged)
// archive.
type SalvageResult struct {
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
	// consult Damage for which chunks lost classes.
	Classes []*classfile.ClassFile
	// Damage lists every piece of damage found, body by body. For each
	// container body — a version-1/2 archive's one body, or a version-3
	// chunk — it holds the damage the stream reader found, in the order
	// streams.NewSalvageReader reports it, then the failure that ended
	// decoding, which carries the classes it cost. A quarantined stream
	// only costs classes if decoding reads it; when it ends decoding, it
	// is listed once, last. Version-3 damage outside any chunk (chunk
	// framing, index, footer) comes where it is found.
	Damage []Damage
}

// Damage describes one piece of damage found while salvaging.
type Damage struct {
	// Chunk is the damaged version-3 chunk's index, or -1 for damage to
	// a version-1/2 body and for version-3 damage outside any chunk
	// (chunk framing, the class index, the footer).
	Chunk int
	// Err is the underlying failure.
	Err *corrupt.Error
	// ClassesLost is how many classes this damage cost: a body's
	// classes from the one that failed onward, charged to the failure
	// that ended its decoding. Version-3 classes that cannot be
	// attributed to a specific failure (chunks hidden behind framing
	// damage, chunks whose own class count was unreadable) are charged
	// to the last damage entry.
	ClassesLost int
}

// salvageBody decodes as many classes as possible from one container
// body, chunk ci of a version-3 archive or, with ci -1, a version-1/2
// body. Damaged streams are quarantined up front, and decoding stops at
// the first class that reads damaged or inconsistent data. It appends
// the classes and the damage to res and returns the body's declared
// class count (-1 when unreadable), its decoded wire-stream bytes (the
// budget charge) and how many classes it recovered.
func (res *SalvageResult) salvageBody(ci int, opts Options, o UnpackOpts, body []byte, checked bool) (declared int, decoded int64, recovered int) {
	r, damage := streams.NewSalvageReader(body, o.Concurrency, o.MaxDecodedBytes, checked)
	first := len(res.Classes)
	var err error
	declared, err = newUnpacker(opts, r).decodeClasses(o, nil, func(_ int, cf *classfile.ClassFile) error {
		res.Classes = append(res.Classes, cf)
		return nil
	})
	recovered = len(res.Classes) - first
	var abort *corrupt.Error
	if err != nil {
		abort = asCorrupt(sMeta.String(), err)
	}
	for _, d := range damage {
		if d != abort {
			res.Damage = append(res.Damage, Damage{Chunk: ci, Err: d})
		}
	}
	if abort != nil {
		lost := 0
		if declared >= 0 {
			lost = declared - recovered
		}
		res.Damage = append(res.Damage, Damage{Chunk: ci, Err: abort, ClassesLost: lost})
	}
	return declared, r.DecodedBytes(), recovered
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
	res := &SalvageResult{}
	declared, _, _ := res.salvageBody(-1, opts, o, data[6:], data[4] != Version1)
	res.TotalClasses = max(declared, 0)
	return res, nil
}

// salvageChunks is the chunk walker's salvage policy. The framing, not
// the index, drives recovery, so a destroyed index costs no classes:
// each chunk is salvaged in isolation, a framing fault ends the walk as
// container-level damage, and the index, when it parses, only supplies
// the class total. The shared decoded-bytes budget and class cap are
// charged per chunk as Unpack charges them.
func salvageChunks(data []byte, opts Options, o UnpackOpts) *SalvageResult {
	res := &SalvageResult{}
	ix, ixErr := ReadIndex(data, o)
	if ixErr != nil {
		res.Damage = append(res.Damage, Damage{Chunk: -1, Err: asCorrupt(sIndex, ixErr)})
	}
	maxClasses := EffectiveMaxClasses(o)
	declaredSum := 0
	w := &chunkWalker{data: data, pos: 6}
	err := w.walk(o, func(ci int, _ int64, body []byte, co UnpackOpts) (int64, int, error) {
		declared, decoded, recovered := res.salvageBody(ci, opts, co, body, true)
		declaredSum += max(declared, 0)
		return decoded, recovered, nil
	})
	if err != nil {
		res.Damage = append(res.Damage, Damage{Chunk: -1, Err: asCorrupt(sChunks, err)})
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
	for _, d := range res.Damage {
		attributed += d.ClassesLost
	}
	if un := total - len(res.Classes) - attributed; un > 0 {
		if len(res.Damage) == 0 {
			// The framing walk ended cleanly (e.g. a zeroed length uvarint
			// reads as the sentinel) yet the index counts more classes:
			// report the premature end itself.
			res.Damage = append(res.Damage, Damage{Chunk: -1,
				Err: corrupt.Errorf(sChunks, w.pos, "chunk framing ends early: %d classes unaccounted for", un)})
		}
		res.Damage[len(res.Damage)-1].ClassesLost += un
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
