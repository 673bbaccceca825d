package classpack

import (
	"fmt"

	"classpack/internal/classfile"
	"classpack/internal/core"
	"classpack/internal/par"
)

// DamageRegion describes one damaged part of an archive found during
// salvage: the wire stream (or container section) it lies in, the byte
// offset within that stream or section (-1 when unknown), what went
// wrong, and how many classes the damage cost.
type DamageRegion struct {
	// Stream is the wire stream or container section ("container" for
	// the stream directory, "trailer" for the whole-archive checksum,
	// "classfile" for reserialization).
	Stream string `json:"stream"`
	// Offset is the byte position within Stream, -1 when unknown. For
	// checksum failures it is the stream payload's offset within the
	// container body.
	Offset int64 `json:"offset"`
	// Cause is the human-readable failure.
	Cause string `json:"cause"`
	// ClassesLost is how many classes this region cost: 0 for damage
	// decoding never touched, 1 for a single skipped class, and
	// everything from the first undecodable class onward for the region
	// that ended decoding (the format is sequential, so nothing after
	// the first decode failure can be trusted).
	ClassesLost int `json:"classes_lost"`
}

// SalvageResult is what Salvage pulled out of a damaged archive.
type SalvageResult struct {
	// Files are the recovered classes in archive order. For version-2
	// (checksummed) archives they are byte-identical to what a clean
	// unpack would have produced; version-1 archives carry no integrity
	// data, so damage that happens to decode is undetectable there.
	Files []File `json:"-"`
	// TotalClasses is the class count the archive's directory declared
	// (0 when the directory itself was unreadable).
	TotalClasses int `json:"total"`
	// Recovered == len(Files).
	Recovered int `json:"recovered"`
	// Lost = TotalClasses - Recovered.
	Lost int `json:"lost"`
	// Damage lists every damaged region found. Each container body (a
	// version-1/2 archive's one body, or a version-3 chunk in turn)
	// lists its quarantined streams in container order, with any
	// trailer or directory damage, then the failure that ended
	// decoding, which carries the classes it cost. A quarantined stream
	// that ended decoding is listed once, in that last place. Version-3
	// damage outside any chunk is listed where it was found, and
	// classes that failed to reserialize come last.
	Damage []DamageRegion `json:"damage,omitempty"`

	concurrency int // Salvage's Options.Concurrency, which Jar reuses
}

// Salvage decodes as much of a packed archive as possible instead of
// aborting on the first CorruptError the way Unpack does, and reports
// where the damage lies.
//
// Damage is isolated at two levels. Streams whose CRC32C fails (version
// 2 archives) or whose payload cannot be decoded are quarantined before
// class decoding starts; classes are then decoded sequentially until one
// reads quarantined or inconsistent data. Because the wire format is
// sequential and stateful, every class before that point is recovered
// byte-identically and everything after it is counted lost — salvage
// never returns a class it cannot vouch for. Version-3 archives narrow
// the failure domain further: chunks reset all model state, so a
// damaged chunk costs only its own classes and decoding resumes at the
// next chunk boundary (damage regions carry a "chunkN/" stream prefix).
// Classes that decode but fail to reserialize are skipped individually.
// On version-1 archives,
// which predate the checksums, salvage is best-effort: damage is only
// noticed when decoding trips over it, so recovered classes are not
// guaranteed byte-identical.
//
// The error return is reserved for inputs that are not a packed archive
// at all (bad magic, unknown version, undecodable scheme) and for
// invalid options; all archive damage is reported in the result.
func Salvage(data []byte, opts *Options) (*SalvageResult, error) {
	o := opts.unpackOpts()
	if err := checkConcurrency(o.Concurrency); err != nil {
		return nil, err
	}
	cres, err := core.Salvage(data, o)
	if err != nil {
		return nil, err
	}
	res := &SalvageResult{TotalClasses: cres.TotalClasses, concurrency: o.Concurrency}
	for _, d := range cres.Damage {
		r := DamageRegion{Stream: d.Err.Stream, Offset: d.Err.Offset, Cause: d.Err.Cause.Error(), ClassesLost: d.ClassesLost}
		if d.Chunk >= 0 {
			// Version-3 damage is chunk-attributed: the "chunkN/" prefix
			// names the failure domain a region lies in.
			r.Stream = fmt.Sprintf("chunk%d/%s", d.Chunk, r.Stream)
		}
		res.Damage = append(res.Damage, r)
	}
	reserializeInto(res, cres.Classes, o.Concurrency)
	return res, nil
}

// reserializeInto writes the decoded classes back to class-file bytes
// and fills in the result's Files and accounting. Reserialization is
// independent per class, so a class that decoded but cannot be written
// back is skipped alone — reported as a "classfile" damage region — and
// its neighbors survive.
func reserializeInto(res *SalvageResult, classes []*classfile.ClassFile, concurrency int) {
	type written struct {
		file File
		err  error
	}
	outs := make([]written, len(classes))
	_ = par.Do(concurrency, len(classes), func(i int) error {
		raw, err := classfile.Write(classes[i])
		if err != nil {
			outs[i].err = err
			return nil
		}
		outs[i].file = File{Name: classes[i].ThisClassName() + ".class", Data: raw}
		return nil
	})
	for i := range outs {
		if outs[i].err != nil {
			res.Damage = append(res.Damage, DamageRegion{
				Stream:      "classfile",
				Offset:      -1,
				Cause:       "reserialize class " + classes[i].ThisClassName() + ": " + outs[i].err.Error(),
				ClassesLost: 1,
			})
			continue
		}
		res.Files = append(res.Files, outs[i].file)
	}
	res.Recovered = len(res.Files)
	res.Lost = res.TotalClasses - res.Recovered
}

// Jar rebuilds a conventional jar from the recovered classes, the same
// layout UnpackToJar produces for a clean archive, compressing members
// with the Concurrency that Salvage was given.
func (r *SalvageResult) Jar() ([]byte, error) {
	return jarFromFiles(r.Files, r.concurrency)
}
