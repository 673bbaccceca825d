// Package classpack compresses collections of Java class files into the
// packed wire format of William Pugh's "Compressing Java Class Files"
// (PLDI 1999), and decompresses such archives back into byte-identical
// class files.
//
// The format typically reaches 1/2 to 1/5 of the size of a compressed jar
// file by restructuring classfile information (factoring package names out
// of class names and class names out of type signatures), sharing
// constants across all files in the archive, encoding references through
// per-kind move-to-front queues keyed by an approximate stack state, and
// separating dissimilar data into independently DEFLATE-compressed
// streams.
//
// Basic usage:
//
//	packed, err := classpack.Pack(classfileBytes, nil)
//	...
//	files, err := classpack.Unpack(packed)
//
// As in the paper (§2), packing canonicalizes its input: debugging
// attributes (SourceFile, LineNumberTable, LocalVariableTable) and
// unrecognized attributes are removed, and the constant pool is
// garbage-collected and sorted. Unpack reproduces exactly those
// canonicalized files; Strip applies the same canonicalization alone, so
// Unpack(Pack(x)) == Strip(x) byte for byte. A class holding an
// attribute that the JVM reads is refused (ErrUnsupportedAttribute).
package classpack

import (
	"fmt"
	"sort"

	"classpack/internal/archive"
	"classpack/internal/classfile"
	"classpack/internal/core"
	"classpack/internal/corrupt"
	"classpack/internal/par"
	"classpack/internal/refs"
	"classpack/internal/strip"
	"classpack/internal/verifier"
)

// CorruptError describes malformed or hostile archive data: the wire
// stream (or container section) decoding broke in, the byte offset
// within it when one is known (-1 otherwise), and the underlying cause.
// Every Unpack-path failure caused by the archive bytes is a
// *CorruptError or wraps one; extract it with errors.As or AsCorrupt.
type CorruptError = corrupt.Error

// ErrTooLarge is wrapped (test with errors.Is) by decode failures caused
// by a resource cap — MaxDecodedBytes, MaxClassCount, or a structural
// per-item limit — rather than malformed bytes. It is how callers tell
// "decompression bomb" apart from "garbage input".
var ErrTooLarge = corrupt.ErrTooLarge

// ErrUnsupportedAttribute is wrapped (test with errors.Is) by the error
// that Pack, PackStats, PackStream, PackJar, Strip and every Verify mode
// give for a class holding an attribute that the JVM or the class
// libraries read (JVMS §4.7) and that this format cannot carry, such as
// StackMapTable or Signature. The error names the attribute, its owner
// and the class version.
var ErrUnsupportedAttribute = classfile.ErrUnsupportedAttribute

// AsCorrupt extracts the first *CorruptError in err's chain, if any.
func AsCorrupt(err error) (*CorruptError, bool) { return corrupt.As(err) }

// Scheme selects a reference-encoding scheme (§5.1 of the paper).
type Scheme = refs.Scheme

// Reference-encoding schemes usable in Options. MTFFull — move-to-front
// with transients and use context — is the paper's shipping configuration.
const (
	SchemeSimple        = refs.Simple
	SchemeBasic         = refs.Basic
	SchemeMTFBasic      = refs.MTFBasic
	SchemeMTFTransients = refs.MTFTransients
	SchemeMTFContext    = refs.MTFContext
	SchemeMTFFull       = refs.MTFFull
)

// SchemeByName maps the conventional command-line names (as used by
// jpack -scheme and the jpackd -scheme flag) to Scheme values. The
// empty string means the default, SchemeMTFFull.
func SchemeByName(name string) (Scheme, error) {
	switch name {
	case "simple":
		return SchemeSimple, nil
	case "basic":
		return SchemeBasic, nil
	case "mtf":
		return SchemeMTFBasic, nil
	case "mtf-transients":
		return SchemeMTFTransients, nil
	case "mtf-context":
		return SchemeMTFContext, nil
	case "mtf-full", "":
		return SchemeMTFFull, nil
	default:
		return 0, fmt.Errorf("unknown scheme %q", name)
	}
}

// Options control the packed format. The zero value is not valid; start
// from DefaultOptions.
type Options struct {
	// Scheme is the reference coding; it must be decodable
	// (SchemeSimple/Basic/MTF*).
	Scheme Scheme
	// StackState enables §7.1 typed-opcode collapsing and stack-context
	// method-reference pools.
	StackState bool
	// Compress enables per-stream DEFLATE compression.
	Compress bool
	// Preload seeds the reference pools with a standard table of common
	// JDK names (§14 of the paper); helpful mainly for small archives.
	Preload bool
	// Concurrency bounds the worker pool used for per-file
	// parse/canonicalize and per-stream compression, for building
	// decoded classes when unpacking, and when unpacking to a jar for
	// per-member DEFLATE: 0 means all cores, 1 reproduces the serial
	// path exactly. It is a local performance knob only — the packed and
	// jar bytes are identical for every value.
	Concurrency int
	// MaxDecodedBytes caps the total decoded size of all wire streams
	// during unpacking (0 = a 1 GiB default). The cap is charged against
	// each stream's declared size before anything is inflated or
	// allocated, so a small archive claiming a huge payload fails in
	// time and memory proportional to the archive itself, with an error
	// wrapping ErrTooLarge. Decode-side only; ignored by Pack.
	MaxDecodedBytes int64
	// MaxClassCount caps the number of classes unpacking will
	// materialize (0 = 1<<20). Decode-side only; ignored by Pack.
	MaxClassCount int
	// ChunkClasses selects the version-3 random-access layout: a
	// positive value groups that many classes per chunk, each chunk
	// encoded from reset reference models, with a trailing seekable
	// class index so OpenArchive can extract any class in O(chunk) work.
	// Zero (the default) keeps the monolithic version-2 layout. Smaller
	// chunks extract faster but compress worse — models reset at every
	// chunk boundary. 64 is a reasonable starting point.
	ChunkClasses int
	// ChunkCache, when non-nil, holds the decoded version-3 chunks of
	// every Archive opened with it, so a chunk decoded for one Archive
	// serves later extractions from any of them (see ChunkCache). Nil
	// gives each Archive a private cache of its most recently decoded
	// chunk. Read by OpenArchive (and so by Diff and ApplyDelta); ignored
	// elsewhere.
	ChunkCache *ChunkCache
}

// DefaultOptions returns the paper's evaluated configuration.
func DefaultOptions() Options {
	o := core.DefaultOptions()
	return Options{Scheme: o.Scheme, StackState: o.StackState, Compress: o.Compress}
}

func (o *Options) core() core.Options {
	if o == nil {
		return core.DefaultOptions()
	}
	return core.Options{Scheme: o.Scheme, StackState: o.StackState,
		Compress: o.Compress, Preload: o.Preload, Concurrency: o.Concurrency,
		ChunkClasses: o.ChunkClasses}
}

// unpackOpts extracts the decode-side knobs; coding choices are read
// from the archive header, so the rest of Options is ignored.
func (o *Options) unpackOpts() core.UnpackOpts {
	if o == nil {
		return core.UnpackOpts{}
	}
	return core.UnpackOpts{Concurrency: o.Concurrency,
		MaxDecodedBytes: o.MaxDecodedBytes, MaxClassCount: o.MaxClassCount}
}

// File is one class file by name. Names follow the jar convention:
// the class's binary name plus ".class".
type File struct {
	Name string
	Data []byte
}

// checkConcurrency rejects negative worker bounds up front with a
// clear error, instead of leaving the interpretation to the worker
// pool (which would silently treat them as "all cores").
func checkConcurrency(concurrency int) error {
	if concurrency < 0 {
		return fmt.Errorf("classpack: negative Concurrency %d (use 0 for all cores, 1 for serial)",
			concurrency)
	}
	return nil
}

// Pack parses, canonicalizes (Strip), and packs a collection of class
// files into a single archive. A nil opts uses DefaultOptions. Per-file
// parsing and canonicalization fan out over Options.Concurrency workers
// (negative values are an error); the packed bytes are identical for
// every worker count.
func Pack(files [][]byte, opts *Options) ([]byte, error) {
	c := opts.core()
	if err := checkConcurrency(c.Concurrency); err != nil {
		return nil, err
	}
	cfs, err := parseAndStrip(files, c.Concurrency)
	if err != nil {
		return nil, err
	}
	return core.Pack(cfs, c)
}

// parseAndStrip runs the per-file front half of the pack pipeline —
// parse plus §2 canonicalization — on a bounded worker pool, each worker
// reusing one strip scratch arena across all its files. Results land by
// index, so downstream encoding sees files in input order.
func parseAndStrip(files [][]byte, concurrency int) ([]*classfile.ClassFile, error) {
	cfs := make([]*classfile.ClassFile, len(files))
	scratch := make([]strip.Scratch, par.Workers(concurrency, len(files)))
	err := par.DoWorkers(concurrency, len(files), func(w, i int) error {
		cf, err := classfile.Parse(files[i])
		if err != nil {
			return fmt.Errorf("classpack: file %d: %w", i, err)
		}
		if err := strip.ApplyScratch(cf, strip.Options{}, &scratch[w]); err != nil {
			return fmt.Errorf("classpack: file %d: %w", i, err)
		}
		cfs[i] = cf
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cfs, nil
}

// Unpack decompresses a packed archive into class files using all
// cores and the default resource caps: UnpackOpts with nil options.
func Unpack(data []byte) ([]File, error) { return UnpackOpts(data, nil) }

// UnpackOpts decompresses a packed archive into class files with
// explicit decode options: Concurrency, MaxDecodedBytes and
// MaxClassCount are honored; the coding fields are ignored because the
// archive header fixes them. A nil opts uses all cores and the default
// caps. Stream decompression fans out first. The wire streams are then
// read on one goroutine (reference pools are stateful) while the
// workers build the decoded classes, and the final per-file
// serialization fans out again, re-sequenced by index. Decompression is
// deterministic: it reproduces Strip of each input file byte for byte,
// regardless of worker count. Failures caused by the archive bytes are
// *CorruptError values (or wrap one); cap violations additionally match
// ErrTooLarge. A negative Concurrency is an error.
func UnpackOpts(data []byte, opts *Options) ([]File, error) {
	o := opts.unpackOpts()
	if err := checkConcurrency(o.Concurrency); err != nil {
		return nil, err
	}
	var cfs []*classfile.ClassFile
	err := core.UnpackStreamOpts(data, o, func(cf *classfile.ClassFile) error {
		cfs = append(cfs, cf)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]File, len(cfs))
	err = par.Do(o.Concurrency, len(cfs), func(i int) error {
		raw, err := classfile.Write(cfs[i])
		if err != nil {
			return err
		}
		out[i] = File{Name: cfs[i].ThisClassName() + ".class", Data: raw}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// OrderForEagerLoading reorders class files so that every superclass
// precedes its subclasses (classes whose superclass is outside the set
// come first, then by inheritance depth). Packing in this order lets an
// eager loader define each decoded class immediately (§11: "we should
// make sure that the superclass of X ... appears in the archive before
// X"). The sort is stable within a depth.
func OrderForEagerLoading(files [][]byte) ([][]byte, error) {
	type entry struct {
		data  []byte
		name  string
		super string
	}
	entries := make([]entry, len(files))
	err := par.Do(0, len(files), func(i int) error {
		cf, err := classfile.Parse(files[i])
		if err != nil {
			return fmt.Errorf("classpack: file %d: %w", i, err)
		}
		entries[i] = entry{data: files[i], name: cf.ThisClassName(), super: cf.SuperClassName()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	byName := make(map[string]int, len(files))
	for i := range entries {
		byName[entries[i].name] = i
	}
	depth := make([]int, len(entries))
	var depthOf func(i int, guard int) int
	depthOf = func(i, guard int) int {
		if guard > len(entries) {
			return 0 // inheritance cycle in input; treat as root
		}
		if depth[i] != 0 {
			return depth[i]
		}
		d := 1
		if j, ok := byName[entries[i].super]; ok {
			d = 1 + depthOf(j, guard+1)
		}
		depth[i] = d
		return d
	}
	for i := range entries {
		depthOf(i, 0)
	}
	idx := make([]int, len(entries))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return depth[idx[a]] < depth[idx[b]] })
	out := make([][]byte, len(entries))
	for i, j := range idx {
		out[i] = entries[j].data
	}
	return out, nil
}

// Strip canonicalizes a single class file per §2 of the paper: debugging
// and unrecognized attributes are removed, and the constant pool is
// garbage-collected, deduplicated, and sorted.
func Strip(data []byte) ([]byte, error) {
	cf, err := classfile.Parse(data)
	if err != nil {
		return nil, err
	}
	if err := strip.Apply(cf, strip.Options{}); err != nil {
		return nil, err
	}
	return classfile.Write(cf)
}

// Verify structurally validates a class file: constant-pool cross
// references, member descriptors, and each method's code, under the
// rules Pack applies to it. Every instruction, reachable or not, must
// decode and name a constant of a kind its opcode takes, and every
// exception handler must lie on instruction boundaries.
func Verify(data []byte) error {
	_, err := verify(data)
	return err
}

// verify is Verify, returning the parsed class for the dataflow checks.
func verify(data []byte) (*classfile.ClassFile, error) {
	cf, err := classfile.Parse(data)
	if err != nil {
		return nil, err
	}
	if err := classfile.Verify(cf); err != nil {
		return nil, err
	}
	for mi := range cf.Methods {
		m := &cf.Methods[mi]
		if err := verifier.Static(cf, m); err != nil {
			return nil, fmt.Errorf("method %s%s: %w", cf.MemberName(m), cf.MemberDesc(m), err)
		}
	}
	return cf, nil
}

// VerifyAll verifies a collection of class files on up to concurrency
// workers (0 = all cores, 1 = serial) and returns one error slot per
// file, aligned with the input; nil entries are valid files. A negative
// concurrency fills every slot with the same validation error. With deep
// set, each file additionally passes through the dataflow bytecode
// verifier (see VerifyDeep).
func VerifyAll(files [][]byte, deep bool, concurrency int) []error {
	errs := make([]error, len(files))
	if err := checkConcurrency(concurrency); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	_ = par.Do(concurrency, len(files), func(i int) error {
		if deep {
			errs[i] = VerifyDeep(files[i])
		} else {
			errs[i] = Verify(files[i])
		}
		return nil
	})
	return errs
}

// VerifyDeep runs Verify, then a dataflow bytecode verifier over every
// method (pre-Java-6-style type inference: stack discipline, operand
// types, frame merges, definite assignment of locals). Reference types
// are checked typelessly — subtype relationships would require the full
// class hierarchy, which a single file does not carry.
func VerifyDeep(data []byte) error {
	cf, err := verify(data)
	if err != nil {
		return err
	}
	return verifier.Class(cf)
}

// MethodVerdict is one method's outcome from the dataflow bytecode
// verifier: either OK, or the failure located by pc and opcode.
type MethodVerdict struct {
	Class  string // class binary name
	Method string // method name
	Desc   string // method descriptor
	OK     bool
	PC     int    // failing bytecode offset; -1 when OK or when the failure is structural
	Op     string // failing opcode mnemonic; "" when OK or structural
	Err    string // failure message; "" when OK
}

// VerifyBytecode runs Verify, then the dataflow bytecode verifier over
// every method independently, returning one verdict per method rather
// than stopping at the first failure. The error is Verify's: damage to
// the file itself, which prevents any method from being judged.
func VerifyBytecode(data []byte) ([]MethodVerdict, error) {
	cf, err := verify(data)
	if err != nil {
		return nil, err
	}
	verdicts := verifier.ClassVerdicts(cf)
	out := make([]MethodVerdict, len(verdicts))
	for i, v := range verdicts {
		out[i] = MethodVerdict{
			Class:  cf.ThisClassName(),
			Method: v.Method,
			Desc:   v.Desc,
			OK:     v.OK(),
			PC:     -1,
		}
		if v.Err != nil {
			out[i].PC = v.Err.PC
			out[i].Op = v.Err.Op
			out[i].Err = v.Err.Err.Error()
		}
	}
	return out, nil
}

// PackJar packs every ".class" member of a jar (zip) archive, skipping
// other members, whose names are returned (§12: non-class files travel in
// a conventional jar alongside the packed archive).
func PackJar(jarData []byte, opts *Options) (packed []byte, skipped []string, err error) {
	members, err := archive.ReadJar(jarData)
	if err != nil {
		return nil, nil, err
	}
	var files [][]byte
	for _, m := range members {
		if len(m.Name) > 6 && m.Name[len(m.Name)-6:] == ".class" {
			files = append(files, m.Data)
		} else {
			skipped = append(skipped, m.Name)
		}
	}
	packed, err = Pack(files, opts)
	return packed, skipped, err
}

// UnpackToJar decompresses a packed archive and rebuilds a conventional
// jar file (per-file DEFLATE) from the classes, usable by any JVM:
// UnpackToJarOpts with nil options.
func UnpackToJar(data []byte) ([]byte, error) { return UnpackToJarOpts(data, nil) }

// UnpackToJarOpts is UnpackToJar with explicit decode options (see
// UnpackOpts); Concurrency also bounds the per-member DEFLATE.
func UnpackToJarOpts(data []byte, opts *Options) ([]byte, error) {
	files, err := UnpackOpts(data, opts)
	if err != nil {
		return nil, err
	}
	return jarFromFiles(files, opts.unpackOpts().Concurrency)
}

// jarFromFiles builds the jar, DEFLATE-compressing its members on up to
// concurrency workers (0 = all cores, 1 = serial); the bytes are the
// same for every value.
func jarFromFiles(files []File, concurrency int) ([]byte, error) {
	members := make([]archive.File, len(files))
	for i, f := range files {
		members[i] = archive.File{Name: f.Name, Data: f.Data}
	}
	return archive.WriteJarN(members, concurrency)
}

// JarFromFiles builds a conventional jar from class files — the same
// layout UnpackToJar produces — for callers assembling subsets via
// Archive.ExtractClasses. Members are compressed on all cores.
func JarFromFiles(files []File) ([]byte, error) { return jarFromFiles(files, 0) }

// Stats describes a packed archive's composition by stream category
// (the Table 6 breakdown): compressed bytes attributed to strings,
// opcodes, integers, references, and miscellaneous streams.
type Stats struct {
	Strings, Opcodes, Ints, Refs, Misc int
}

// PackStats packs the files and reports where the bytes went.
func PackStats(files [][]byte, opts *Options) (Stats, error) {
	c := opts.core()
	if err := checkConcurrency(c.Concurrency); err != nil {
		return Stats{}, err
	}
	cfs, err := parseAndStrip(files, c.Concurrency)
	if err != nil {
		return Stats{}, err
	}
	sizes, err := core.PackStats(cfs, c)
	if err != nil {
		return Stats{}, err
	}
	var s Stats
	for key, sz := range sizes {
		switch key[:3] {
		case "str":
			s.Strings += sz[1]
		case "ops":
			s.Opcodes += sz[1]
		case "int":
			s.Ints += sz[1]
		case "ref":
			s.Refs += sz[1]
		default:
			s.Misc += sz[1]
		}
	}
	return s, nil
}
