// Package core implements the paper's packed wire format for collections
// of Java class files: a symmetric preorder traversal of the restructured
// representation (§4) that encodes references through per-kind (and, for
// method references, per-stack-context) move-to-front pools (§5),
// separates dissimilar data into independently compressed streams (§7, §8),
// and collapses typed opcodes using the approximate stack state (§7.1).
//
// Decoding is deterministic: Unpack(Pack(files)) reproduces the stripped
// classfiles byte-for-byte.
package core

import (
	"classpack/internal/bytecode"
	"classpack/internal/classfile"
	"classpack/internal/refs"
)

// Magic identifies a packed archive.
var Magic = [4]byte{'C', 'J', 'P', '1'}

// Wire-format versions. Version 1 carries no integrity data; version 2
// adds a CRC32C (Castagnoli) of every stream's encoded payload to the
// stream directory and a whole-container trailer checksum. Version 3
// groups classes into chunks — each chunk an independent version-2-style
// checked container encoded from reset reference models — and appends a
// seekable class index, so any class can be extracted in O(chunk) work.
// The decoder dispatches on the header's version byte, so all three stay
// readable; Pack emits version 2 for the monolithic layout and version 3
// when Options.ChunkClasses asks for chunking.
const (
	Version1 = 1
	Version2 = 2
	Version3 = 3

	// version is what Pack emits when ChunkClasses is zero.
	version = Version2
)

// DefaultChunkClasses is the classes-per-chunk used by the version-3
// encoder when Options.ChunkClasses does not choose a positive value
// (PackVersion with Version3, PackStream).
const DefaultChunkClasses = 64

// Options control the encoder. The decoder reads the choices from the
// archive header, so any combination round-trips.
type Options struct {
	// Scheme selects the reference coding (must be Decodable). The paper's
	// shipping configuration is MTFFull (move-to-front with transients and
	// use context, §10).
	Scheme refs.Scheme
	// StackState enables the §7.1 opcode collapsing and the §5.1.6
	// stack-state contexts for method references.
	StackState bool
	// Compress enables per-stream DEFLATE (disable for the Table 5
	// "not gzip'd" ablation).
	Compress bool
	// Preload seeds every reference pool with a standard table of common
	// JDK names and references (the §14 extension). The flag travels in
	// the archive header; both sides must know the same table.
	Preload bool
	// Concurrency bounds the workers used for parallel stream
	// compression (0 = all cores, 1 = serial). It is a local performance
	// knob only: it does not travel in the archive header and never
	// changes the packed bytes.
	Concurrency int
	// ChunkClasses selects the version-3 chunked layout: a positive
	// value groups that many classes per chunk, each chunk encoded from
	// reset reference models into its own checked container, with a
	// seekable class index appended so single classes extract in
	// O(chunk) work. Zero (the default) keeps the monolithic version-2
	// layout. The value is recorded in the index, not the header byte.
	ChunkClasses int
}

// DefaultOptions is the paper's evaluated configuration (§10).
func DefaultOptions() Options {
	return Options{Scheme: refs.MTFFull, StackState: true, Compress: true}
}

// streamID identifies a wire stream, and streamNames gives its name in
// the container. The first path segment of a name is the Table 6
// category: str (Strings), ops (Opcodes), int (Ints), ref (Refs), msc
// (Misc). Both directions reach a stream by its ID; only the container
// and the corrupt errors name it.
type streamID uint8

const (
	sMeta     streamID = iota // counts, flags, lengths
	sMaxes                    // max_stack, max_locals
	sIntCV                    // integer constant values (fields)
	sIntLdc                   // integer constants loaded by ldc
	sIntImm                   // bipush/sipush/iinc immediates
	sOpcodes                  // one byte per instruction
	sRegs                     // register numbers
	sBranch                   // relative branch offsets
	sSwitch                   // switch defaults, bounds, keys, targets
	sHandler                  // exception handler pcs and catch flags
	sFloat                    // float bit patterns
	sDouble                   // double bit patterns
	sLong                     // long values
	sClassDef                 // class definitions: dims and primitive
	sMiscOp                   // newarray atype, multianewarray dims
	sRef                      // the ref stream of each pool, in poolID order

	// The length and the character streams of each string category, in
	// strCat order (§8: lengths separate from characters).
	sStrLen    = sRef + streamID(numPools)
	sStrChr    = sStrLen + streamID(numStrCats)
	numStreams = sStrChr + streamID(numStrCats)
)

var streamNames = [numStreams]string{
	sMeta: "int.meta", sMaxes: "int.code", sIntCV: "int.cv", sIntLdc: "int.ldc", sIntImm: "int.imm",
	sOpcodes: "ops.code", sRegs: "msc.reg", sBranch: "msc.branch", sSwitch: "msc.switch",
	sHandler: "msc.handler", sFloat: "msc.float", sDouble: "msc.double", sLong: "msc.long",
	sClassDef: "msc.classdef", sMiscOp: "msc.op",
	sRef: "ref.pkg", "ref.cls", "ref.class", "ref.sig", "ref.mname", "ref.fname",
	"ref.field.i", "ref.field.s", "ref.meth.v", "ref.meth.sp", "ref.meth.st", "ref.meth.if", "ref.strc",
	sStrLen: "str.pkg.len", "str.cls.len", "str.mname.len", "str.fname.len", "str.str.len",
	sStrChr: "str.pkg.chr", "str.cls.chr", "str.mname.chr", "str.fname.chr", "str.str.chr",
}

// String returns the stream's name in the container.
func (id streamID) String() string { return streamNames[id] }

// refsScheme narrows a header byte to a scheme value.
func refsScheme(b byte) refs.Scheme { return refs.Scheme(b) }

// poolID identifies a reference pool. Separate pools are kept for virtual,
// interface, static and special method references and for static and
// instance field references (§5.1); one method-name pool is shared
// across all method kinds (§5.1.6).
type poolID int

const (
	poolPackage poolID = iota
	poolSimple
	poolClass
	poolSig
	poolMethodName
	poolFieldName
	poolFieldInstance
	poolFieldStatic
	poolMethodVirtual
	poolMethodSpecial
	poolMethodStatic
	poolMethodInterface
	poolString
	numPools
)

// stream returns the pool's ref stream.
func (p poolID) stream() streamID { return sRef + streamID(p) }

// strCat identifies a string category (§8): the strings of one pool,
// whose new entries each category defines in its own length and
// character streams.
type strCat int

const (
	catPkg strCat = iota
	catCls
	catMname
	catFname
	catStr
	numStrCats
)

// strPools gives each string category's pool.
var strPools = [numStrCats]poolID{poolPackage, poolSimple, poolMethodName, poolFieldName, poolString}

// ldcOps lists the pseudo-opcodes that replace the constant-loading
// instructions in the wire opcode stream, opLdc onward. Each names the
// instruction, which keeps the ldc/ldc_w width, and the kind of constant
// it loads, which tells the decoder which value stream to read (§3
// footnote 1).
var ldcOps = [...]struct {
	op   bytecode.Op
	kind classfile.ConstKind
}{
	{bytecode.Ldc, classfile.KindInteger},
	{bytecode.Ldc, classfile.KindFloat},
	{bytecode.Ldc, classfile.KindString},
	{bytecode.LdcW, classfile.KindInteger},
	{bytecode.LdcW, classfile.KindFloat},
	{bytecode.LdcW, classfile.KindString},
	{bytecode.Ldc2W, classfile.KindLong},
	{bytecode.Ldc2W, classfile.KindDouble},
}

const (
	// opLdc is the first ldc pseudo-opcode.
	opLdc bytecode.Op = 0xca
	// numWireOps is the wire opcode alphabet size.
	numWireOps = int(opLdc) + len(ldcOps)
)

// Extended flag bits layered above the 16 JVM access-flag bits in the
// varint-coded flags word; generic attributes become flags (§4).
const (
	flagHasSuper   = 1 << 16 // class: has a superclass
	flagHasInner   = 1 << 17 // class: InnerClasses attribute present
	flagHasConst   = 1 << 16 // field: ConstantValue present
	flagHasCode    = 1 << 16 // method: Code attribute present
	flagSynthetic  = 1 << 18
	flagDeprecated = 1 << 19
	// Inner-class entry flags (above the entry's access bits).
	flagInnerHasOuter = 1 << 16
	flagInnerHasName  = 1 << 17
)
