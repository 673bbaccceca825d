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
	"fmt"
	"sort"

	"classpack/internal/bytecode"
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

// Stream names. The first path segment is the Table 6 category:
// str (Strings), ops (Opcodes), int (Ints), ref (Refs), msc (Misc).
const (
	sMeta     = "int.meta"   // counts, flags, lengths
	sMaxes    = "int.code"   // max_stack, max_locals
	sIntCV    = "int.cv"     // integer constant values (fields)
	sIntLdc   = "int.ldc"    // integer constants loaded by ldc
	sIntImm   = "int.imm"    // bipush/sipush/iinc immediates
	sOpcodes  = "ops.code"   // one byte per instruction
	sRegs     = "msc.reg"    // register numbers
	sBranch   = "msc.branch" // relative branch offsets
	sSwitch   = "msc.switch" // switch defaults, bounds, keys, targets
	sHandler  = "msc.handler"
	sFloat    = "msc.float"  // float bit patterns
	sDouble   = "msc.double" // double bit patterns
	sLong     = "msc.long"   // long values
	sClassDef = "msc.classdef"
	sMiscOp   = "msc.op" // newarray atype, multianewarray dims
)

// refsScheme narrows a header byte to a scheme value.
func refsScheme(b byte) refs.Scheme { return refs.Scheme(b) }

// refStream returns the index stream for a pool. The names are
// precomputed: building them per reference dominated the allocation
// profile of both directions.
func refStream(p poolID) string { return refStreamName[p] }

var refStreamName [numPools]string

// strCat identifies a string category (§8). Each category owns a
// length and a character stream; the pairs are precomputed like the
// ref streams.
type strCat int

const (
	catPkg strCat = iota
	catCls
	catMname
	catFname
	catStr
	numStrCats
)

var strCatName = [numStrCats]string{"pkg", "cls", "mname", "fname", "str"}

// strLenName and strChrName are the per-category length and character
// stream names (§8: lengths separate from characters).
var strLenName, strChrName [numStrCats]string

func init() {
	for p := range refStreamName {
		refStreamName[p] = "ref." + poolName[poolID(p)]
	}
	for c := range strCatName {
		strLenName[c] = "str." + strCatName[c] + ".len"
		strChrName[c] = "str." + strCatName[c] + ".chr"
	}
}

// poolID identifies a reference pool. Separate pools are kept for virtual,
// interface, static and special method references and for static and
// instance field references (§5.1).
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

var poolName = [numPools]string{
	"pkg", "cls", "class", "sig", "mname", "fname",
	"field.i", "field.s", "meth.v", "meth.sp", "meth.st", "meth.if", "strc",
}

// Pseudo-opcodes replacing the constant-loading instructions in the wire
// opcode stream; they name the constant's type so the decoder knows which
// value stream to read (§3 footnote 1) and preserve the ldc/ldc_w width.
const (
	opLdcInt     bytecode.Op = 0xca + iota // ldc of an Integer
	opLdcFloat                             // ldc of a Float
	opLdcString                            // ldc of a String
	opLdcWInt                              // ldc_w of an Integer
	opLdcWFloat                            // ldc_w of a Float
	opLdcWString                           // ldc_w of a String
	opLdc2Long                             // ldc2_w of a Long
	opLdc2Double                           // ldc2_w of a Double

	// numWireOps is the wire opcode alphabet size.
	numWireOps = int(opLdc2Double) + 1
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

// checkHandler holds one exception handler to its method's code, as
// JVMS §4.7.3 does: start_pc < end_pc <= code_length, start_pc and
// handler_pc lie on instruction boundaries, and end_pc lies on one or
// equals code_length. The method's n instructions start at the
// ascending offsets offset(0), …, offset(n-1). Pack refuses a handler
// that fails, and the decoder reports one as damage to msc.handler, so
// Unpack never reproduces a handler the JVM would reject.
func checkHandler(start, end, handler, codeLen, n int, offset func(i int) int) error {
	boundary := func(pc int) bool {
		i := sort.Search(n, func(i int) bool { return offset(i) >= pc })
		return i < n && offset(i) == pc
	}
	switch {
	case start >= end || end > codeLen:
		return fmt.Errorf("range [%d, %d) is not within code of length %d", start, end, codeLen)
	case !boundary(start):
		return fmt.Errorf("start_pc %d is not on an instruction boundary", start)
	case end < codeLen && !boundary(end):
		return fmt.Errorf("end_pc %d is not on an instruction boundary", end)
	case !boundary(handler):
		return fmt.Errorf("handler_pc %d is not on an instruction boundary of code of length %d", handler, codeLen)
	}
	return nil
}
