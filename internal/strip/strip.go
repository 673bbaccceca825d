// Package strip implements the §2 canonicalizations the paper applies
// before any compression, to make jar-format comparisons fair:
//
//   - remove LineNumberTable, LocalVariableTable and SourceFile attributes
//     (and, optionally, unrecognized attributes, which the pack format
//     cannot renumber);
//   - garbage-collect the constant pool, merging duplicate entries;
//   - sort constant-pool entries by type, and Utf8 entries by content.
//
// Renumbering honors §9: integer, float and string constants referenced by
// the one-byte ldc instruction are placed at the smallest indices so ldc
// never needs to grow into ldc_w, keeping all code offsets valid.
package strip

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"classpack/internal/bytecode"
	"classpack/internal/classfile"
	"classpack/internal/par"
)

// Options selects which transformations Apply performs. Unrecognized
// attributes are always dropped: their constant-pool references cannot be
// updated during renumbering (§2 of the paper).
type Options struct {
	// KeepDebug retains LineNumberTable/LocalVariableTable/SourceFile.
	KeepDebug bool
}

// Apply transforms cf in place. It reports an error if the class holds
// an attribute or a name that classfile.Check refuses, if its bytecode
// cannot be decoded, or if a pool index the class keeps is zero, past
// the pool, or names a constant of a kind its field cannot hold.
func Apply(cf *classfile.ClassFile, opts Options) error {
	return ApplyScratch(cf, opts, nil)
}

// Scratch holds the reusable working memory of one renumber pass:
// the decoded-instruction arena and the per-slot and content-key tables.
// One Scratch serves one goroutine; passing the same Scratch to
// successive Apply calls eliminates nearly all per-file allocation.
// The zero value is ready for use.
type Scratch struct {
	arena   []bytecode.Instruction
	codes   []decodedCode
	used    []bool
	ldcRef  []bool
	rep     []uint16          // slot -> first used slot with the same content
	newIdx  []uint16          // slot -> its index in the renumbered pool
	entries []entry           // one per distinct constant, in new pool order
	first   map[string]uint16 // content key -> first used slot holding it
	kbuf    []byte
}

// entry is one distinct constant of the renumbered pool.
type entry struct {
	key   string
	group int
	slot  uint16 // the first used slot holding it
}

// table returns buf resized to n and cleared, reallocating only when
// it has grown.
func table[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// ApplyScratch is Apply with caller-owned scratch memory (nil behaves
// like Apply).
func ApplyScratch(cf *classfile.ClassFile, opts Options, sc *Scratch) error {
	if err := classfile.Check(cf); err != nil {
		return err
	}
	dropAttrs(cf, opts)
	return renumber(cf, nil, sc)
}

// Renumber performs the garbage-collect/sort/renumber step on a class
// whose Code attributes are given as decoded instruction lists, because
// their byte arrays do not exist yet; the unpackers use it to build
// canonical classfiles without first encoding code with out-of-range
// ldc indices. sc may be nil.
func Renumber(cf *classfile.ClassFile, decoded map[*classfile.CodeAttr][]bytecode.Instruction, sc *Scratch) error {
	dropAttrs(cf, Options{})
	return renumber(cf, decoded, sc)
}

// ApplyAllN strips the classfiles on up to concurrency workers (<= 0
// meaning all cores). Each classfile is canonicalized in place and
// independently of the others, so the result is identical for every
// worker count; the error returned is the one the serial loop would
// report first.
func ApplyAllN(cfs []*classfile.ClassFile, opts Options, concurrency int) error {
	scratch := make([]Scratch, par.Workers(concurrency, len(cfs)))
	return par.DoWorkers(concurrency, len(cfs), func(w, i int) error {
		if err := ApplyScratch(cfs[i], opts, &scratch[w]); err != nil {
			return fmt.Errorf("strip %s: %w", cfs[i].ThisClassName(), err)
		}
		return nil
	})
}

func keepAttr(a classfile.Attribute, opts Options) bool {
	switch a.(type) {
	case *classfile.LineNumberTableAttr, *classfile.LocalVariableTableAttr, *classfile.SourceFileAttr:
		return opts.KeepDebug
	case *classfile.UnknownAttr:
		return false
	default:
		return true
	}
}

func filterAttrs(attrs []classfile.Attribute, opts Options) []classfile.Attribute {
	out := attrs[:0]
	for _, a := range attrs {
		if !keepAttr(a, opts) {
			continue
		}
		if c, ok := a.(*classfile.CodeAttr); ok {
			c.Attrs = filterAttrs(c.Attrs, opts)
		}
		out = append(out, a)
	}
	return out
}

func dropAttrs(cf *classfile.ClassFile, opts Options) {
	cf.Attrs = filterAttrs(cf.Attrs, opts)
	for i := range cf.Fields {
		cf.Fields[i].Attrs = filterAttrs(cf.Fields[i].Attrs, opts)
	}
	for i := range cf.Methods {
		cf.Methods[i].Attrs = filterAttrs(cf.Methods[i].Attrs, opts)
	}
}

// attrRank fixes a canonical attribute order so that files rebuilt by the
// unpacker serialize identically to stripped originals.
func attrRank(a classfile.Attribute) int {
	switch a.(type) {
	case *classfile.CodeAttr, *classfile.ConstantValueAttr, *classfile.InnerClassesAttr:
		return 0
	case *classfile.ExceptionsAttr:
		return 1
	case *classfile.SourceFileAttr:
		return 2
	case *classfile.LineNumberTableAttr:
		return 3
	case *classfile.LocalVariableTableAttr:
		return 4
	case *classfile.SyntheticAttr:
		return 5
	case *classfile.DeprecatedAttr:
		return 6
	default:
		return 7
	}
}

// normalizeAttrs sorts attributes into canonical order and drops empty
// Exceptions and InnerClasses attributes (they carry no information and
// the wire format cannot distinguish them from absence).
func normalizeAttrs(attrs []classfile.Attribute) []classfile.Attribute {
	out := attrs[:0]
	for _, a := range attrs {
		switch a := a.(type) {
		case *classfile.ExceptionsAttr:
			if len(a.Classes) == 0 {
				continue
			}
		case *classfile.InnerClassesAttr:
			if len(a.Entries) == 0 {
				continue
			}
		case *classfile.CodeAttr:
			a.Attrs = normalizeAttrs(a.Attrs)
		}
		out = append(out, a)
	}
	sort.SliceStable(out, func(i, j int) bool { return attrRank(out[i]) < attrRank(out[j]) })
	return out
}

// sortGroup assigns the coarse ordering of §2/§9: ldc-referenced scalars
// first (so they land at one-byte indices), then other scalars, wide
// constants, symbolic entries, and finally Utf8 sorted by content.
func sortGroup(kind classfile.ConstKind, ldcRef bool) int {
	if ldcRef {
		return 0
	}
	switch kind {
	case classfile.KindInteger:
		return 1
	case classfile.KindFloat:
		return 2
	case classfile.KindString:
		return 3
	case classfile.KindLong:
		return 4
	case classfile.KindDouble:
		return 5
	case classfile.KindClass:
		return 6
	case classfile.KindNameAndType:
		return 7
	case classfile.KindFieldref:
		return 8
	case classfile.KindMethodref:
		return 9
	case classfile.KindInterfaceMethodref:
		return 10
	case classfile.KindUtf8:
		return 11
	default:
		return 12
	}
}

// appendContentKey appends a key that identifies the constant at idx by
// value, used both to merge duplicates and as the deterministic sort key.
// The bytes replicate the historical fmt verbs exactly ("%d", "%08x",
// "%016x"): the keys order the renumbered pool, so any drift changes
// packed output.
func appendContentKey(dst []byte, pool []classfile.Constant, idx uint16, depth int) []byte {
	if idx == 0 || int(idx) >= len(pool) || depth > 4 {
		return strconv.AppendUint(append(dst, '!'), uint64(idx), 10)
	}
	c := &pool[idx]
	switch c.Kind {
	case classfile.KindUtf8:
		return append(append(dst, 'u'), c.Utf8...)
	case classfile.KindInteger:
		return strconv.AppendInt(append(dst, 'i'), int64(c.Int), 10)
	case classfile.KindFloat:
		return appendHexPad(append(dst, 'f'), uint64(float32Bits(c.Float)), 8)
	case classfile.KindLong:
		return strconv.AppendInt(append(dst, 'j'), c.Long, 10)
	case classfile.KindDouble:
		return appendHexPad(append(dst, 'd'), float64Bits(c.Double), 16)
	case classfile.KindClass:
		return appendContentKey(append(dst, 'c'), pool, c.Name, depth+1)
	case classfile.KindString:
		return appendContentKey(append(dst, 's'), pool, c.Str, depth+1)
	case classfile.KindNameAndType:
		dst = appendContentKey(append(dst, 'n'), pool, c.Name, depth+1)
		return appendContentKey(append(dst, 0), pool, c.Desc, depth+1)
	case classfile.KindFieldref, classfile.KindMethodref, classfile.KindInterfaceMethodref:
		dst = appendContentKey(append(dst, 'A'+byte(c.Kind)), pool, c.Class, depth+1)
		return appendContentKey(append(dst, 0), pool, c.NameAndType, depth+1)
	default:
		return strconv.AppendUint(append(dst, '?'), uint64(idx), 10)
	}
}

// appendHexPad appends v as exactly width lowercase hex digits
// (fmt's "%0<width>x" for values that fit).
func appendHexPad(dst []byte, v uint64, width int) []byte {
	const digits = "0123456789abcdef"
	var buf [16]byte
	for i := width - 1; i >= 0; i-- {
		buf[i] = digits[v&0xf]
		v >>= 4
	}
	return append(dst, buf[:width]...)
}

// decodedCode records one Code attribute's decoded instructions: either a
// caller-supplied slice (insns non-nil, the unpack path) or a range of
// the Scratch arena (the arena may have been reallocated by later
// appends, so ranges are resolved against the final arena).
type decodedCode struct {
	attr       *classfile.CodeAttr
	insns      []bytecode.Instruction
	start, end int
}

func renumber(cf *classfile.ClassFile, decoded map[*classfile.CodeAttr][]bytecode.Instruction, sc *Scratch) error {
	if sc == nil {
		sc = &Scratch{}
	}
	cf.Attrs = normalizeAttrs(cf.Attrs)
	for i := range cf.Fields {
		cf.Fields[i].Attrs = normalizeAttrs(cf.Fields[i].Attrs)
	}
	for i := range cf.Methods {
		cf.Methods[i].Attrs = normalizeAttrs(cf.Methods[i].Attrs)
	}
	pool := cf.Pool
	sc.used = table(sc.used, len(pool))
	sc.ldcRef = table(sc.ldcRef, len(pool))
	used, ldcRef := sc.used, sc.ldcRef

	// Mark every constant the class reaches, checking each index on the
	// way: one that is zero, past the pool, or of a kind its field
	// cannot hold fails the class, and err keeps the first such index.
	var err error
	var check func(i uint16, want classfile.KindSet, what string)
	visit := func(p *uint16, want classfile.KindSet, what string) { check(*p, want, what) }
	check = func(i uint16, want classfile.KindSet, what string) {
		if err != nil {
			return
		}
		if err = cf.CheckRef(i, want, what); err != nil || used[i] {
			return
		}
		used[i] = true
		if pool[i].Refs(visit); err != nil {
			err = fmt.Errorf("constant %d: %w", i, err)
		}
	}
	if cf.Refs(visit); err != nil {
		return err
	}

	codes := sc.codes[:0]
	arena := sc.arena[:0]
	for mi := range cf.Methods {
		m := &cf.Methods[mi]
		code := classfile.CodeOf(m)
		if code == nil {
			continue
		}
		dc := decodedCode{attr: code}
		insns, ok := decoded[code]
		if !ok {
			start := len(arena)
			grown, err := bytecode.DecodeAppend(arena, code.Code)
			if err != nil {
				return fmt.Errorf("method %s%s: %w", cf.MemberName(m), cf.MemberDesc(m), err)
			}
			arena = grown
			dc.start, dc.end = start, len(arena)
			insns = arena[start:] // valid for marking until the next append
		} else {
			dc.insns = insns
		}
		for i := range insns {
			in := &insns[i]
			if !bytecode.IsCPRef(in.Op) {
				continue
			}
			if check(uint16(in.A), classfile.OperandKinds, in.Op.String()); err != nil {
				return fmt.Errorf("method %s%s: %w", cf.MemberName(m), cf.MemberDesc(m), err)
			}
			if in.Op == bytecode.Ldc {
				ldcRef[in.A] = true
			}
		}
		codes = append(codes, dc)
	}
	sc.arena, sc.codes = arena, codes

	// Merge duplicates: each used slot's representative is the first
	// used slot with the same content, and a constant is ldc-referenced
	// if any duplicate of it is.
	sc.rep = table(sc.rep, len(pool))
	sc.newIdx = table(sc.newIdx, len(pool))
	rep, newIdx := sc.rep, sc.newIdx
	if sc.first == nil {
		sc.first = make(map[string]uint16)
	}
	clear(sc.first)
	entries := sc.entries[:0]
	for i := 1; i < len(pool); i++ {
		if !used[i] {
			continue
		}
		sc.kbuf = appendContentKey(sc.kbuf[:0], pool, uint16(i), 0)
		r, ok := sc.first[string(sc.kbuf)]
		if !ok {
			r = uint16(i)
			key := string(sc.kbuf)
			sc.first[key] = r
			entries = append(entries, entry{key: key, slot: r})
		}
		rep[i] = r
		if ldcRef[i] {
			ldcRef[r] = true
		}
	}
	// Order the survivors. Their keys are distinct, so the order is total.
	for k := range entries {
		e := &entries[k]
		e.group = sortGroup(pool[e.slot].Kind, ldcRef[e.slot])
	}
	slices.SortFunc(entries, func(a, b entry) int {
		if a.group != b.group {
			return a.group - b.group
		}
		return strings.Compare(a.key, b.key)
	})
	sc.entries = entries

	// Lay out the new pool and build the translation table.
	newPool := make([]classfile.Constant, 1, len(pool))
	for _, e := range entries {
		newIdx[e.slot] = uint16(len(newPool))
		newPool = append(newPool, pool[e.slot])
		if pool[e.slot].Kind.Wide() {
			newPool = append(newPool, classfile.Constant{})
		}
	}
	if len(newPool) > 0xFFFF {
		return fmt.Errorf("strip: renumbered pool overflows (%d entries)", len(newPool))
	}
	for i := 1; i < len(pool); i++ {
		if used[i] {
			newIdx[i] = newIdx[rep[i]]
			// Verify the §9 guarantee before rewriting any code.
			if ldcRef[i] && newIdx[i] > 0xff {
				return fmt.Errorf("strip: ldc constant remapped to index %d > 255", newIdx[i])
			}
		}
	}

	// Rewrite every reference: in the pool, the header, members and
	// attributes, then bytecode operands, re-encoding the code.
	remap := func(p *uint16, _ classfile.KindSet, _ string) { *p = newIdx[*p] }
	for i := range newPool {
		newPool[i].Refs(remap)
	}
	cf.Refs(remap)
	for _, dc := range codes {
		insns := dc.insns
		if insns == nil {
			insns = arena[dc.start:dc.end]
		}
		for i := range insns {
			in := &insns[i]
			if bytecode.IsCPRef(in.Op) {
				in.A = int(newIdx[in.A])
			}
		}
		code, err := bytecode.Encode(insns)
		if err != nil {
			return fmt.Errorf("strip: re-encode: %w", err)
		}
		if dc.attr.Code != nil && len(code) != len(dc.attr.Code) {
			return fmt.Errorf("strip: code size changed from %d to %d", len(dc.attr.Code), len(code))
		}
		dc.attr.Code = code
	}
	cf.Pool = newPool
	return nil
}

func float32Bits(v float32) uint32 { return math.Float32bits(v) }
func float64Bits(v float64) uint64 { return math.Float64bits(v) }
