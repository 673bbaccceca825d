// Package jazz reimplements the Jazz archive format of Bradley, Horspool
// and Vitek [BHV98] as described in §13.1 of the paper, to serve as the
// comparison baseline: a single global constant pool shared across all
// classfiles, retaining the standard kinds of constant-pool entries
// (no factoring of package names out of class names or class names out of
// signatures), with references coded by a fixed per-kind Huffman code that
// ignores locality of reference.
package jazz

import (
	"fmt"
	"math"

	"classpack/internal/classfile"
)

// globalPool is the deduplicated union of every classfile's constants,
// kept in per-kind subpools; references are (kind, subindex) pairs.
type globalPool struct {
	utf8    []string
	ints    []int32
	floats  []float32
	longs   []int64
	doubles []float64
	classes []int    // utf8 subindex
	strings []int    // utf8 subindex
	nats    [][2]int // name utf8, desc utf8
	fields  [][2]int // class subindex, nat subindex
	methods [][2]int
	imeths  [][2]int

	utf8Idx   map[string]int
	intIdx    map[int32]int
	floatIdx  map[uint32]int
	longIdx   map[int64]int
	doubleIdx map[uint64]int
	classIdx  map[int]int
	stringIdx map[int]int
	natIdx    map[[2]int]int
	fieldIdx  map[[2]int]int
	methodIdx map[[2]int]int
	imethIdx  map[[2]int]int
}

func newGlobalPool() *globalPool {
	return &globalPool{
		utf8Idx: map[string]int{}, intIdx: map[int32]int{},
		floatIdx: map[uint32]int{}, longIdx: map[int64]int{},
		doubleIdx: map[uint64]int{}, classIdx: map[int]int{},
		stringIdx: map[int]int{}, natIdx: map[[2]int]int{},
		fieldIdx: map[[2]int]int{}, methodIdx: map[[2]int]int{},
		imethIdx: map[[2]int]int{},
	}
}

func internIdx[K comparable](idx map[K]int, list *[]K, k K) int {
	if i, ok := idx[k]; ok {
		return i
	}
	i := len(*list)
	*list = append(*list, k)
	idx[k] = i
	return i
}

func (g *globalPool) internUtf8(s string) int { return internIdx(g.utf8Idx, &g.utf8, s) }
func (g *globalPool) internInt(v int32) int   { return internIdx(g.intIdx, &g.ints, v) }
func (g *globalPool) internLong(v int64) int  { return internIdx(g.longIdx, &g.longs, v) }

func (g *globalPool) internFloat(v float32) int {
	key := math.Float32bits(v)
	if i, ok := g.floatIdx[key]; ok {
		return i
	}
	i := len(g.floats)
	g.floats = append(g.floats, v)
	g.floatIdx[key] = i
	return i
}

func (g *globalPool) internDouble(v float64) int {
	key := math.Float64bits(v)
	if i, ok := g.doubleIdx[key]; ok {
		return i
	}
	i := len(g.doubles)
	g.doubles = append(g.doubles, v)
	g.doubleIdx[key] = i
	return i
}

func (g *globalPool) internClass(name string) int {
	u := g.internUtf8(name)
	if i, ok := g.classIdx[u]; ok {
		return i
	}
	i := len(g.classes)
	g.classes = append(g.classes, u)
	g.classIdx[u] = i
	return i
}

func (g *globalPool) internString(s string) int {
	u := g.internUtf8(s)
	if i, ok := g.stringIdx[u]; ok {
		return i
	}
	i := len(g.strings)
	g.strings = append(g.strings, u)
	g.stringIdx[u] = i
	return i
}

func (g *globalPool) internNAT(name, desc string) int {
	key := [2]int{g.internUtf8(name), g.internUtf8(desc)}
	return internIdx(g.natIdx, &g.nats, key)
}

func (g *globalPool) internMember(kind classfile.ConstKind, class, name, desc string) int {
	key := [2]int{g.internClass(class), g.internNAT(name, desc)}
	switch kind {
	case classfile.KindFieldref:
		return internIdx(g.fieldIdx, &g.fields, key)
	case classfile.KindMethodref:
		return internIdx(g.methodIdx, &g.methods, key)
	default:
		return internIdx(g.imethIdx, &g.imeths, key)
	}
}

// addFile interns every constant of a classfile into the global pool
// (stripped files contain only reachable constants).
func (g *globalPool) addFile(cf *classfile.ClassFile) error {
	for i := 1; i < len(cf.Pool); i++ {
		c := &cf.Pool[i]
		switch c.Kind {
		case classfile.KindUtf8:
			g.internUtf8(c.Utf8)
		case classfile.KindInteger:
			g.internInt(c.Int)
		case classfile.KindFloat:
			g.internFloat(c.Float)
		case classfile.KindLong:
			g.internLong(c.Long)
			i++
		case classfile.KindDouble:
			g.internDouble(c.Double)
			i++
		case classfile.KindClass:
			g.internClass(cf.Utf8At(c.Name))
		case classfile.KindString:
			g.internString(cf.Utf8At(c.Str))
		case classfile.KindNameAndType:
			g.internNAT(cf.Utf8At(c.Name), cf.Utf8At(c.Desc))
		case classfile.KindFieldref, classfile.KindMethodref, classfile.KindInterfaceMethodref:
			nat := cf.Pool[c.NameAndType]
			g.internMember(c.Kind, cf.ClassNameAt(c.Class), cf.Utf8At(nat.Name), cf.Utf8At(nat.Desc))
		case classfile.KindInvalid:
			return fmt.Errorf("jazz: stray invalid constant at %d", i)
		}
	}
	return nil
}

// Subindex resolution for a (file, pool index) reference.

func (g *globalPool) utf8Of(cf *classfile.ClassFile, idx uint16) (int, error) {
	if int(idx) >= len(cf.Pool) || cf.Pool[idx].Kind != classfile.KindUtf8 {
		return 0, fmt.Errorf("jazz: index %d is not Utf8", idx)
	}
	return g.internUtf8(cf.Pool[idx].Utf8), nil
}

func (g *globalPool) classOf(cf *classfile.ClassFile, idx uint16) (int, error) {
	if int(idx) >= len(cf.Pool) || cf.Pool[idx].Kind != classfile.KindClass {
		return 0, fmt.Errorf("jazz: index %d is not Class", idx)
	}
	return g.internClass(cf.ClassNameAt(idx)), nil
}

// memberOf maps the member reference at idx to its subpool index. The
// opcode that names it selects the subpool, so it must be of kind want.
func (g *globalPool) memberOf(cf *classfile.ClassFile, idx uint16, want classfile.ConstKind) (int, error) {
	if int(idx) >= len(cf.Pool) || cf.Pool[idx].Kind != want {
		return 0, fmt.Errorf("jazz: index %d is not %v", idx, want)
	}
	c := &cf.Pool[idx]
	nat := cf.Pool[c.NameAndType]
	return g.internMember(want, cf.ClassNameAt(c.Class), cf.Utf8At(nat.Name), cf.Utf8At(nat.Desc)), nil
}

// ldcUnion maps an ldc-able constant (int, float, string) to the union
// alphabet used for ldc operands, whose type is not known from context.
func (g *globalPool) ldcUnion(cf *classfile.ClassFile, idx uint16) (int, error) {
	if int(idx) >= len(cf.Pool) {
		return 0, fmt.Errorf("jazz: ldc index %d out of range", idx)
	}
	c := &cf.Pool[idx]
	switch c.Kind {
	case classfile.KindInteger:
		return g.internInt(c.Int), nil
	case classfile.KindFloat:
		return len(g.ints) + g.internFloat(c.Float), nil
	case classfile.KindString:
		return len(g.ints) + len(g.floats) + g.internString(cf.Utf8At(c.Str)), nil
	default:
		return 0, fmt.Errorf("jazz: ldc of %v", c.Kind)
	}
}

// ldc2Union maps a long or double to the ldc2 union alphabet.
func (g *globalPool) ldc2Union(cf *classfile.ClassFile, idx uint16) (int, error) {
	if int(idx) >= len(cf.Pool) {
		return 0, fmt.Errorf("jazz: ldc2 index %d out of range", idx)
	}
	c := &cf.Pool[idx]
	switch c.Kind {
	case classfile.KindLong:
		return g.internLong(c.Long), nil
	case classfile.KindDouble:
		return len(g.longs) + g.internDouble(c.Double), nil
	default:
		return 0, fmt.Errorf("jazz: ldc2 of %v", c.Kind)
	}
}

// Alphabet identifiers for the per-kind Huffman codes.
type alphabet int

const (
	aUtf8 alphabet = iota
	aClass
	aField
	aMethod
	aIMeth
	aLdc
	aLdc2
	aCVInt
	aCVFloat
	aCVLong
	aCVDouble
	aCVString
	numAlphabets
)

// size returns the symbol-space size of an alphabet given the pool.
func (g *globalPool) size(a alphabet) int {
	switch a {
	case aUtf8:
		return len(g.utf8)
	case aClass:
		return len(g.classes)
	case aField:
		return len(g.fields)
	case aMethod:
		return len(g.methods)
	case aIMeth:
		return len(g.imeths)
	case aLdc:
		return len(g.ints) + len(g.floats) + len(g.strings)
	case aLdc2:
		return len(g.longs) + len(g.doubles)
	case aCVInt:
		return len(g.ints)
	case aCVFloat:
		return len(g.floats)
	case aCVLong:
		return len(g.longs)
	case aCVDouble:
		return len(g.doubles)
	case aCVString:
		return len(g.strings)
	}
	return 0
}
