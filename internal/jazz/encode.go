package jazz

import (
	"encoding/binary"
	"fmt"
	"math"

	"classpack/internal/archive"
	"classpack/internal/bytecode"
	"classpack/internal/classfile"
	"classpack/internal/encoding/huffman"
	"classpack/internal/encoding/varint"
)

// magic identifies a Jazz archive produced by this package.
var magic = [4]byte{'J', 'A', 'Z', '1'}

// jzWriter runs the two-pass structure walk: counting symbol frequencies,
// then emitting Huffman-coded references into one bitstream.
type jzWriter struct {
	g        *globalPool
	counting bool
	counts   [numAlphabets][]int
	codes    [numAlphabets]*huffman.Code
	bw       *huffman.BitWriter
}

func (w *jzWriter) ref(a alphabet, sym int) {
	if w.counting {
		w.counts[a][sym]++
		return
	}
	w.codes[a].Encode(w.bw, sym)
}

func (w *jzWriter) bits(v uint64, n uint) {
	if !w.counting {
		w.bw.WriteBits(v, n)
	}
}

// Pack encodes stripped classfiles into a Jazz archive.
func Pack(cfs []*classfile.ClassFile) ([]byte, error) {
	g := newGlobalPool()
	for _, cf := range cfs {
		if err := g.addFile(cf); err != nil {
			return nil, err
		}
	}
	w := &jzWriter{g: g, counting: true}
	for a := alphabet(0); a < numAlphabets; a++ {
		w.counts[a] = make([]int, g.size(a))
	}
	if err := w.walk(cfs); err != nil {
		return nil, err
	}
	// Build the fixed per-kind codes from global frequencies (§13.1).
	lengths := make([][]uint8, numAlphabets)
	for a := alphabet(0); a < numAlphabets; a++ {
		used := false
		for _, c := range w.counts[a] {
			if c > 0 {
				used = true
				break
			}
		}
		if !used {
			lengths[a] = make([]uint8, g.size(a))
			continue
		}
		code, err := huffman.New(w.counts[a])
		if err != nil {
			return nil, err
		}
		w.codes[a] = code
		lengths[a] = code.Lengths()
	}
	w.counting = false
	w.bw = &huffman.BitWriter{}
	if err := w.walk(cfs); err != nil {
		return nil, err
	}
	bitstream := w.bw.Bytes()

	// Header section: pool table + codebooks, DEFLATE-compressed.
	var header []byte
	header = g.serialize(header)
	for a := alphabet(0); a < numAlphabets; a++ {
		header = varint.AppendUint(header, uint64(len(lengths[a])))
		header = append(header, lengths[a]...)
	}
	header = varint.AppendUint(header, uint64(len(cfs)))
	compHeader, err := archive.Flate(header)
	if err != nil {
		return nil, err
	}

	out := append([]byte{}, magic[:]...)
	out = varint.AppendUint(out, uint64(len(compHeader)))
	out = varint.AppendUint(out, uint64(len(header)))
	out = append(out, compHeader...)
	out = varint.AppendUint(out, uint64(len(bitstream)))
	return append(out, bitstream...), nil
}

// serialize writes the global pool table (varint cross references).
func (g *globalPool) serialize(out []byte) []byte {
	out = varint.AppendUint(out, uint64(len(g.utf8)))
	for _, s := range g.utf8 {
		out = varint.AppendUint(out, uint64(len(s)))
		out = append(out, s...)
	}
	out = varint.AppendUint(out, uint64(len(g.ints)))
	for _, v := range g.ints {
		out = varint.AppendInt(out, int64(v))
	}
	out = varint.AppendUint(out, uint64(len(g.floats)))
	for _, v := range g.floats {
		out = binary.BigEndian.AppendUint32(out, math.Float32bits(v))
	}
	out = varint.AppendUint(out, uint64(len(g.longs)))
	for _, v := range g.longs {
		out = varint.AppendInt(out, v)
	}
	out = varint.AppendUint(out, uint64(len(g.doubles)))
	for _, v := range g.doubles {
		out = binary.BigEndian.AppendUint64(out, math.Float64bits(v))
	}
	appendRefList := func(out []byte, list []int) []byte {
		out = varint.AppendUint(out, uint64(len(list)))
		for _, v := range list {
			out = varint.AppendUint(out, uint64(v))
		}
		return out
	}
	out = appendRefList(out, g.classes)
	out = appendRefList(out, g.strings)
	appendPairList := func(out []byte, list [][2]int) []byte {
		out = varint.AppendUint(out, uint64(len(list)))
		for _, p := range list {
			out = varint.AppendUint(out, uint64(p[0]))
			out = varint.AppendUint(out, uint64(p[1]))
		}
		return out
	}
	out = appendPairList(out, g.nats)
	out = appendPairList(out, g.fields)
	out = appendPairList(out, g.methods)
	return appendPairList(out, g.imeths)
}

func (w *jzWriter) walk(cfs []*classfile.ClassFile) error {
	for _, cf := range cfs {
		if err := w.class(cf); err != nil {
			return fmt.Errorf("jazz: %s: %w", cf.ThisClassName(), err)
		}
	}
	return nil
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (w *jzWriter) class(cf *classfile.ClassFile) error {
	g := w.g
	w.bits(uint64(cf.MinorVersion), 16)
	w.bits(uint64(cf.MajorVersion), 16)
	w.bits(uint64(cf.AccessFlags), 16)
	synth, depr := classfile.Marks(cf.Attrs)
	var inner *classfile.InnerClassesAttr
	for _, a := range cf.Attrs {
		switch a := a.(type) {
		case *classfile.InnerClassesAttr:
			inner = a
		case *classfile.SyntheticAttr, *classfile.DeprecatedAttr:
		default:
			return fmt.Errorf("unsupported class attribute %s", a.AttrName())
		}
	}
	w.bits(boolBit(cf.SuperClass != 0), 1)
	w.bits(boolBit(inner != nil), 1)
	w.bits(boolBit(synth), 1)
	w.bits(boolBit(depr), 1)
	sub, err := g.classOf(cf, cf.ThisClass)
	if err != nil {
		return err
	}
	w.ref(aClass, sub)
	if cf.SuperClass != 0 {
		if sub, err = g.classOf(cf, cf.SuperClass); err != nil {
			return err
		}
		w.ref(aClass, sub)
	}
	w.bits(uint64(len(cf.Interfaces)), 16)
	for _, i := range cf.Interfaces {
		if sub, err = g.classOf(cf, i); err != nil {
			return err
		}
		w.ref(aClass, sub)
	}
	if inner != nil {
		w.bits(uint64(len(inner.Entries)), 16)
		for _, e := range inner.Entries {
			w.bits(uint64(e.AccessFlags), 16)
			if sub, err = g.classOf(cf, e.Inner); err != nil {
				return err
			}
			w.ref(aClass, sub)
			w.bits(boolBit(e.Outer != 0), 1)
			if e.Outer != 0 {
				if sub, err = g.classOf(cf, e.Outer); err != nil {
					return err
				}
				w.ref(aClass, sub)
			}
			w.bits(boolBit(e.InnerName != 0), 1)
			if e.InnerName != 0 {
				if sub, err = g.utf8Of(cf, e.InnerName); err != nil {
					return err
				}
				w.ref(aUtf8, sub)
			}
		}
	}
	w.bits(uint64(len(cf.Fields)), 16)
	for i := range cf.Fields {
		if err := w.field(cf, &cf.Fields[i]); err != nil {
			return err
		}
	}
	w.bits(uint64(len(cf.Methods)), 16)
	for i := range cf.Methods {
		if err := w.method(cf, &cf.Methods[i]); err != nil {
			return err
		}
	}
	return nil
}

func (w *jzWriter) field(cf *classfile.ClassFile, m *classfile.Member) error {
	g := w.g
	w.bits(uint64(m.AccessFlags), 16)
	sub, err := g.utf8Of(cf, m.Name)
	if err != nil {
		return err
	}
	w.ref(aUtf8, sub)
	if sub, err = g.utf8Of(cf, m.Desc); err != nil {
		return err
	}
	w.ref(aUtf8, sub)
	synth, depr := classfile.Marks(m.Attrs)
	var cv *classfile.ConstantValueAttr
	for _, a := range m.Attrs {
		if c, ok := a.(*classfile.ConstantValueAttr); ok {
			cv = c
		}
	}
	w.bits(boolBit(cv != nil), 1)
	w.bits(boolBit(synth), 1)
	w.bits(boolBit(depr), 1)
	if cv != nil {
		c := &cf.Pool[cv.Index]
		switch c.Kind {
		case classfile.KindInteger:
			w.ref(aCVInt, g.internInt(c.Int))
		case classfile.KindFloat:
			w.ref(aCVFloat, g.internFloat(c.Float))
		case classfile.KindLong:
			w.ref(aCVLong, g.internLong(c.Long))
		case classfile.KindDouble:
			w.ref(aCVDouble, g.internDouble(c.Double))
		case classfile.KindString:
			w.ref(aCVString, g.internString(cf.Utf8At(c.Str)))
		default:
			return fmt.Errorf("ConstantValue of %v", c.Kind)
		}
		// One tag bit pair selects the subpool on decode... the field
		// descriptor determines it instead; nothing extra to write.
	}
	return nil
}

func (w *jzWriter) method(cf *classfile.ClassFile, m *classfile.Member) error {
	g := w.g
	w.bits(uint64(m.AccessFlags), 16)
	sub, err := g.utf8Of(cf, m.Name)
	if err != nil {
		return err
	}
	w.ref(aUtf8, sub)
	if sub, err = g.utf8Of(cf, m.Desc); err != nil {
		return err
	}
	w.ref(aUtf8, sub)
	synth, depr := classfile.Marks(m.Attrs)
	code := classfile.CodeOf(m)
	var exc *classfile.ExceptionsAttr
	for _, a := range m.Attrs {
		if e, ok := a.(*classfile.ExceptionsAttr); ok {
			exc = e
		}
	}
	w.bits(boolBit(code != nil), 1)
	w.bits(boolBit(exc != nil), 1)
	w.bits(boolBit(synth), 1)
	w.bits(boolBit(depr), 1)
	if exc != nil {
		w.bits(uint64(len(exc.Classes)), 16)
		for _, c := range exc.Classes {
			if sub, err = g.classOf(cf, c); err != nil {
				return err
			}
			w.ref(aClass, sub)
		}
	}
	if code != nil {
		return w.code(cf, code)
	}
	return nil
}

func (w *jzWriter) code(cf *classfile.ClassFile, code *classfile.CodeAttr) error {
	g := w.g
	w.bits(uint64(code.MaxStack), 16)
	w.bits(uint64(code.MaxLocals), 16)
	w.bits(uint64(len(code.Handlers)), 16)
	for _, h := range code.Handlers {
		w.bits(uint64(h.StartPC), 16)
		w.bits(uint64(h.EndPC), 16)
		w.bits(uint64(h.HandlerPC), 16)
		w.bits(boolBit(h.CatchType != 0), 1)
		if h.CatchType != 0 {
			sub, err := g.classOf(cf, h.CatchType)
			if err != nil {
				return err
			}
			w.ref(aClass, sub)
		}
	}
	w.bits(uint64(len(code.Code)), 32)
	insns, err := bytecode.Decode(code.Code)
	if err != nil {
		return err
	}
	for i := range insns {
		if err := w.insn(cf, &insns[i]); err != nil {
			return err
		}
	}
	return nil
}

func (w *jzWriter) insn(cf *classfile.ClassFile, in *bytecode.Instruction) error {
	g := w.g
	if in.Wide {
		w.bits(uint64(bytecode.Wide), 8)
	}
	w.bits(uint64(in.Op), 8)
	switch bytecode.FormatOf(in.Op) {
	case bytecode.FmtNone:
	case bytecode.FmtLocal:
		if in.Wide {
			w.bits(uint64(in.A), 16)
		} else {
			w.bits(uint64(in.A), 8)
		}
	case bytecode.FmtIinc:
		if in.Wide {
			w.bits(uint64(in.A), 16)
			w.bits(uint64(uint16(int16(in.B))), 16)
		} else {
			w.bits(uint64(in.A), 8)
			w.bits(uint64(uint8(int8(in.B))), 8)
		}
	case bytecode.FmtSByte:
		w.bits(uint64(uint8(int8(in.A))), 8)
	case bytecode.FmtSShort:
		w.bits(uint64(uint16(int16(in.A))), 16)
	case bytecode.FmtNewArray:
		w.bits(uint64(in.A), 8)
	case bytecode.FmtCP1, bytecode.FmtCP2:
		switch in.Op {
		case bytecode.Ldc, bytecode.LdcW:
			sub, err := g.ldcUnion(cf, uint16(in.A))
			if err != nil {
				return err
			}
			w.ref(aLdc, sub)
		case bytecode.Ldc2W:
			sub, err := g.ldc2Union(cf, uint16(in.A))
			if err != nil {
				return err
			}
			w.ref(aLdc2, sub)
		case bytecode.Getfield, bytecode.Putfield, bytecode.Getstatic, bytecode.Putstatic:
			_, sub, err := g.memberOf(cf, uint16(in.A))
			if err != nil {
				return err
			}
			w.ref(aField, sub)
		case bytecode.Invokevirtual, bytecode.Invokespecial, bytecode.Invokestatic:
			_, sub, err := g.memberOf(cf, uint16(in.A))
			if err != nil {
				return err
			}
			w.ref(aMethod, sub)
		case bytecode.New, bytecode.Anewarray, bytecode.Checkcast, bytecode.Instanceof:
			sub, err := g.classOf(cf, uint16(in.A))
			if err != nil {
				return err
			}
			w.ref(aClass, sub)
		default:
			return fmt.Errorf("jazz: unexpected cp instruction %s", in.Op)
		}
	case bytecode.FmtInvokeInterface:
		_, sub, err := g.memberOf(cf, uint16(in.A))
		if err != nil {
			return err
		}
		w.ref(aIMeth, sub)
		w.bits(uint64(in.B), 8)
	case bytecode.FmtMultiANewArray:
		sub, err := g.classOf(cf, uint16(in.A))
		if err != nil {
			return err
		}
		w.ref(aClass, sub)
		w.bits(uint64(in.B), 8)
	case bytecode.FmtBranch2:
		w.bits(uint64(uint16(int16(in.A-in.Offset))), 16)
	case bytecode.FmtBranch4:
		w.bits(uint64(uint32(int32(in.A-in.Offset))), 32)
	case bytecode.FmtTableSwitch:
		w.bits(uint64(uint32(int32(in.Default-in.Offset))), 32)
		w.bits(uint64(uint32(in.Low)), 32)
		w.bits(uint64(uint32(len(in.Targets))), 32)
		for _, t := range in.Targets {
			w.bits(uint64(uint32(int32(t-in.Offset))), 32)
		}
	case bytecode.FmtLookupSwitch:
		w.bits(uint64(uint32(int32(in.Default-in.Offset))), 32)
		w.bits(uint64(uint32(len(in.Keys))), 32)
		for i, k := range in.Keys {
			w.bits(uint64(uint32(k)), 32)
			w.bits(uint64(uint32(int32(in.Targets[i]-in.Offset))), 32)
		}
	default:
		return fmt.Errorf("jazz: cannot encode %s", in.Op)
	}
	return nil
}
