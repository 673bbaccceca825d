package classfile

import (
	"encoding/binary"
	"fmt"
	"math"
)

func float32FromBits(v uint32) float32 { return math.Float32frombits(v) }
func float64FromBits(v uint64) float64 { return math.Float64frombits(v) }

type writer struct {
	buf []byte
	utf []byte // modified-UTF-8 scratch, reused across pool entries
	cf  *ClassFile
	err error
}

func (w *writer) u1(v byte)    { w.buf = append(w.buf, v) }
func (w *writer) u2(v uint16)  { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }
func (w *writer) u4(v uint32)  { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *writer) raw(b []byte) { w.buf = append(w.buf, b...) }

func (w *writer) setErr(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Write serializes the classfile.
func Write(cf *ClassFile) ([]byte, error) {
	w := &writer{cf: cf, buf: make([]byte, 0, 1024)}
	w.u4(Magic)
	w.u2(cf.MinorVersion)
	w.u2(cf.MajorVersion)
	writePool(w, cf)
	w.u2(cf.AccessFlags)
	w.u2(cf.ThisClass)
	w.u2(cf.SuperClass)
	w.u2(uint16(len(cf.Interfaces)))
	for _, i := range cf.Interfaces {
		w.u2(i)
	}
	writeMembers(w, cf.Fields)
	writeMembers(w, cf.Methods)
	writeAttrs(w, cf.Attrs)
	return w.buf, w.err
}

func writePool(w *writer, cf *ClassFile) {
	if len(cf.Pool) == 0 || len(cf.Pool) > 0xFFFF {
		w.setErr(fmt.Errorf("classfile: constant pool size %d out of range", len(cf.Pool)))
		return
	}
	w.u2(uint16(len(cf.Pool)))
	for i := 1; i < len(cf.Pool); i++ {
		c := &cf.Pool[i]
		if c.Kind == KindInvalid {
			w.setErr(fmt.Errorf("classfile: invalid constant at index %d", i))
			return
		}
		w.u1(byte(c.Kind))
		switch c.Kind {
		case KindUtf8:
			w.utf = AppendModifiedUTF8(w.utf[:0], c.Utf8)
			if len(w.utf) > 0xFFFF {
				w.setErr(fmt.Errorf("classfile: Utf8 entry %d too long (%d bytes)", i, len(w.utf)))
				return
			}
			w.u2(uint16(len(w.utf)))
			w.raw(w.utf)
		case KindInteger:
			w.u4(uint32(c.Int))
		case KindFloat:
			w.u4(math.Float32bits(c.Float))
		case KindLong:
			w.u4(uint32(uint64(c.Long) >> 32))
			w.u4(uint32(uint64(c.Long)))
			i++ // phantom slot
		case KindDouble:
			bits := math.Float64bits(c.Double)
			w.u4(uint32(bits >> 32))
			w.u4(uint32(bits))
			i++ // phantom slot
		case KindClass:
			w.u2(c.Name)
		case KindString:
			w.u2(c.Str)
		case KindFieldref, KindMethodref, KindInterfaceMethodref:
			w.u2(c.Class)
			w.u2(c.NameAndType)
		case KindNameAndType:
			w.u2(c.Name)
			w.u2(c.Desc)
		default:
			w.setErr(fmt.Errorf("classfile: cannot write constant tag %d", c.Kind))
			return
		}
	}
}

func writeMembers(w *writer, members []Member) {
	w.u2(uint16(len(members)))
	for i := range members {
		m := &members[i]
		w.u2(m.AccessFlags)
		w.u2(m.Name)
		w.u2(m.Desc)
		writeAttrs(w, m.Attrs)
	}
}

func writeAttrs(w *writer, attrs []Attribute) {
	w.u2(uint16(len(attrs)))
	for _, a := range attrs {
		writeAttr(w, a)
	}
}

// attrNameIndex resolves the pool index for an attribute's name, preferring
// the index recorded at parse time and falling back to a content lookup for
// programmatically built attributes.
func (w *writer) attrNameIndex(a Attribute) uint16 {
	if idx := *a.nameRef(); idx != 0 {
		return idx
	}
	name := a.AttrName()
	for i := 1; i < len(w.cf.Pool); i++ {
		if w.cf.Pool[i].Kind == KindUtf8 && w.cf.Pool[i].Utf8 == name {
			return uint16(i)
		}
	}
	w.setErr(fmt.Errorf("classfile: no Utf8 constant for attribute name %q", name))
	return 0
}

func writeAttr(w *writer, a Attribute) {
	w.u2(w.attrNameIndex(a))
	lenPos := len(w.buf)
	w.u4(0) // patched below
	switch a := a.(type) {
	case *CodeAttr:
		w.u2(a.MaxStack)
		w.u2(a.MaxLocals)
		w.u4(uint32(len(a.Code)))
		w.raw(a.Code)
		w.u2(uint16(len(a.Handlers)))
		for _, h := range a.Handlers {
			w.u2(h.StartPC)
			w.u2(h.EndPC)
			w.u2(h.HandlerPC)
			w.u2(h.CatchType)
		}
		writeAttrs(w, a.Attrs)
	case *ConstantValueAttr:
		w.u2(a.Index)
	case *ExceptionsAttr:
		w.u2(uint16(len(a.Classes)))
		for _, c := range a.Classes {
			w.u2(c)
		}
	case *SourceFileAttr:
		w.u2(a.Index)
	case *LineNumberTableAttr:
		w.u2(uint16(len(a.Entries)))
		for _, e := range a.Entries {
			w.u2(e.StartPC)
			w.u2(e.Line)
		}
	case *LocalVariableTableAttr:
		w.u2(uint16(len(a.Entries)))
		for _, e := range a.Entries {
			w.u2(e.StartPC)
			w.u2(e.Length)
			w.u2(e.Name)
			w.u2(e.Desc)
			w.u2(e.Slot)
		}
	case *SyntheticAttr, *DeprecatedAttr:
		// empty body
	case *InnerClassesAttr:
		w.u2(uint16(len(a.Entries)))
		for _, e := range a.Entries {
			w.u2(e.Inner)
			w.u2(e.Outer)
			w.u2(e.InnerName)
			w.u2(e.AccessFlags)
		}
	case *UnknownAttr:
		w.raw(a.Data)
	default:
		w.setErr(fmt.Errorf("classfile: cannot write attribute %T", a))
	}
	binary.BigEndian.PutUint32(w.buf[lenPos:], uint32(len(w.buf)-lenPos-4))
}
