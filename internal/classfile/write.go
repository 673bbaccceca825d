package classfile

import (
	"fmt"
	"math"
)

func float32FromBits(v uint32) float32 { return math.Float32frombits(v) }
func float64FromBits(v uint64) float64 { return math.Float64frombits(v) }

type writer struct {
	buf []byte
	utf []byte // modified-UTF-8 scratch, reused across pool entries
}

// Each method appends to w.buf in place, so that the slice's pointer is
// stored only when the buffer grows: the codec that holds the writer is
// on the heap, where every pointer store pays the GC's write barrier.
func (w *writer) u1(v byte)    { w.buf = append(w.buf, v) }
func (w *writer) u2(v uint16)  { w.buf = append(w.buf, byte(v>>8), byte(v)) }
func (w *writer) u4(v uint32)  { w.buf = append(w.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v)) }
func (w *writer) raw(b []byte) { w.buf = append(w.buf, b...) }

// Write serializes the classfile.
func Write(cf *ClassFile) ([]byte, error) {
	c := &codec{mode: encoding, w: writer{buf: make([]byte, 0, 1024)}, cf: cf}
	w := &c.w
	w.u4(Magic)
	w.u2(cf.MinorVersion)
	w.u2(cf.MajorVersion)
	if err := writePool(w, cf); err != nil {
		return nil, err
	}
	if cf.body(c); c.err != nil {
		return nil, c.err
	}
	return w.buf, nil
}

func writePool(w *writer, cf *ClassFile) error {
	if len(cf.Pool) == 0 || len(cf.Pool) > 0xFFFF {
		return fmt.Errorf("classfile: constant pool size %d out of range", len(cf.Pool))
	}
	w.u2(uint16(len(cf.Pool)))
	for i := 1; i < len(cf.Pool); i++ {
		c := &cf.Pool[i]
		if c.Kind == KindInvalid {
			return fmt.Errorf("classfile: invalid constant at index %d", i)
		}
		w.u1(byte(c.Kind))
		switch c.Kind {
		case KindUtf8:
			w.utf = AppendModifiedUTF8(w.utf[:0], c.Utf8)
			if len(w.utf) > 0xFFFF {
				return fmt.Errorf("classfile: Utf8 entry %d too long (%d bytes)", i, len(w.utf))
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
			return fmt.Errorf("classfile: cannot write constant tag %d", c.Kind)
		}
	}
	return nil
}
