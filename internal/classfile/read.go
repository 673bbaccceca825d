package classfile

import (
	"encoding/binary"
	"fmt"
)

// ParseError describes a malformed classfile.
type ParseError struct {
	Offset int
	Msg    string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("classfile: offset %d: %s", e.Offset, e.Msg)
}

type reader struct {
	buf []byte
	pos int
}

func (r *reader) fail(format string, args ...any) error {
	return &ParseError{Offset: r.pos, Msg: fmt.Sprintf(format, args...)}
}

func (r *reader) need(n int) error {
	if r.pos+n > len(r.buf) {
		return r.fail("need %d bytes, have %d", n, len(r.buf)-r.pos)
	}
	return nil
}

func (r *reader) u1() (byte, error) {
	if err := r.need(1); err != nil {
		return 0, err
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

func (r *reader) u2() (uint16, error) {
	if err := r.need(2); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint16(r.buf[r.pos:])
	r.pos += 2
	return v, nil
}

func (r *reader) u4() (uint32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v, nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if err := r.need(n); err != nil {
		return nil, err
	}
	b := r.buf[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	return b, nil
}

// Parse decodes a classfile from data.
//
// The returned ClassFile aliases data where it can instead of copying:
// ASCII pool strings and raw byte payloads (bytecode, attribute bodies)
// point into the input buffer. Callers must not modify data while the
// ClassFile — or any string taken from it — is still in use.
func Parse(data []byte) (*ClassFile, error) {
	// The codec escapes through the attributes' body methods, so it
	// shares the class's allocation.
	p := new(struct {
		cf ClassFile
		c  codec
	})
	cf, c := &p.cf, &p.c
	*c = codec{mode: decoding, r: reader{buf: data}, cf: cf}
	r := &c.r
	magic, err := r.u4()
	if err != nil {
		return nil, err
	}
	if magic != Magic {
		return nil, r.fail("bad magic 0x%08x", magic)
	}
	if cf.MinorVersion, err = r.u2(); err != nil {
		return nil, err
	}
	if cf.MajorVersion, err = r.u2(); err != nil {
		return nil, err
	}
	if err := parsePool(r, cf); err != nil {
		return nil, err
	}
	if cf.body(c); c.err != nil {
		return nil, c.err
	}
	if r.pos != len(data) {
		return nil, r.fail("%d trailing bytes", len(data)-r.pos)
	}
	return cf, nil
}

func parsePool(r *reader, cf *ClassFile) error {
	count, err := r.u2()
	if err != nil {
		return err
	}
	if count == 0 {
		return r.fail("constant pool count 0")
	}
	cf.Pool = make([]Constant, count)
	for i := 1; i < int(count); i++ {
		tag, err := r.u1()
		if err != nil {
			return err
		}
		c := &cf.Pool[i]
		c.Kind = ConstKind(tag)
		switch c.Kind {
		case KindUtf8:
			n, err := r.u2()
			if err != nil {
				return err
			}
			raw, err := r.bytes(int(n))
			if err != nil {
				return err
			}
			s, err := DecodeModifiedUTF8(raw)
			if err != nil {
				return r.fail("entry %d: %v", i, err)
			}
			c.Utf8 = s
		case KindInteger:
			v, err := r.u4()
			if err != nil {
				return err
			}
			c.Int = int32(v)
		case KindFloat:
			v, err := r.u4()
			if err != nil {
				return err
			}
			c.Float = float32FromBits(v)
		case KindLong:
			hi, err := r.u4()
			if err != nil {
				return err
			}
			lo, err := r.u4()
			if err != nil {
				return err
			}
			c.Long = int64(uint64(hi)<<32 | uint64(lo))
			i++ // phantom slot
		case KindDouble:
			hi, err := r.u4()
			if err != nil {
				return err
			}
			lo, err := r.u4()
			if err != nil {
				return err
			}
			c.Double = float64FromBits(uint64(hi)<<32 | uint64(lo))
			i++ // phantom slot
		case KindClass:
			if c.Name, err = r.u2(); err != nil {
				return err
			}
		case KindString:
			if c.Str, err = r.u2(); err != nil {
				return err
			}
		case KindFieldref, KindMethodref, KindInterfaceMethodref:
			if c.Class, err = r.u2(); err != nil {
				return err
			}
			if c.NameAndType, err = r.u2(); err != nil {
				return err
			}
		case KindNameAndType:
			if c.Name, err = r.u2(); err != nil {
				return err
			}
			if c.Desc, err = r.u2(); err != nil {
				return err
			}
		default:
			return r.fail("entry %d: unsupported constant tag %d", i, tag)
		}
	}
	return nil
}
