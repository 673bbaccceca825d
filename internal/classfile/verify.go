package classfile

import (
	"fmt"
	"math"
	"strings"
)

func float32Bits(v float32) uint32 { return math.Float32bits(v) }
func float64Bits(v float64) uint64 { return math.Float64bits(v) }

// Check refuses a class that the packed formats cannot carry as it is:
// one that holds an attribute CheckAttrs refuses or a name CheckNames
// refuses. Strip, and so Pack, and every Verify mode start with it, so
// they all refuse such a class alike.
func Check(cf *ClassFile) error {
	if err := CheckAttrs(cf); err != nil {
		return err
	}
	return CheckNames(cf)
}

// CheckNames refuses a class that holds a class name CheckClassName
// refuses: as a Class constant's name, the element class of an array
// type included, or as a class type in a member's or a NameAndType's
// descriptor. The packed formats factor each class name at its last
// '/', so such a name would not unpack as it was. An index that names
// no Utf8 constant is left to the reference checks, and a descriptor
// that does not parse to the descriptor checks.
func CheckNames(cf *ClassFile) error {
	for i := 1; i < len(cf.Pool); i++ {
		var err error
		switch c := &cf.Pool[i]; c.Kind {
		case KindClass:
			name, ok := cf.utf8(c.Name)
			switch {
			case !ok:
			case strings.HasPrefix(name, "["): // an array type
				err = checkDescriptorNames(name)
			default:
				err = CheckClassName(name)
			}
		case KindNameAndType:
			if desc, ok := cf.utf8(c.Desc); ok {
				err = checkDescriptorNames(desc)
			}
		}
		if err != nil {
			return fmt.Errorf("constant %d: classfile: %w", i, err)
		}
	}
	for _, ms := range []struct {
		what    string
		members []Member
	}{{"field", cf.Fields}, {"method", cf.Methods}} {
		for mi := range ms.members {
			if desc, ok := cf.utf8(ms.members[mi].Desc); ok {
				if err := checkDescriptorNames(desc); err != nil {
					return fmt.Errorf("%s %d: classfile: %w", ms.what, mi, err)
				}
			}
		}
	}
	return nil
}

// utf8 returns the string of the Utf8 constant at index i, if i names
// one.
func (cf *ClassFile) utf8(i uint16) (string, bool) {
	if int(i) < len(cf.Pool) && cf.Pool[i].Kind == KindUtf8 {
		return cf.Pool[i].Utf8, true
	}
	return "", false
}

// checkDescriptorNames applies CheckClassName to each class type of the
// field or method descriptor desc. Outside a class type an 'L' can only
// begin one, so the scan needs no full parse.
func checkDescriptorNames(desc string) error {
	for i := 0; i < len(desc); i++ {
		if desc[i] != 'L' {
			continue
		}
		end := strings.IndexByte(desc[i:], ';')
		if end < 0 {
			return nil
		}
		if err := CheckClassName(desc[i+1 : i+end]); err != nil {
			return fmt.Errorf("%w in descriptor %q", err, desc)
		}
		i += end
	}
	return nil
}

// Verify performs structural verification of the classfile: it must
// hold no attribute or name that Check refuses, every constant-pool index
// the class holds must name an entry of a kind its field may hold,
// member descriptors must parse, a ConstantValue's kind must match its
// field's type, attribute names must match their types, and exception
// handlers must lie within their code. It does not decode bytecode; see
// the bytecode package.
func Verify(cf *ClassFile) error {
	if err := Check(cf); err != nil {
		return err
	}
	var err error
	check := func(idx *uint16, want KindSet, what string) {
		if err == nil {
			err = cf.CheckRef(*idx, want, what)
		}
	}
	for i := 1; i < len(cf.Pool); i++ {
		c := &cf.Pool[i]
		if c.Kind == KindInvalid && !cf.Pool[i-1].Kind.Wide() {
			// Only the phantom slot after a wide constant may be invalid.
			return fmt.Errorf("constant %d: classfile: stray invalid constant", i)
		}
		if c.Refs(check); err != nil {
			return fmt.Errorf("constant %d: %w", i, err)
		}
		if c.Kind.Wide() {
			i++
		}
	}
	if cf.Refs(check); err != nil {
		return err
	}
	for mi := range cf.Fields {
		f := &cf.Fields[mi]
		t, err := ParseFieldDescriptor(cf.MemberDesc(f))
		if err != nil {
			return fmt.Errorf("field %d: %w", mi, err)
		}
		// The walk above checked that the index names a constant.
		if cv := AttrOf[*ConstantValueAttr](f.Attrs); cv != nil && cf.Pool[cv.Index].Kind != ConstKindForType(t) {
			return fmt.Errorf("field %d: classfile: ConstantValue kind %v does not match field type %s",
				mi, cf.Pool[cv.Index].Kind, t)
		}
		if err := verifyAttrs(cf, f.Attrs); err != nil {
			return fmt.Errorf("field %d: %w", mi, err)
		}
	}
	for mi := range cf.Methods {
		if _, _, err := ParseMethodDescriptor(cf.MemberDesc(&cf.Methods[mi])); err != nil {
			return fmt.Errorf("method %d: %w", mi, err)
		}
		if err := verifyAttrs(cf, cf.Methods[mi].Attrs); err != nil {
			return fmt.Errorf("method %d: %w", mi, err)
		}
	}
	return verifyAttrs(cf, cf.Attrs)
}

// verifyAttrs checks what the reference walk does not: that an
// attribute's name, where it has one, matches its type, and that every
// exception handler lies within its code.
func verifyAttrs(cf *ClassFile, attrs []Attribute) error {
	for _, a := range attrs {
		if idx := *a.nameRef(); idx != 0 && cf.Utf8At(idx) != a.AttrName() {
			return fmt.Errorf("classfile: attribute name index says %q, type says %q", cf.Utf8At(idx), a.AttrName())
		}
		code, ok := a.(*CodeAttr)
		if !ok {
			continue
		}
		for _, h := range code.Handlers {
			if int(h.StartPC) > len(code.Code) || int(h.EndPC) > len(code.Code) || int(h.HandlerPC) >= len(code.Code) {
				return fmt.Errorf("attribute Code: classfile: handler range [%d,%d)->%d outside code of length %d",
					h.StartPC, h.EndPC, h.HandlerPC, len(code.Code))
			}
		}
		if err := verifyAttrs(cf, code.Attrs); err != nil {
			return fmt.Errorf("attribute Code: %w", err)
		}
	}
	return nil
}
