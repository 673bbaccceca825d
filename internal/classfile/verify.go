package classfile

import (
	"fmt"
	"math"
)

func float32Bits(v float32) uint32 { return math.Float32bits(v) }
func float64Bits(v float64) uint64 { return math.Float64bits(v) }

// Verify performs structural verification of the classfile: it must
// hold no attribute that CheckAttrs refuses, every constant-pool index
// the class holds must name an entry of a kind its field may hold,
// member descriptors must parse, a ConstantValue's kind must match its
// field's type, attribute names must match their types, and exception
// handlers must lie within their code. It does not decode bytecode; see
// the bytecode package.
func Verify(cf *ClassFile) error {
	if err := CheckAttrs(cf); err != nil {
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
		for _, a := range f.Attrs {
			// The walk above checked that the index names a constant.
			if cv, ok := a.(*ConstantValueAttr); ok && cf.Pool[cv.Index].Kind != ConstKindForType(t) {
				return fmt.Errorf("field %d: classfile: ConstantValue kind %v does not match field type %s",
					mi, cf.Pool[cv.Index].Kind, t)
			}
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
