package classfile

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// A codec turns the one statement of a layout into each thing done
// with it. ClassFile.body states everything after the constant pool,
// and each Attribute type's body states that attribute's fields, once
// and in file order. A decoding codec fills the fields from its input
// (Parse), an encoding codec appends them to its output (Write), and a
// walking codec visits the pool indices among them (ClassFile.Refs).
type codec struct {
	mode  codecMode
	r     reader     // decoding: the input, or the body of the attribute being read
	w     writer     // encoding
	visit RefVisitor // walking
	cf    *ClassFile // the class, whose pool holds the attribute names
	err   error      // the first failure; a decoding codec reads nothing after it
}

type codecMode uint8

const (
	decoding codecMode = iota
	encoding
	walking
)

// u2 states a u2 field.
func (c *codec) u2(p *uint16) {
	switch c.mode {
	case decoding:
		if c.err == nil {
			var err error
			if *p, err = c.r.u2(); err != nil {
				// Only a failure is stored: each pointer store into the
				// codec, which lives on the heap, pays a write barrier.
				c.err = err
			}
		}
	case encoding:
		c.w.u2(*p)
	}
}

// ref states a u2 pool index, which must name a constant of a kind in
// want; what names the field to the walk's visitor.
func (c *codec) ref(p *uint16, want KindSet, what string) {
	if c.mode == walking {
		c.visit(p, want, what)
		return
	}
	c.u2(p)
}

// optRef states a pool index that is 0 when unset; the walk skips it then.
func (c *codec) optRef(p *uint16, want KindSet, what string) {
	if *p != 0 || c.mode != walking {
		c.ref(p, want, what)
	}
}

// bytes states a byte array after its u4 length.
func (c *codec) bytes(p *[]byte) {
	switch c.mode {
	case decoding:
		var n uint32
		if c.err == nil {
			n, c.err = c.r.u4()
		}
		if c.err == nil {
			*p, c.err = c.r.bytes(int(n))
		}
	case encoding:
		c.w.u4(uint32(len(*p)))
		c.w.raw(*p)
	}
}

// list states a u2-counted list whose elements take at least size
// bytes each; elem states one element. Decoding checks that the count
// fits in the rest of the input before it allocates the list.
func list[T any](c *codec, s *[]T, size int, what string, elem func(*codec, *T)) {
	switch c.mode {
	case decoding:
		if c.err != nil {
			return
		}
		n, err := c.r.u2()
		if err != nil {
			c.err = err
			return
		}
		if int(n)*size > len(c.r.buf)-c.r.pos {
			c.err = c.r.fail("%s count %d overruns input", what, n)
			return
		}
		*s = make([]T, n)
	case encoding:
		c.w.u2(uint16(len(*s)))
	}
	for i := range *s {
		elem(c, &(*s)[i])
	}
}

// attrs states a u2-counted attribute list.
func (c *codec) attrs(s *[]Attribute) { list(c, s, 6, "attribute", (*codec).attr) }

// attr states one attribute: its name index, its u4 length, and the
// body its type states.
func (c *codec) attr(p *Attribute) {
	switch c.mode {
	case decoding:
		c.readAttr(p)
	case encoding:
		// The length is patched in once the body is written.
		c.w.u2(c.attrNameIndex(*p))
		at := len(c.w.buf)
		c.w.u4(0)
		(*p).body(c)
		binary.BigEndian.PutUint32(c.w.buf[at:], uint32(len(c.w.buf)-at-4))
	case walking:
		c.optRef((*p).nameRef(), utf8Kinds, "attribute_name_index")
		(*p).body(c)
	}
}

// readAttr reads one attribute as the type attrTypes gives its name, or
// as an UnknownAttr. The body is read on its own, to its end.
func (c *codec) readAttr(p *Attribute) {
	var nameIdx uint16
	var body []byte
	c.u2(&nameIdx)
	if c.bytes(&body); c.err != nil {
		return
	}
	name := c.cf.Utf8At(nameIdx)
	var a Attribute
	if newAttr := attrTypes[name]; newAttr != nil {
		a = newAttr()
	} else {
		a = &UnknownAttr{Name: name}
	}
	*a.nameRef() = nameIdx
	outer := c.r
	c.r = reader{buf: body}
	a.body(c)
	if c.err == nil && c.r.pos != len(body) {
		c.err = fmt.Errorf("%d trailing bytes", len(body)-c.r.pos)
	}
	if c.err != nil {
		c.err = fmt.Errorf("classfile: attribute %q: %w", name, c.err)
	}
	c.r = outer
	*p = a
}

// attrNameIndex resolves the pool index for an attribute's name, preferring
// the index recorded at parse time and falling back to a content lookup for
// programmatically built attributes.
func (c *codec) attrNameIndex(a Attribute) uint16 {
	if idx := *a.nameRef(); idx != 0 {
		return idx
	}
	name := a.AttrName()
	for i := 1; i < len(c.cf.Pool); i++ {
		if c.cf.Pool[i].Kind == KindUtf8 && c.cf.Pool[i].Utf8 == name {
			return uint16(i)
		}
	}
	if c.err == nil {
		c.err = fmt.Errorf("classfile: no Utf8 constant for attribute name %q", name)
	}
	return 0
}

// attrTypes gives each attribute name that this package interprets a
// new value of its type. Every other name is read as an UnknownAttr,
// which strip drops. For most names that is allowed (JVMS §4.7.1), but
// not for the names the table maps to nil: the rest of JVMS §4.7's
// predefined attributes, which the JVM or the class libraries read.
// CheckAttrs refuses a class that holds one. LocalVariableTypeTable and
// SourceDebugExtension are debug data, which §2 strips like
// LineNumberTable, so they are not in the table.
var attrTypes = map[string]func() Attribute{
	"Code":               func() Attribute { return new(CodeAttr) },
	"ConstantValue":      func() Attribute { return new(ConstantValueAttr) },
	"Deprecated":         func() Attribute { return new(DeprecatedAttr) },
	"Exceptions":         func() Attribute { return new(ExceptionsAttr) },
	"InnerClasses":       func() Attribute { return new(InnerClassesAttr) },
	"LineNumberTable":    func() Attribute { return new(LineNumberTableAttr) },
	"LocalVariableTable": func() Attribute { return new(LocalVariableTableAttr) },
	"SourceFile":         func() Attribute { return new(SourceFileAttr) },
	"Synthetic":          func() Attribute { return new(SyntheticAttr) },

	"AnnotationDefault":                    nil,
	"BootstrapMethods":                     nil,
	"EnclosingMethod":                      nil,
	"MethodParameters":                     nil,
	"Module":                               nil,
	"ModuleMainClass":                      nil,
	"ModulePackages":                       nil,
	"NestHost":                             nil,
	"NestMembers":                          nil,
	"PermittedSubclasses":                  nil,
	"Record":                               nil,
	"RuntimeInvisibleAnnotations":          nil,
	"RuntimeInvisibleParameterAnnotations": nil,
	"RuntimeInvisibleTypeAnnotations":      nil,
	"RuntimeVisibleAnnotations":            nil,
	"RuntimeVisibleParameterAnnotations":   nil,
	"RuntimeVisibleTypeAnnotations":        nil,
	"Signature":                            nil,
	"StackMapTable":                        nil,
}

// ErrUnsupportedAttribute is wrapped by CheckAttrs' error.
var ErrUnsupportedAttribute = errors.New("unsupported attribute")

// CheckAttrs refuses a class that holds an attribute which the JVM or
// the class libraries read but which this package does not interpret,
// so that strip would drop it (attrTypes lists them). The error wraps
// ErrUnsupportedAttribute and names the attribute, its owner and the
// class version.
func CheckAttrs(cf *ClassFile) error {
	refuse := func(name, owner string) error {
		return fmt.Errorf("classfile: %w %s in %s, class version %d.%d",
			ErrUnsupportedAttribute, name, owner, cf.MajorVersion, cf.MinorVersion)
	}
	if name := unsupported(cf.Attrs); name != "" {
		return refuse(name, "class "+cf.ThisClassName())
	}
	for i := range cf.Fields {
		if name := unsupported(cf.Fields[i].Attrs); name != "" {
			return refuse(name, "field "+cf.MemberName(&cf.Fields[i]))
		}
	}
	for i := range cf.Methods {
		m := &cf.Methods[i]
		name, owner := unsupported(m.Attrs), "method "
		if code := CodeOf(m); name == "" && code != nil {
			name, owner = unsupported(code.Attrs), "Code of method "
		}
		if name != "" {
			return refuse(name, owner+cf.MemberName(m)+cf.MemberDesc(m))
		}
	}
	return nil
}

// unsupported returns the name of the first attribute in attrs that
// CheckAttrs refuses, or "".
func unsupported(attrs []Attribute) string {
	for _, a := range attrs {
		if newAttr, listed := attrTypes[a.AttrName()]; listed && newAttr == nil {
			return a.AttrName()
		}
	}
	return ""
}

// AttrSize returns the length of a's body: the attribute_length that
// Write gives it.
func AttrSize(a Attribute) int {
	// A nested attribute built without a name index finds no name in an
	// empty pool, but its index takes two bytes all the same.
	c := codec{mode: encoding, cf: new(ClassFile)}
	a.body(&c)
	return len(c.w.buf)
}

// Marks reports whether attrs holds a Synthetic and a Deprecated
// attribute. Their presence is all they say, so the packed formats send
// them as flag bits.
func Marks(attrs []Attribute) (synthetic, deprecated bool) {
	for _, a := range attrs {
		switch a.(type) {
		case *SyntheticAttr:
			synthetic = true
		case *DeprecatedAttr:
			deprecated = true
		}
	}
	return synthetic, deprecated
}
