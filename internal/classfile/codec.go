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
	if t := attrTypes[name]; t.new != nil {
		a = t.new()
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

// tables is a set of the attribute tables of a class file: the class's
// own, a field's, a method's, and a method's Code attribute's.
type tables uint8

const (
	inClass tables = 1 << iota
	inField
	inMethod
	inCode
)

// attrType is a row of attrTypes: how to make a value of the type that
// interprets the attribute, and the tables the packed formats carry it
// in, at most once each.
type attrType struct {
	new func() Attribute
	in  tables
}

// attrTypes gives each attribute name that this package interprets its
// row. Every other name is read as an UnknownAttr, which strip drops.
// For most names that is allowed (JVMS §4.7.1), but not for the names
// the table gives no type: the rest of JVMS §4.7's predefined
// attributes, which the JVM or the class libraries read. The debug
// attributes list no tables, as strip drops them wherever they sit;
// LocalVariableTypeTable and SourceDebugExtension are debug data, which
// §2 strips like LineNumberTable, so they are not in the table.
// CheckAttrs refuses a class that holds an attribute without a type,
// or a carried one outside its tables or twice in one.
var attrTypes = map[string]attrType{
	"Code":               {func() Attribute { return new(CodeAttr) }, inMethod},
	"ConstantValue":      {func() Attribute { return new(ConstantValueAttr) }, inField},
	"Deprecated":         {func() Attribute { return new(DeprecatedAttr) }, inClass | inField | inMethod},
	"Exceptions":         {func() Attribute { return new(ExceptionsAttr) }, inMethod},
	"InnerClasses":       {func() Attribute { return new(InnerClassesAttr) }, inClass},
	"LineNumberTable":    {func() Attribute { return new(LineNumberTableAttr) }, 0},
	"LocalVariableTable": {func() Attribute { return new(LocalVariableTableAttr) }, 0},
	"SourceFile":         {func() Attribute { return new(SourceFileAttr) }, 0},
	"Synthetic":          {func() Attribute { return new(SyntheticAttr) }, inClass | inField | inMethod},

	"AnnotationDefault":                    {},
	"BootstrapMethods":                     {},
	"EnclosingMethod":                      {},
	"MethodParameters":                     {},
	"Module":                               {},
	"ModuleMainClass":                      {},
	"ModulePackages":                       {},
	"NestHost":                             {},
	"NestMembers":                          {},
	"PermittedSubclasses":                  {},
	"Record":                               {},
	"RuntimeInvisibleAnnotations":          {},
	"RuntimeInvisibleParameterAnnotations": {},
	"RuntimeInvisibleTypeAnnotations":      {},
	"RuntimeVisibleAnnotations":            {},
	"RuntimeVisibleParameterAnnotations":   {},
	"RuntimeVisibleTypeAnnotations":        {},
	"Signature":                            {},
	"StackMapTable":                        {},
}

// ErrUnsupportedAttribute is wrapped by CheckAttrs' error.
var ErrUnsupportedAttribute = errors.New("unsupported attribute")

// CheckAttrs refuses a class that holds an attribute which the JVM or
// the class libraries read but which this package does not interpret,
// so that strip would drop it, or an attribute that the packed formats
// carry outside the tables they carry it in, or twice in one table, so
// that it would not unpack as it was (attrTypes states both). The error
// wraps ErrUnsupportedAttribute and names the attribute, its owner and
// the class version.
func CheckAttrs(cf *ClassFile) error {
	refuse := func(name, owner string) error {
		return fmt.Errorf("classfile: %w %s in %s, class version %d.%d",
			ErrUnsupportedAttribute, name, owner, cf.MajorVersion, cf.MinorVersion)
	}
	if name := refused(cf.Attrs, inClass); name != "" {
		return refuse(name, "class "+cf.ThisClassName())
	}
	for i := range cf.Fields {
		if name := refused(cf.Fields[i].Attrs, inField); name != "" {
			return refuse(name, "field "+cf.MemberName(&cf.Fields[i]))
		}
	}
	for i := range cf.Methods {
		m := &cf.Methods[i]
		name, owner := refused(m.Attrs, inMethod), "method "
		if code := CodeOf(m); name == "" && code != nil {
			name, owner = refused(code.Attrs, inCode), "Code of method "
		}
		if name != "" {
			return refuse(name, owner+cf.MemberName(m)+cf.MemberDesc(m))
		}
	}
	return nil
}

// refused describes the first attribute of attrs, a table of kind in,
// that CheckAttrs refuses; "" if there is none.
func refused(attrs []Attribute, in tables) string {
	for i, a := range attrs {
		name := a.AttrName()
		t, listed := attrTypes[name]
		if !listed || t.new != nil && t.in == 0 {
			continue // strip drops it
		}
		if t.in&in == 0 {
			return name
		}
		for _, b := range attrs[:i] {
			if b.AttrName() == name {
				return name + " repeated"
			}
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
	return AttrOf[*SyntheticAttr](attrs) != nil, AttrOf[*DeprecatedAttr](attrs) != nil
}

// AttrOf returns the first attribute of type T in attrs, or nil. In a
// class that CheckAttrs accepts, a table holds at most one attribute of
// each type the packed formats carry, so the first is the only one.
func AttrOf[T Attribute](attrs []Attribute) T {
	for _, a := range attrs {
		if t, ok := a.(T); ok {
			return t
		}
	}
	var none T
	return none
}
