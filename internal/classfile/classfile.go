// Package classfile models Java class files of the JDK 1.0–1.2 era — the
// input format of the paper — with a binary reader, a binary writer, and
// helpers for building and verifying files. Parse followed by Write
// reproduces the input byte-for-byte for well-formed files.
package classfile

// Magic is the classfile magic number.
const Magic = 0xCAFEBABE

// ConstKind is a constant-pool tag (JVM spec §4.4).
type ConstKind uint8

// Constant pool tags.
const (
	KindInvalid            ConstKind = 0 // also marks the phantom slot after Long/Double
	KindUtf8               ConstKind = 1
	KindInteger            ConstKind = 3
	KindFloat              ConstKind = 4
	KindLong               ConstKind = 5
	KindDouble             ConstKind = 6
	KindClass              ConstKind = 7
	KindString             ConstKind = 8
	KindFieldref           ConstKind = 9
	KindMethodref          ConstKind = 10
	KindInterfaceMethodref ConstKind = 11
	KindNameAndType        ConstKind = 12
)

// String returns the JVM spec name of the tag.
func (k ConstKind) String() string {
	switch k {
	case KindUtf8:
		return "Utf8"
	case KindInteger:
		return "Integer"
	case KindFloat:
		return "Float"
	case KindLong:
		return "Long"
	case KindDouble:
		return "Double"
	case KindClass:
		return "Class"
	case KindString:
		return "String"
	case KindFieldref:
		return "Fieldref"
	case KindMethodref:
		return "Methodref"
	case KindInterfaceMethodref:
		return "InterfaceMethodref"
	case KindNameAndType:
		return "NameAndType"
	default:
		return "Invalid"
	}
}

// Wide reports whether the tag occupies two constant-pool slots.
func (k ConstKind) Wide() bool { return k == KindLong || k == KindDouble }

// LdcType returns the type of the value that ldc, ldc_w or ldc2_w pushes
// for a constant of kind k, and false for the kinds no 1.2 ldc loads.
// ldc2_w loads the wide types and the other two the rest.
func (k ConstKind) LdcType() (Type, bool) {
	switch k {
	case KindInteger:
		return Type{Base: 'I'}, true
	case KindFloat:
		return Type{Base: 'F'}, true
	case KindString:
		return ObjectType("java/lang/String"), true
	case KindLong:
		return Type{Base: 'J'}, true
	case KindDouble:
		return Type{Base: 'D'}, true
	}
	return Type{}, false
}

// ConstKindForType returns the kind of the constant that a
// ConstantValue attribute gives a field of type t, or KindInvalid for a
// type that cannot have one. A field of any class type takes a String.
func ConstKindForType(t Type) ConstKind {
	if t.Dims > 0 {
		return KindInvalid
	}
	switch t.Base {
	case 'B', 'C', 'S', 'Z', 'I':
		return KindInteger
	case 'F':
		return KindFloat
	case 'J':
		return KindLong
	case 'D':
		return KindDouble
	case 'L':
		return KindString
	}
	return KindInvalid
}

// Constant is one constant-pool entry. Only the fields relevant to Kind
// are meaningful.
type Constant struct {
	Kind ConstKind

	Utf8   string  // KindUtf8 (decoded from modified UTF-8)
	Int    int32   // KindInteger
	Float  float32 // KindFloat
	Long   int64   // KindLong
	Double float64 // KindDouble

	// Index fields reference other pool entries.
	Class       uint16 // Fieldref/Methodref/InterfaceMethodref: owner Class
	NameAndType uint16 // Fieldref/Methodref/InterfaceMethodref
	Name        uint16 // Class: binary-name Utf8; NameAndType: name Utf8
	Desc        uint16 // NameAndType: descriptor Utf8
	Str         uint16 // String: Utf8
}

// Access flags (JVM spec tables 4.1, 4.4, 4.5).
const (
	AccPublic       = 0x0001
	AccPrivate      = 0x0002
	AccProtected    = 0x0004
	AccStatic       = 0x0008
	AccFinal        = 0x0010
	AccSuper        = 0x0020 // classes
	AccSynchronized = 0x0020 // methods
	AccVolatile     = 0x0040
	AccTransient    = 0x0080
	AccNative       = 0x0100
	AccInterface    = 0x0200
	AccAbstract     = 0x0400
	AccStrict       = 0x0800
)

// ClassFile is a parsed class file.
type ClassFile struct {
	MinorVersion uint16
	MajorVersion uint16
	// Pool is the constant pool. Pool[0] is unused (KindInvalid); the slot
	// following a Long or Double entry is present and KindInvalid, matching
	// the on-disk numbering.
	Pool        []Constant
	AccessFlags uint16
	ThisClass   uint16 // Class entry
	SuperClass  uint16 // Class entry; 0 for java/lang/Object
	Interfaces  []uint16
	Fields      []Member
	Methods     []Member
	Attrs       []Attribute
}

// body states the class file after its constant pool, which Parse and
// Write state by hand because an entry's tag selects its layout.
func (cf *ClassFile) body(c *codec) {
	c.u2(&cf.AccessFlags)
	c.ref(&cf.ThisClass, classKinds, "this_class")
	c.optRef(&cf.SuperClass, classKinds, "super_class")
	list(c, &cf.Interfaces, 2, "interface", func(c *codec, i *uint16) {
		c.ref(i, classKinds, "interfaces")
	})
	list(c, &cf.Fields, 8, "member", func(c *codec, m *Member) {
		m.body(c, "field name_index", "field descriptor_index")
	})
	list(c, &cf.Methods, 8, "member", func(c *codec, m *Member) {
		m.body(c, "method name_index", "method descriptor_index")
	})
	c.attrs(&cf.Attrs)
}

// Member is a field or method declaration.
type Member struct {
	AccessFlags uint16
	Name        uint16 // Utf8
	Desc        uint16 // Utf8
	Attrs       []Attribute
}

// body states a member; name and desc name its two indices to the walk.
func (m *Member) body(c *codec, name, desc string) {
	c.u2(&m.AccessFlags)
	c.ref(&m.Name, utf8Kinds, name)
	c.ref(&m.Desc, utf8Kinds, desc)
	c.attrs(&m.Attrs)
}

// Attribute is a classfile attribute. NameIndex is the Utf8 entry holding
// the attribute name as it appeared on disk (or 0 for attributes built
// programmatically; the writer then resolves the name by content).
type Attribute interface {
	// AttrName returns the JVM attribute name ("Code", "Exceptions", ...).
	AttrName() string
	nameRef() *uint16
	// body states the attribute's fields after attribute_length, in
	// file order, to a codec (see codec.go).
	body(c *codec)
}

type attrBase struct{ NameIndex uint16 }

func (a *attrBase) nameRef() *uint16 { return &a.NameIndex }

// CodeAttr is the Code attribute of a non-abstract method.
type CodeAttr struct {
	attrBase
	MaxStack  uint16
	MaxLocals uint16
	Code      []byte
	Handlers  []ExceptionHandler
	Attrs     []Attribute
}

// AttrName implements Attribute.
func (*CodeAttr) AttrName() string { return "Code" }

func (a *CodeAttr) body(c *codec) {
	c.u2(&a.MaxStack)
	c.u2(&a.MaxLocals)
	c.bytes(&a.Code)
	list(c, &a.Handlers, 8, "handler", func(c *codec, h *ExceptionHandler) {
		c.u2(&h.StartPC)
		c.u2(&h.EndPC)
		c.u2(&h.HandlerPC)
		c.optRef(&h.CatchType, classKinds, "Code catch_type")
	})
	c.attrs(&a.Attrs)
}

// ExceptionHandler is one entry of a Code attribute's exception table.
type ExceptionHandler struct {
	StartPC, EndPC, HandlerPC uint16
	CatchType                 uint16 // Class entry, or 0 for finally
}

// ConstantValueAttr gives a field its compile-time constant.
type ConstantValueAttr struct {
	attrBase
	Index uint16 // Integer/Float/Long/Double/String entry
}

// AttrName implements Attribute.
func (*ConstantValueAttr) AttrName() string { return "ConstantValue" }

func (a *ConstantValueAttr) body(c *codec) {
	c.ref(&a.Index, constantValueKinds, "ConstantValue constantvalue_index")
}

// ExceptionsAttr lists a method's declared checked exceptions.
type ExceptionsAttr struct {
	attrBase
	Classes []uint16 // Class entries
}

// AttrName implements Attribute.
func (*ExceptionsAttr) AttrName() string { return "Exceptions" }

func (a *ExceptionsAttr) body(c *codec) {
	list(c, &a.Classes, 2, "exception", func(c *codec, i *uint16) {
		c.ref(i, classKinds, "Exceptions exception_index")
	})
}

// SourceFileAttr names the compilation unit.
type SourceFileAttr struct {
	attrBase
	Index uint16 // Utf8
}

// AttrName implements Attribute.
func (*SourceFileAttr) AttrName() string { return "SourceFile" }

func (a *SourceFileAttr) body(c *codec) {
	c.ref(&a.Index, utf8Kinds, "SourceFile sourcefile_index")
}

// LineNumber maps a bytecode offset to a source line.
type LineNumber struct {
	StartPC, Line uint16
}

// LineNumberTableAttr is debugging information inside Code.
type LineNumberTableAttr struct {
	attrBase
	Entries []LineNumber
}

// AttrName implements Attribute.
func (*LineNumberTableAttr) AttrName() string { return "LineNumberTable" }

func (a *LineNumberTableAttr) body(c *codec) {
	list(c, &a.Entries, 4, "line number", func(c *codec, e *LineNumber) {
		c.u2(&e.StartPC)
		c.u2(&e.Line)
	})
}

// LocalVariable describes one debug local-variable range.
type LocalVariable struct {
	StartPC, Length uint16
	Name, Desc      uint16 // Utf8
	Slot            uint16
}

// LocalVariableTableAttr is debugging information inside Code.
type LocalVariableTableAttr struct {
	attrBase
	Entries []LocalVariable
}

// AttrName implements Attribute.
func (*LocalVariableTableAttr) AttrName() string { return "LocalVariableTable" }

func (a *LocalVariableTableAttr) body(c *codec) {
	list(c, &a.Entries, 10, "local variable", func(c *codec, e *LocalVariable) {
		c.u2(&e.StartPC)
		c.u2(&e.Length)
		c.ref(&e.Name, utf8Kinds, "LocalVariableTable name_index")
		c.ref(&e.Desc, utf8Kinds, "LocalVariableTable descriptor_index")
		c.u2(&e.Slot)
	})
}

// SyntheticAttr marks compiler-generated members.
type SyntheticAttr struct{ attrBase }

// AttrName implements Attribute.
func (*SyntheticAttr) AttrName() string { return "Synthetic" }

func (*SyntheticAttr) body(*codec) {}

// DeprecatedAttr marks deprecated members.
type DeprecatedAttr struct{ attrBase }

// AttrName implements Attribute.
func (*DeprecatedAttr) AttrName() string { return "Deprecated" }

func (*DeprecatedAttr) body(*codec) {}

// InnerClass is one InnerClasses table row.
type InnerClass struct {
	Inner, Outer uint16 // Class entries (Outer may be 0)
	InnerName    uint16 // Utf8, or 0 for anonymous
	AccessFlags  uint16
}

// InnerClassesAttr records nested-class relationships.
type InnerClassesAttr struct {
	attrBase
	Entries []InnerClass
}

// AttrName implements Attribute.
func (*InnerClassesAttr) AttrName() string { return "InnerClasses" }

func (a *InnerClassesAttr) body(c *codec) {
	list(c, &a.Entries, 8, "inner class", func(c *codec, e *InnerClass) {
		c.ref(&e.Inner, classKinds, "InnerClasses inner_class_info_index")
		c.optRef(&e.Outer, classKinds, "InnerClasses outer_class_info_index")
		c.optRef(&e.InnerName, utf8Kinds, "InnerClasses inner_name_index")
		c.u2(&e.AccessFlags)
	})
}

// UnknownAttr preserves attributes this package does not interpret.
type UnknownAttr struct {
	attrBase
	Name string
	Data []byte
}

// AttrName implements Attribute.
func (a *UnknownAttr) AttrName() string { return a.Name }

// body keeps the body uninterpreted: decoding aliases the input.
func (a *UnknownAttr) body(c *codec) {
	switch c.mode {
	case decoding:
		a.Data = c.r.buf[c.r.pos:]
		c.r.pos = len(c.r.buf)
	case encoding:
		c.w.raw(a.Data)
	}
}

// Utf8At returns the Utf8 string at pool index i, or "" if i does not name
// a Utf8 entry.
func (cf *ClassFile) Utf8At(i uint16) string {
	if int(i) < len(cf.Pool) && cf.Pool[i].Kind == KindUtf8 {
		return cf.Pool[i].Utf8
	}
	return ""
}

// ClassNameAt returns the binary name ("java/lang/String") of the Class
// entry at pool index i, or "".
func (cf *ClassFile) ClassNameAt(i uint16) string {
	if int(i) < len(cf.Pool) && cf.Pool[i].Kind == KindClass {
		return cf.Utf8At(cf.Pool[i].Name)
	}
	return ""
}

// ThisClassName returns the binary name of the class itself.
func (cf *ClassFile) ThisClassName() string { return cf.ClassNameAt(cf.ThisClass) }

// SuperClassName returns the binary name of the superclass, or "" for
// java/lang/Object.
func (cf *ClassFile) SuperClassName() string { return cf.ClassNameAt(cf.SuperClass) }

// MemberName returns the name string of a field or method.
func (cf *ClassFile) MemberName(m *Member) string { return cf.Utf8At(m.Name) }

// MemberDesc returns the descriptor string of a field or method.
func (cf *ClassFile) MemberDesc(m *Member) string { return cf.Utf8At(m.Desc) }

// CodeOf returns the method's Code attribute, or nil.
func CodeOf(m *Member) *CodeAttr { return AttrOf[*CodeAttr](m.Attrs) }
