package classfile

import "fmt"

// Builder constructs a ClassFile with a deduplicated constant pool. It is
// used by the MiniJava code generator, the corpus synthesizer, and the
// unpacker when rebuilding classfiles.
type Builder struct {
	CF *ClassFile

	utf8    map[string]uint16
	class   map[uint16]uint16 // name utf8 index -> class index
	str     map[uint16]uint16 // utf8 index -> string index
	ints    map[int32]uint16
	floats  map[uint32]uint16
	longs   map[int64]uint16
	doubles map[uint64]uint16
	nats    map[[2]uint16]uint16
	refs    map[[3]uint16]uint16 // kind, class, nat
}

// NewBuilder starts a classfile for the given binary class name, superclass
// (empty for java/lang/Object itself) and access flags, using classfile
// version 45.3 (JDK 1.1/1.2 era, matching the paper).
func NewBuilder(name, super string, accessFlags uint16) *Builder {
	b := NewEmptyBuilder(accessFlags)
	b.SetThisClass(name)
	if super != "" {
		b.SetSuperClass(super)
	}
	return b
}

// NewEmptyBuilder starts a classfile with an empty constant pool and no
// this-class set; callers control interning order and must call
// SetThisClass before Build.
func NewEmptyBuilder(accessFlags uint16) *Builder {
	b := &Builder{
		CF: &ClassFile{
			MinorVersion: 3,
			MajorVersion: 45,
			Pool:         make([]Constant, 1),
			AccessFlags:  accessFlags,
		},
		utf8:    make(map[string]uint16),
		class:   make(map[uint16]uint16),
		str:     make(map[uint16]uint16),
		ints:    make(map[int32]uint16),
		floats:  make(map[uint32]uint16),
		longs:   make(map[int64]uint16),
		doubles: make(map[uint64]uint16),
		nats:    make(map[[2]uint16]uint16),
		refs:    make(map[[3]uint16]uint16),
	}
	return b
}

// SetThisClass interns and records the class's own name.
func (b *Builder) SetThisClass(name string) { b.CF.ThisClass = b.Class(name) }

// SetSuperClass interns and records the superclass name.
func (b *Builder) SetSuperClass(name string) { b.CF.SuperClass = b.Class(name) }

func (b *Builder) add(c Constant) uint16 {
	idx := uint16(len(b.CF.Pool))
	b.CF.Pool = append(b.CF.Pool, c)
	if c.Kind.Wide() {
		b.CF.Pool = append(b.CF.Pool, Constant{})
	}
	return idx
}

// Utf8 interns a Utf8 constant and returns its index.
func (b *Builder) Utf8(s string) uint16 {
	if idx, ok := b.utf8[s]; ok {
		return idx
	}
	idx := b.add(Constant{Kind: KindUtf8, Utf8: s})
	b.utf8[s] = idx
	return idx
}

// Class interns a Class constant for a binary name.
func (b *Builder) Class(name string) uint16 {
	n := b.Utf8(name)
	if idx, ok := b.class[n]; ok {
		return idx
	}
	idx := b.add(Constant{Kind: KindClass, Name: n})
	b.class[n] = idx
	return idx
}

// String interns a String constant.
func (b *Builder) String(s string) uint16 {
	n := b.Utf8(s)
	if idx, ok := b.str[n]; ok {
		return idx
	}
	idx := b.add(Constant{Kind: KindString, Str: n})
	b.str[n] = idx
	return idx
}

// Int interns an Integer constant.
func (b *Builder) Int(v int32) uint16 {
	if idx, ok := b.ints[v]; ok {
		return idx
	}
	idx := b.add(Constant{Kind: KindInteger, Int: v})
	b.ints[v] = idx
	return idx
}

// Float interns a Float constant (keyed by bit pattern so NaNs intern).
func (b *Builder) Float(v float32) uint16 {
	key := float32Bits(v)
	if idx, ok := b.floats[key]; ok {
		return idx
	}
	idx := b.add(Constant{Kind: KindFloat, Float: v})
	b.floats[key] = idx
	return idx
}

// Long interns a Long constant.
func (b *Builder) Long(v int64) uint16 {
	if idx, ok := b.longs[v]; ok {
		return idx
	}
	idx := b.add(Constant{Kind: KindLong, Long: v})
	b.longs[v] = idx
	return idx
}

// Double interns a Double constant (keyed by bit pattern).
func (b *Builder) Double(v float64) uint16 {
	key := float64Bits(v)
	if idx, ok := b.doubles[key]; ok {
		return idx
	}
	idx := b.add(Constant{Kind: KindDouble, Double: v})
	b.doubles[key] = idx
	return idx
}

// NameAndType interns a NameAndType constant.
func (b *Builder) NameAndType(name, desc string) uint16 {
	key := [2]uint16{b.Utf8(name), b.Utf8(desc)}
	if idx, ok := b.nats[key]; ok {
		return idx
	}
	idx := b.add(Constant{Kind: KindNameAndType, Name: key[0], Desc: key[1]})
	b.nats[key] = idx
	return idx
}

func (b *Builder) memberRef(kind ConstKind, class, name, desc string) uint16 {
	key := [3]uint16{uint16(kind), b.Class(class), b.NameAndType(name, desc)}
	if idx, ok := b.refs[key]; ok {
		return idx
	}
	idx := b.add(Constant{Kind: kind, Class: key[1], NameAndType: key[2]})
	b.refs[key] = idx
	return idx
}

// Fieldref interns a Fieldref constant.
func (b *Builder) Fieldref(class, name, desc string) uint16 {
	return b.memberRef(KindFieldref, class, name, desc)
}

// Methodref interns a Methodref constant.
func (b *Builder) Methodref(class, name, desc string) uint16 {
	return b.memberRef(KindMethodref, class, name, desc)
}

// InterfaceMethodref interns an InterfaceMethodref constant.
func (b *Builder) InterfaceMethodref(class, name, desc string) uint16 {
	return b.memberRef(KindInterfaceMethodref, class, name, desc)
}

// AddInterface declares that the class implements the named interface.
func (b *Builder) AddInterface(name string) {
	b.CF.Interfaces = append(b.CF.Interfaces, b.Class(name))
}

// AddField appends a field and returns a pointer to it for attaching
// attributes.
func (b *Builder) AddField(flags uint16, name, desc string) *Member {
	b.CF.Fields = append(b.CF.Fields, Member{
		AccessFlags: flags,
		Name:        b.Utf8(name),
		Desc:        b.Utf8(desc),
	})
	return &b.CF.Fields[len(b.CF.Fields)-1]
}

// AddMethod appends a method and returns a pointer to it for attaching a
// Code attribute.
func (b *Builder) AddMethod(flags uint16, name, desc string) *Member {
	b.CF.Methods = append(b.CF.Methods, Member{
		AccessFlags: flags,
		Name:        b.Utf8(name),
		Desc:        b.Utf8(desc),
	})
	return &b.CF.Methods[len(b.CF.Methods)-1]
}

// AttachCode adds a Code attribute to a method, interning the attribute
// name. The caller fills in the code and limits.
func (b *Builder) AttachCode(m *Member, code *CodeAttr) {
	code.NameIndex = b.Utf8("Code")
	m.Attrs = append(m.Attrs, code)
}

// AttachConstantValue adds a ConstantValue attribute to a field.
func (b *Builder) AttachConstantValue(m *Member, constIndex uint16) {
	m.Attrs = append(m.Attrs, &ConstantValueAttr{
		attrBase: attrBase{NameIndex: b.Utf8("ConstantValue")},
		Index:    constIndex,
	})
}

// AttachExceptions adds an Exceptions attribute to a method.
func (b *Builder) AttachExceptions(m *Member, classes []string) {
	ex := &ExceptionsAttr{attrBase: attrBase{NameIndex: b.Utf8("Exceptions")}}
	for _, c := range classes {
		ex.Classes = append(ex.Classes, b.Class(c))
	}
	m.Attrs = append(m.Attrs, ex)
}

// AttachSourceFile adds a SourceFile attribute to the class.
func (b *Builder) AttachSourceFile(file string) {
	b.CF.Attrs = append(b.CF.Attrs, &SourceFileAttr{
		attrBase: attrBase{NameIndex: b.Utf8("SourceFile")},
		Index:    b.Utf8(file),
	})
}

// AttachMarks adds a Synthetic and a Deprecated attribute to attrs, as
// Marks reports them.
func (b *Builder) AttachMarks(attrs *[]Attribute, synthetic, deprecated bool) {
	if synthetic {
		*attrs = append(*attrs, &SyntheticAttr{attrBase{b.Utf8("Synthetic")}})
	}
	if deprecated {
		*attrs = append(*attrs, &DeprecatedAttr{attrBase{b.Utf8("Deprecated")}})
	}
}

// Build finalizes and returns the classfile.
func (b *Builder) Build() (*ClassFile, error) {
	if len(b.CF.Pool) > 0xFFFF {
		return nil, fmt.Errorf("classfile: %s: constant pool overflow (%d entries)",
			b.CF.ThisClassName(), len(b.CF.Pool))
	}
	return b.CF, nil
}
