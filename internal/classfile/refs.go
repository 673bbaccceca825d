package classfile

import (
	"fmt"
	"strings"
)

// KindSet is a set of constant kinds, one bit per tag: the kinds a
// class-file field's pool index may name.
type KindSet uint16

// Has reports whether k is in the set.
func (s KindSet) Has(k ConstKind) bool { return s&(1<<k) != 0 }

// String lists the set's kinds, joined by "|".
func (s KindSet) String() string {
	var names []string
	for k := KindUtf8; k <= KindNameAndType; k++ {
		if s.Has(k) {
			names = append(names, k.String())
		}
	}
	return strings.Join(names, "|")
}

// The kind sets of the fields the walk visits.
const (
	utf8Kinds          = KindSet(1 << KindUtf8)
	classKinds         = KindSet(1 << KindClass)
	nameAndTypeKinds   = KindSet(1 << KindNameAndType)
	constantValueKinds = KindSet(1<<KindInteger | 1<<KindFloat | 1<<KindLong | 1<<KindDouble | 1<<KindString)

	// OperandKinds are the kinds a bytecode operand may name: a loadable
	// constant, a class, or a member reference. Which of them an opcode
	// takes is the packer's and the bytecode verifier's to check.
	OperandKinds = constantValueKinds | classKinds |
		KindSet(1<<KindFieldref|1<<KindMethodref|1<<KindInterfaceMethodref)
)

// RefVisitor is called with a pointer to each constant-pool index a
// walk visits, the kinds the index may name, and the field's name for
// errors. It may rewrite the index. A visitor that checks indices keeps
// the first error it finds; the walk itself cannot fail.
type RefVisitor func(idx *uint16, want KindSet, what string)

// Refs visits the pool indices held by the constant c.
func (c *Constant) Refs(visit RefVisitor) {
	switch c.Kind {
	case KindClass:
		visit(&c.Name, utf8Kinds, "Class name_index")
	case KindString:
		visit(&c.Str, utf8Kinds, "String string_index")
	case KindFieldref, KindMethodref, KindInterfaceMethodref:
		visit(&c.Class, classKinds, "class_index")
		visit(&c.NameAndType, nameAndTypeKinds, "name_and_type_index")
	case KindNameAndType:
		visit(&c.Name, utf8Kinds, "NameAndType name_index")
		visit(&c.Desc, utf8Kinds, "NameAndType descriptor_index")
	}
}

// Refs visits every pool index cf holds outside its pool: in the header,
// the members and the attributes, nested ones included. With
// Constant.Refs over the pool's entries, that is every pool index of the
// class file except bytecode operands. Optional indices are skipped when
// zero: super_class, an outer class, an anonymous inner class's name, a
// catch-all handler's catch_type, and the name of an attribute built in
// memory without one.
func (cf *ClassFile) Refs(visit RefVisitor) {
	cf.body(&codec{mode: walking, visit: visit})
}

// CheckRef reports an error naming the field what unless idx is a pool
// index of cf, not zero, whose constant is of a kind in want.
func (cf *ClassFile) CheckRef(idx uint16, want KindSet, what string) error {
	if idx == 0 || int(idx) >= len(cf.Pool) {
		return fmt.Errorf("classfile: %s: pool index %d out of range [1,%d)", what, idx, len(cf.Pool))
	}
	if k := cf.Pool[idx].Kind; !want.Has(k) {
		return fmt.Errorf("classfile: %s: pool index %d is %v, want %v", what, idx, k, want)
	}
	return nil
}
