// Package ir defines the restructured representation of §4 of the paper
// (Figure 1): class names factored into a package name and a simple name,
// member types factored into arrays of class references, and primitive and
// array types encoded as special class references. The packer encodes
// references to these values through per-kind move-to-front pools; the
// unpacker converts them back into constant-pool entries.
package ir

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"classpack/internal/classfile"
)

// ClassKey identifies a class, primitive, or array type in factored form.
// For class types Prim is 0 and Pkg/Simple carry the factored binary name.
// For primitives Prim is the descriptor character. Dims counts array
// dimensions on top of the element type.
type ClassKey struct {
	Dims   int
	Prim   byte
	Pkg    string
	Simple string
}

// IsClass reports whether the element type is a class (not a primitive).
func (k ClassKey) IsClass() bool { return k.Prim == 0 }

// Zero reports whether k is the zero key (used for "no superclass").
func (k ClassKey) Zero() bool { return k == ClassKey{} }

// String renders the key for diagnostics.
func (k ClassKey) String() string {
	base := k.Simple
	if k.Pkg != "" {
		base = k.Pkg + "/" + k.Simple
	}
	if !k.IsClass() {
		base = string(k.Prim)
	}
	return strings.Repeat("[", k.Dims) + base
}

// TypeToKey converts a parsed descriptor type to its factored key.
func TypeToKey(t classfile.Type) ClassKey {
	k := ClassKey{Dims: t.Dims}
	if t.Base == 'L' {
		k.Pkg, k.Simple = classfile.SplitClassName(t.Name)
	} else {
		k.Prim = t.Base
	}
	return k
}

// KeyToType is the inverse of TypeToKey.
func KeyToType(k ClassKey) classfile.Type {
	if k.IsClass() {
		return classfile.Type{Dims: k.Dims, Base: 'L', Name: classfile.JoinClassName(k.Pkg, k.Simple)}
	}
	return classfile.Type{Dims: k.Dims, Base: k.Prim}
}

// ClassNameToKey converts a Class constant's binary name — which may be an
// array descriptor such as "[Ljava/lang/String;" — to a key.
func ClassNameToKey(binary string) (ClassKey, error) {
	if strings.HasPrefix(binary, "[") {
		t, err := classfile.ParseFieldDescriptor(binary)
		if err != nil {
			return ClassKey{}, fmt.Errorf("ir: array class name %q: %w", binary, err)
		}
		return TypeToKey(t), nil
	}
	if err := classfile.CheckClassName(binary); err != nil {
		return ClassKey{}, fmt.Errorf("ir: %w", err)
	}
	pkg, simple := classfile.SplitClassName(binary)
	return ClassKey{Pkg: pkg, Simple: simple}, nil
}

// KeyToClassName is the inverse of ClassNameToKey.
func KeyToClassName(k ClassKey) string {
	if k.Dims > 0 || !k.IsClass() {
		return KeyToType(k).String()
	}
	return classfile.JoinClassName(k.Pkg, k.Simple)
}

// Signature is a method type in factored form: the return type followed by
// the parameter types (§4: "an array of classes containing the return type
// and the argument types").
type Signature []ClassKey

// DescriptorToSignature factors a method descriptor.
func DescriptorToSignature(desc string) (Signature, error) {
	params, ret, err := classfile.ParseMethodDescriptor(desc)
	if err != nil {
		return nil, err
	}
	sig := make(Signature, 0, len(params)+1)
	sig = append(sig, TypeToKey(ret))
	for _, p := range params {
		sig = append(sig, TypeToKey(p))
	}
	return sig, nil
}

// SignatureToDescriptor is the inverse of DescriptorToSignature.
func SignatureToDescriptor(sig Signature) string {
	params := make([]classfile.Type, 0, len(sig)-1)
	for _, k := range sig[1:] {
		params = append(params, KeyToType(k))
	}
	return classfile.MethodDescriptor(params, KeyToType(sig[0]))
}

// ArgSlots returns the number of argument slots the signature consumes,
// excluding any receiver (used for invokeinterface counts).
func (sig Signature) ArgSlots() int {
	n := 0
	for _, k := range sig[1:] {
		n += KeyToType(k).Slots()
	}
	return n
}

// MemberRef is a factored field or method reference.
type MemberRef struct {
	Kind  classfile.ConstKind // Fieldref, Methodref or InterfaceMethodref
	Owner ClassKey
	Name  string
	Desc  string // original descriptor; factored forms derive from it
}

// FieldTypeKey returns the factored type of a field reference.
func (m MemberRef) FieldTypeKey() (ClassKey, error) {
	t, err := classfile.ParseFieldDescriptor(m.Desc)
	if err != nil {
		return ClassKey{}, err
	}
	return TypeToKey(t), nil
}

// MethodSignature returns the factored signature of a method reference.
func (m MemberRef) MethodSignature() (Signature, error) {
	return DescriptorToSignature(m.Desc)
}

// ResolveClass resolves a Class constant-pool entry to its key.
func ResolveClass(cf *classfile.ClassFile, idx uint16) (ClassKey, error) {
	if int(idx) >= len(cf.Pool) || cf.Pool[idx].Kind != classfile.KindClass {
		return ClassKey{}, fmt.Errorf("ir: index %d is not a Class constant", idx)
	}
	return ClassNameToKey(cf.Utf8At(cf.Pool[idx].Name))
}

// ResolveMember resolves a Fieldref/Methodref/InterfaceMethodref entry.
func ResolveMember(cf *classfile.ClassFile, idx uint16) (MemberRef, error) {
	if int(idx) >= len(cf.Pool) {
		return MemberRef{}, fmt.Errorf("ir: member index %d out of range", idx)
	}
	c := &cf.Pool[idx]
	switch c.Kind {
	case classfile.KindFieldref, classfile.KindMethodref, classfile.KindInterfaceMethodref:
	default:
		return MemberRef{}, fmt.Errorf("ir: index %d is %v, not a member ref", idx, c.Kind)
	}
	owner, err := ResolveClass(cf, c.Class)
	if err != nil {
		return MemberRef{}, err
	}
	if int(c.NameAndType) >= len(cf.Pool) || cf.Pool[c.NameAndType].Kind != classfile.KindNameAndType {
		return MemberRef{}, fmt.Errorf("ir: member %d has bad NameAndType", idx)
	}
	nat := &cf.Pool[c.NameAndType]
	return MemberRef{
		Kind:  c.Kind,
		Owner: owner,
		Name:  cf.Utf8At(nat.Name),
		Desc:  cf.Utf8At(nat.Desc),
	}, nil
}

// SigString is a canonical comparable form of a signature, usable as a
// map key for move-to-front pools.
func (sig Signature) SigString() string {
	return string(sig.AppendSigString(nil))
}

// AppendSigString appends SigString's bytes to dst, for callers that
// reuse a scratch buffer. Each key renders as "<dims><prim+1><pkg>/<simple>;"
// with prim+1 encoded as a rune (these are move-to-front pool identities,
// so the bytes must never drift).
func (sig Signature) AppendSigString(dst []byte) []byte {
	for _, k := range sig {
		dst = strconv.AppendInt(dst, int64(k.Dims), 10)
		dst = utf8.AppendRune(dst, rune(k.Prim+1))
		dst = append(dst, k.Pkg...)
		dst = append(dst, '/')
		dst = append(dst, k.Simple...)
		dst = append(dst, ';')
	}
	return dst
}
