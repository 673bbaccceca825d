package classfile

import (
	"errors"
	"fmt"
	"strings"

	"classpack/internal/corrupt"
)

// Type is a parsed field or return type. Primitives are identified by
// their descriptor character; reference types carry the class binary name.
type Type struct {
	Dims int    // array dimensions, 0 for scalars
	Base byte   // 'B','C','D','F','I','J','S','Z','V', or 'L' for references
	Name string // binary class name when Base == 'L'
}

// Void is the void return type.
var Void = Type{Base: 'V'}

// PrimitiveType returns the Type for a primitive descriptor character.
func PrimitiveType(c byte) Type { return Type{Base: c} }

// ObjectType returns the Type for a class binary name.
func ObjectType(name string) Type { return Type{Base: 'L', Name: name} }

// IsRef reports whether the type is a reference (class or array).
func (t Type) IsRef() bool { return t.Dims > 0 || t.Base == 'L' }

// IsWide reports whether the type occupies two local/stack slots.
func (t Type) IsWide() bool { return t.Dims == 0 && (t.Base == 'J' || t.Base == 'D') }

// Slots returns the number of stack/local slots the type occupies
// (0 for void).
func (t Type) Slots() int {
	if t.Base == 'V' && t.Dims == 0 {
		return 0
	}
	if t.IsWide() {
		return 2
	}
	return 1
}

// String returns the JVM descriptor form of the type.
func (t Type) String() string {
	var b strings.Builder
	for i := 0; i < t.Dims; i++ {
		b.WriteByte('[')
	}
	if t.Base == 'L' {
		b.WriteByte('L')
		b.WriteString(t.Name)
		b.WriteByte(';')
	} else {
		b.WriteByte(t.Base)
	}
	return b.String()
}

func parseType(s string, pos int, allowVoid bool) (Type, int, error) {
	var t Type
	for pos < len(s) && s[pos] == '[' {
		t.Dims++
		pos++
	}
	if pos >= len(s) {
		return t, pos, corrupt.Errorf("descriptor", int64(pos), "truncated descriptor %q", s)
	}
	switch c := s[pos]; c {
	case 'B', 'C', 'D', 'F', 'I', 'J', 'S', 'Z':
		t.Base = c
		return t, pos + 1, nil
	case 'V':
		if !allowVoid || t.Dims > 0 {
			return t, pos, corrupt.Errorf("descriptor", int64(pos), "void in invalid position in %q", s)
		}
		t.Base = 'V'
		return t, pos + 1, nil
	case 'L':
		end := strings.IndexByte(s[pos:], ';')
		if end < 0 {
			return t, pos, corrupt.Errorf("descriptor", int64(pos), "unterminated class type in %q", s)
		}
		t.Base = 'L'
		t.Name = s[pos+1 : pos+end]
		if err := CheckClassName(t.Name); err != nil {
			return t, pos, corrupt.Errorf("descriptor", int64(pos), "%v in %q", err, s)
		}
		return t, pos + end + 1, nil
	default:
		return t, pos, corrupt.Errorf("descriptor", int64(pos), "bad descriptor char %q in %q", c, s)
	}
}

// ParseFieldDescriptor parses a field descriptor such as "[Ljava/lang/String;".
func ParseFieldDescriptor(s string) (Type, error) {
	t, pos, err := parseType(s, 0, false)
	if err != nil {
		return t, err
	}
	if pos != len(s) {
		return t, corrupt.Errorf("descriptor", int64(pos), "trailing characters in field descriptor %q", s)
	}
	return t, nil
}

// ParseMethodDescriptor parses a method descriptor such as
// "(ILjava/lang/String;)V" into parameter types and a return type.
func ParseMethodDescriptor(s string) (params []Type, ret Type, err error) {
	if len(s) == 0 || s[0] != '(' {
		return nil, ret, corrupt.Errorf("descriptor", 0, "method descriptor %q missing '('", s)
	}
	pos := 1
	for pos < len(s) && s[pos] != ')' {
		var t Type
		t, pos, err = parseType(s, pos, false)
		if err != nil {
			return nil, ret, err
		}
		params = append(params, t)
	}
	if pos >= len(s) {
		return nil, ret, corrupt.Errorf("descriptor", int64(pos), "method descriptor %q missing ')'", s)
	}
	pos++ // ')'
	ret, pos, err = parseType(s, pos, true)
	if err != nil {
		return nil, ret, err
	}
	if pos != len(s) {
		return nil, ret, corrupt.Errorf("descriptor", int64(pos), "trailing characters in method descriptor %q", s)
	}
	return params, ret, nil
}

// MethodDescriptor builds a descriptor string from parameter and return
// types.
func MethodDescriptor(params []Type, ret Type) string {
	var b strings.Builder
	b.WriteByte('(')
	for _, p := range params {
		b.WriteString(p.String())
	}
	b.WriteByte(')')
	b.WriteString(ret.String())
	return b.String()
}

// CheckClassName refuses a binary class name ("java/lang/String") that
// is empty or has an empty segment: a leading, trailing or doubled '/',
// which JVMS §4.2.1 forbids. SplitClassName would factor "/A" into the
// empty package and "A", which JoinClassName joins back as "A".
func CheckClassName(name string) error {
	switch {
	case name == "":
		return errors.New("empty class name")
	case name[0] == '/' || name[len(name)-1] == '/' || strings.Contains(name, "//"):
		return fmt.Errorf("class name %q has an empty segment", name)
	}
	return nil
}

// SplitClassName splits a binary name into package ("java/lang", possibly
// empty) and simple name ("String") — the factoring of §4.
func SplitClassName(binary string) (pkg, simple string) {
	if i := strings.LastIndexByte(binary, '/'); i >= 0 {
		return binary[:i], binary[i+1:]
	}
	return "", binary
}

// JoinClassName is the inverse of SplitClassName.
func JoinClassName(pkg, simple string) string {
	if pkg == "" {
		return simple
	}
	return pkg + "/" + simple
}
