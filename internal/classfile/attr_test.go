package classfile

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestAttrRefsPinned pins the walk of ClassFile.Refs over a class that
// holds every attribute this package interprets: each visited field's
// name and kinds, in order. Strip's and Verify's errors quote the names,
// and the zero-skip rule for an outer class, an anonymous inner name, a
// catch-all catch_type and an in-memory attribute's name shows as
// visits that are absent.
func TestAttrRefsPinned(t *testing.T) {
	cf := buildSample(t)
	ic := cf.Attrs[1].(*InnerClassesAttr)
	ic.Entries = append(ic.Entries, InnerClass{Inner: cf.ThisClass, AccessFlags: AccStatic})
	code := CodeOf(&cf.Methods[0])
	code.Handlers = append(code.Handlers, ExceptionHandler{})
	cf.Fields[0].Attrs = append(cf.Fields[0].Attrs, &DeprecatedAttr{})
	var got []string
	cf.Refs(func(_ *uint16, want KindSet, what string) {
		got = append(got, fmt.Sprintf("%s %v", what, want))
	})
	want := []string{
		"this_class Class",
		"super_class Class",
		"interfaces Class",
		"field name_index Utf8",
		"field descriptor_index Utf8",
		"attribute_name_index Utf8",
		"ConstantValue constantvalue_index Integer|Float|Long|Double|String",
		"field name_index Utf8",
		"field descriptor_index Utf8",
		"attribute_name_index Utf8",
		"field name_index Utf8",
		"field descriptor_index Utf8",
		"attribute_name_index Utf8",
		"ConstantValue constantvalue_index Integer|Float|Long|Double|String",
		"field name_index Utf8",
		"field descriptor_index Utf8",
		"attribute_name_index Utf8",
		"ConstantValue constantvalue_index Integer|Float|Long|Double|String",
		"field name_index Utf8",
		"field descriptor_index Utf8",
		"attribute_name_index Utf8",
		"ConstantValue constantvalue_index Integer|Float|Long|Double|String",
		"field name_index Utf8",
		"field descriptor_index Utf8",
		"attribute_name_index Utf8",
		"ConstantValue constantvalue_index Integer|Float|Long|Double|String",
		"method name_index Utf8",
		"method descriptor_index Utf8",
		"attribute_name_index Utf8",
		"Code catch_type Class",
		"attribute_name_index Utf8",
		"attribute_name_index Utf8",
		"LocalVariableTable name_index Utf8",
		"LocalVariableTable descriptor_index Utf8",
		"attribute_name_index Utf8",
		"Exceptions exception_index Class",
		"method name_index Utf8",
		"method descriptor_index Utf8",
		"attribute_name_index Utf8",
		"method name_index Utf8",
		"method descriptor_index Utf8",
		"attribute_name_index Utf8",
		"SourceFile sourcefile_index Utf8",
		"attribute_name_index Utf8",
		"InnerClasses inner_class_info_index Class",
		"InnerClasses outer_class_info_index Class",
		"InnerClasses inner_name_index Utf8",
		"InnerClasses inner_class_info_index Class",
		"attribute_name_index Utf8",
	}
	if len(got) != len(want) {
		t.Errorf("walk made %d visits, want %d", len(got), len(want))
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Errorf("visit %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// rawAttrClass returns the bytes of a class whose one attribute is named
// name and holds the raw body that body builds. Parse reads that body as
// the type the name gives it.
func rawAttrClass(t *testing.T, name string, body func(b *Builder) []byte) []byte {
	t.Helper()
	b := NewBuilder("p/A", "java/lang/Object", AccPublic)
	b.CF.Attrs = append(b.CF.Attrs, &UnknownAttr{attrBase: attrBase{b.Utf8(name)}, Name: name, Data: body(b)})
	cf, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	data, err := Write(cf)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestParseRefusesOverrunningCounts gives every list of an attribute a
// count of 65535 with two bytes left in its body. Parse must fail with
// a ParseError under the attribute's name, nested ones included, and
// must not allocate the list first: 65535 of its smallest elements
// take 128 KiB.
func TestParseRefusesOverrunningCounts(t *testing.T) {
	// A count of 65535 with two bytes after it.
	overrun := []byte{0xff, 0xff, 0, 1}
	raw := func(b ...byte) func(*Builder) []byte { return func(*Builder) []byte { return b } }
	code := func(tail ...byte) []byte {
		// max_stack, max_locals, code_length 1, return.
		return append([]byte{0, 1, 0, 1, 0, 0, 0, 1, 0xb1}, tail...)
	}
	cases := []struct {
		name, attr, count string
		body              func(*Builder) []byte
	}{
		{"Exceptions", "Exceptions", "exception", raw(overrun...)},
		{"LineNumberTable", "LineNumberTable", "line number", raw(overrun...)},
		{"LocalVariableTable", "LocalVariableTable", "local variable", raw(overrun...)},
		{"InnerClasses", "InnerClasses", "inner class", raw(overrun...)},
		{"Code handlers", "Code", "handler", raw(code(overrun...)...)},
		{"Code attributes", "Code", "attribute", raw(code(append([]byte{0, 0}, overrun...)...)...)},
		{"LineNumberTable in Code", "Code", "line number", func(b *Builder) []byte {
			// No handlers, then one LineNumberTable of 4 bytes.
			lnt := b.Utf8("LineNumberTable")
			return code(append([]byte{0, 0, 0, 1, byte(lnt >> 8), byte(lnt), 0, 0, 0, 4}, overrun...)...)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := rawAttrClass(t, c.attr, c.body)
			var err error
			allocated := allocBytes(func() { _, err = Parse(data) })
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("Parse = %v, want a ParseError", err)
			}
			want := fmt.Sprintf("%s count 65535 overruns", c.count)
			if !strings.HasPrefix(err.Error(), `classfile: attribute "`+c.attr+`": `) || !strings.Contains(err.Error(), want) {
				t.Fatalf("Parse = %v, want %q under attribute %q", err, want, c.attr)
			}
			if allocated > 64<<10 {
				t.Fatalf("Parse allocated %d bytes before refusing the count", allocated)
			}
		})
	}
}

// TestAttrFieldOrder parses each interpreted attribute from a body
// written out by hand in JVMS §4.7's field order, with every field
// distinct, and checks where each value lands. A body states its fields
// once for Parse and Write alike, so a round trip cannot see two fields
// swapped; this test can.
func TestAttrFieldOrder(t *testing.T) {
	cases := []struct {
		name string
		body []byte
		want Attribute
	}{
		{"ConstantValue", []byte{0, 7}, &ConstantValueAttr{Index: 7}},
		{"SourceFile", []byte{0, 7}, &SourceFileAttr{Index: 7}},
		{"Exceptions", []byte{0, 2, 0, 7, 0, 8}, &ExceptionsAttr{Classes: []uint16{7, 8}}},
		{"LineNumberTable", []byte{0, 1, 0, 3, 0, 4}, &LineNumberTableAttr{Entries: []LineNumber{{StartPC: 3, Line: 4}}}},
		{"LocalVariableTable", []byte{0, 1, 0, 1, 0, 2, 0, 7, 0, 8, 0, 5},
			&LocalVariableTableAttr{Entries: []LocalVariable{{StartPC: 1, Length: 2, Name: 7, Desc: 8, Slot: 5}}}},
		{"InnerClasses", []byte{0, 1, 0, 7, 0, 8, 0, 9, 0, 1},
			&InnerClassesAttr{Entries: []InnerClass{{Inner: 7, Outer: 8, InnerName: 9, AccessFlags: 1}}}},
		{"Synthetic", nil, &SyntheticAttr{}},
		{"Deprecated", nil, &DeprecatedAttr{}},
		// max_stack 2, max_locals 3, code [nop, return], one handler
		// [0, 1) -> 1 catching entry 7, no attributes.
		{"Code", []byte{0, 2, 0, 3, 0, 0, 0, 2, 0x00, 0xb1, 0, 1, 0, 0, 0, 1, 0, 1, 0, 7, 0, 0},
			&CodeAttr{MaxStack: 2, MaxLocals: 3, Code: []byte{0x00, 0xb1},
				Handlers: []ExceptionHandler{{StartPC: 0, EndPC: 1, HandlerPC: 1, CatchType: 7}}, Attrs: []Attribute{}}},
	}
	for _, c := range cases {
		cf, err := Parse(rawAttrClass(t, c.name, func(*Builder) []byte { return c.body }))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := cf.Attrs[0]
		*got.nameRef() = 0
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s parsed as %+v, want %+v", c.name, got, c.want)
		}
	}
}

// allocBytes returns the heap bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestParseAllocs pins the allocations of one Parse of the sample class:
// the class, its pool, its lists and its attributes. The codec shares
// the class's allocation, so it adds none.
func TestParseAllocs(t *testing.T) {
	data, err := Write(buildSample(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() { _, _ = Parse(data) }); got > 34 {
		t.Fatalf("Parse allocated %.0f times, want at most 34", got)
	}
}

// TestCheckAttrs holds CheckAttrs, and so Verify, to the name table:
// an attribute that the JVM reads is refused wherever it sits, naming
// itself, its owner and the class version, while debug data and names
// outside JVMS pass.
func TestCheckAttrs(t *testing.T) {
	unknown := func(b *Builder, name string) Attribute {
		return &UnknownAttr{attrBase: attrBase{b.Utf8(name)}, Name: name}
	}
	cases := []struct {
		name  string
		place func(b *Builder, field, method *Member, code *CodeAttr, name string)
		owner string
	}{
		{"Signature", func(b *Builder, _, _ *Member, _ *CodeAttr, name string) {
			b.CF.Attrs = append(b.CF.Attrs, unknown(b, name))
		}, "class p/A"},
		{"RuntimeVisibleAnnotations", func(b *Builder, f, _ *Member, _ *CodeAttr, name string) {
			f.Attrs = append(f.Attrs, unknown(b, name))
		}, "field f"},
		{"MethodParameters", func(b *Builder, _, m *Member, _ *CodeAttr, name string) {
			m.Attrs = append(m.Attrs, unknown(b, name))
		}, "method m()V"},
		{"StackMapTable", func(b *Builder, _, _ *Member, code *CodeAttr, name string) {
			code.Attrs = append(code.Attrs, unknown(b, name))
		}, "Code of method m()V"},
	}
	for _, c := range cases {
		for _, name := range []string{c.name, "LocalVariableTypeTable", "SourceDebugExtension", "X-Custom"} {
			b := NewBuilder("p/A", "java/lang/Object", AccPublic)
			b.CF.MajorVersion, b.CF.MinorVersion = 52, 0
			f := b.AddField(AccPrivate, "f", "I")
			m := b.AddMethod(AccPublic|AccStatic, "m", "()V")
			code := &CodeAttr{MaxStack: 1, MaxLocals: 1, Code: []byte{0xb1}}
			b.AttachCode(m, code)
			c.place(b, f, m, code, name)
			data, err := Write(b.CF)
			if err != nil {
				t.Fatal(err)
			}
			cf, err := Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			if name != c.name {
				if err := Verify(cf); err != nil {
					t.Errorf("Verify refused %s in %s: %v", name, c.owner, err)
				}
				continue
			}
			for _, err := range []error{CheckAttrs(cf), Verify(cf)} {
				want := fmt.Sprintf("%s in %s, class version 52.0", name, c.owner)
				if !errors.Is(err, ErrUnsupportedAttribute) || !strings.Contains(err.Error(), want) {
					t.Errorf("%s in %s: err = %v, want ErrUnsupportedAttribute naming %q", name, c.owner, err, want)
				}
			}
		}
	}
}

// TestAttrSize checks AttrSize on each attribute of the sample class,
// nested ones included, against its attribute_length counted by hand.
func TestAttrSize(t *testing.T) {
	data, err := Write(buildSample(t))
	if err != nil {
		t.Fatal(err)
	}
	cf, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"SourceFile":    2,
		"InnerClasses":  2 + 8,
		"X-Custom":      4,
		"ConstantValue": 2,
		"Synthetic":     0,
		"Deprecated":    0,
		"Exceptions":    2 + 2,
		// max_stack, max_locals, code_length and one byte of code, one
		// handler, and the two attributes below with their headers.
		"Code":               2 + 2 + 4 + 1 + 2 + 8 + 2 + 6 + 6 + 6 + 12,
		"LineNumberTable":    2 + 4,
		"LocalVariableTable": 2 + 10,
	}
	attrs := append([]Attribute(nil), cf.Attrs...)
	for _, m := range append(cf.Fields, cf.Methods...) {
		attrs = append(attrs, m.Attrs...)
	}
	attrs = append(attrs, CodeOf(&cf.Methods[0]).Attrs...)
	for _, a := range attrs {
		if got := AttrSize(a); got != want[a.AttrName()] {
			t.Errorf("AttrSize(%s) = %d, want %d", a.AttrName(), got, want[a.AttrName()])
		}
	}
	// A nested attribute built without a name index still counts its
	// index's two bytes.
	code := &CodeAttr{Code: []byte{0xb1}, Attrs: []Attribute{&SyntheticAttr{}}}
	if got := AttrSize(code); got != 12+1+6 {
		t.Errorf("AttrSize(Code) = %d, want 19", got)
	}
}

// TestMarks checks that Marks reads back what AttachMarks attaches.
func TestMarks(t *testing.T) {
	for _, want := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
		b := NewBuilder("p/A", "java/lang/Object", AccPublic)
		var attrs []Attribute
		b.AttachMarks(&attrs, want[0], want[1])
		if s, d := Marks(attrs); s != want[0] || d != want[1] {
			t.Errorf("Marks(AttachMarks(%v)) = %v, %v", want, s, d)
		}
	}
}
