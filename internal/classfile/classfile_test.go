package classfile

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// buildSample constructs a classfile exercising every constant kind and
// attribute this package models.
func buildSample(t *testing.T) *ClassFile {
	t.Helper()
	b := NewBuilder("com/example/Sample", "java/lang/Object", AccPublic|AccSuper)
	b.AddInterface("java/lang/Runnable")
	b.AttachSourceFile("Sample.java")

	f := b.AddField(AccPrivate|AccStatic|AccFinal, "LIMIT", "I")
	b.AttachConstantValue(f, b.Int(42))
	f2 := b.AddField(AccPrivate, "name", "Ljava/lang/String;")
	f2.Attrs = append(f2.Attrs, &SyntheticAttr{attrBase{b.Utf8("Synthetic")}})
	fd := b.AddField(AccPublic|AccStatic, "RATIO", "D")
	b.AttachConstantValue(fd, b.Double(3.25))
	fl := b.AddField(AccPublic|AccStatic, "BIG", "J")
	b.AttachConstantValue(fl, b.Long(1<<40))
	ff := b.AddField(AccPublic|AccStatic, "EPS", "F")
	b.AttachConstantValue(ff, b.Float(0.5))
	fs := b.AddField(AccPublic|AccStatic, "GREETING", "Ljava/lang/String;")
	b.AttachConstantValue(fs, b.String("hello, world"))

	m := b.AddMethod(AccPublic, "run", "()V")
	b.Methodref("java/io/PrintStream", "println", "(Ljava/lang/String;)V")
	b.Fieldref("java/lang/System", "out", "Ljava/io/PrintStream;")
	b.InterfaceMethodref("java/lang/Runnable", "run", "()V")
	code := &CodeAttr{MaxStack: 2, MaxLocals: 1, Code: []byte{0xb1}} // return
	code.Handlers = []ExceptionHandler{{StartPC: 0, EndPC: 0, HandlerPC: 0, CatchType: b.Class("java/lang/Exception")}}
	code.Attrs = append(code.Attrs, &LineNumberTableAttr{
		attrBase: attrBase{b.Utf8("LineNumberTable")},
		Entries:  []LineNumber{{StartPC: 0, Line: 10}},
	})
	code.Attrs = append(code.Attrs, &LocalVariableTableAttr{
		attrBase: attrBase{b.Utf8("LocalVariableTable")},
		Entries:  []LocalVariable{{StartPC: 0, Length: 1, Name: b.Utf8("this"), Desc: b.Utf8("Lcom/example/Sample;"), Slot: 0}},
	})
	b.AttachCode(m, code)
	b.AttachExceptions(m, []string{"java/io/IOException"})

	dep := b.AddMethod(AccPublic, "old", "()V")
	dep.Attrs = append(dep.Attrs, &DeprecatedAttr{attrBase{b.Utf8("Deprecated")}})
	abs := b.AddMethod(AccPublic|AccAbstract, "todo", "(IJ[Ljava/lang/String;)Ljava/lang/Object;")
	_ = abs

	b.CF.Attrs = append(b.CF.Attrs, &InnerClassesAttr{
		attrBase: attrBase{b.Utf8("InnerClasses")},
		Entries: []InnerClass{{
			Inner:       b.Class("com/example/Sample$Inner"),
			Outer:       b.CF.ThisClass,
			InnerName:   b.Utf8("Inner"),
			AccessFlags: AccPublic,
		}},
	})
	b.CF.Attrs = append(b.CF.Attrs, &UnknownAttr{
		attrBase: attrBase{b.Utf8("X-Custom")},
		Name:     "X-Custom",
		Data:     []byte{1, 2, 3, 4},
	})

	cf, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return cf
}

func TestBuildVerifyWriteParseRoundTrip(t *testing.T) {
	cf := buildSample(t)
	if err := Verify(cf); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	data, err := Write(cf)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	cf2, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := Verify(cf2); err != nil {
		t.Fatalf("Verify parsed: %v", err)
	}
	data2, err := Write(cf2)
	if err != nil {
		t.Fatalf("Write parsed: %v", err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("parse∘write is not identity")
	}
	if got := cf2.ThisClassName(); got != "com/example/Sample" {
		t.Fatalf("ThisClassName = %q", got)
	}
	if got := cf2.SuperClassName(); got != "java/lang/Object" {
		t.Fatalf("SuperClassName = %q", got)
	}
	if len(cf2.Fields) != 6 || len(cf2.Methods) != 3 {
		t.Fatalf("got %d fields, %d methods", len(cf2.Fields), len(cf2.Methods))
	}
	// Constant values survive.
	var sawDouble, sawLong, sawString bool
	for _, c := range cf2.Pool {
		switch c.Kind {
		case KindDouble:
			sawDouble = c.Double == 3.25
		case KindLong:
			sawLong = c.Long == 1<<40
		case KindString:
			if cf2.Utf8At(c.Str) == "hello, world" {
				sawString = true
			}
		}
	}
	if !sawDouble || !sawLong || !sawString {
		t.Fatalf("constants lost: double=%v long=%v string=%v", sawDouble, sawLong, sawString)
	}
}

func TestParseErrors(t *testing.T) {
	good, err := Write(buildSample(t))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"bad magic":      {0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0},
		"truncated":      good[:len(good)/2],
		"trailing":       append(append([]byte(nil), good...), 0),
		"bad pool count": {0xca, 0xfe, 0xba, 0xbe, 0, 3, 0, 45, 0, 0},
	}
	for name, data := range cases {
		if _, err := Parse(data); err == nil {
			t.Errorf("%s: Parse succeeded", name)
		}
	}
}

func TestParseRejectsBadTag(t *testing.T) {
	data := []byte{0xca, 0xfe, 0xba, 0xbe, 0, 3, 0, 45, 0, 2, 99}
	if _, err := Parse(data); err == nil || !strings.Contains(err.Error(), "tag") {
		t.Fatalf("err = %v, want tag error", err)
	}
}

func TestVerifyCatchesBadReferences(t *testing.T) {
	cf := buildSample(t)
	saved := cf.ThisClass
	cf.ThisClass = 9999
	if err := Verify(cf); err == nil {
		t.Error("Verify accepted out-of-range this_class")
	}
	cf.ThisClass = saved

	// Point a Class constant's name at a non-Utf8 entry.
	for i := 1; i < len(cf.Pool); i++ {
		if cf.Pool[i].Kind == KindClass {
			savedName := cf.Pool[i].Name
			cf.Pool[i].Name = cf.ThisClass
			if err := Verify(cf); err == nil {
				t.Error("Verify accepted Class.Name pointing at a Class")
			}
			cf.Pool[i].Name = savedName
			break
		}
	}

	// Bad member descriptor.
	bad := cf.Pool[cf.Fields[0].Desc].Utf8
	cf.Pool[cf.Fields[0].Desc].Utf8 = "NotADescriptor"
	if err := Verify(cf); err == nil {
		t.Error("Verify accepted bad field descriptor")
	}
	cf.Pool[cf.Fields[0].Desc].Utf8 = bad
}

func TestModifiedUTF8(t *testing.T) {
	cases := []string{
		"", "plain ascii", "café", "\x00embedded nul\x00",
		"世界", "emoji \U0001F600 pair", strings.Repeat("x", 1000),
	}
	for _, s := range cases {
		enc := EncodeModifiedUTF8(s)
		// Modified UTF-8 never contains NUL or 4-byte sequences.
		for _, c := range enc {
			if c == 0 {
				t.Errorf("%q: NUL byte in encoding", s)
			}
			if c&0xF8 == 0xF0 {
				t.Errorf("%q: 4-byte UTF-8 lead in encoding", s)
			}
		}
		got, err := DecodeModifiedUTF8(enc)
		if err != nil || got != s {
			t.Errorf("roundtrip %q: got %q, err %v", s, got, err)
		}
	}
}

func TestModifiedUTF8Quick(t *testing.T) {
	f := func(s string) bool {
		got, err := DecodeModifiedUTF8(EncodeModifiedUTF8(s))
		// Arbitrary Go strings may hold invalid UTF-8, which range-over-string
		// maps to U+FFFD; compare against that normalization.
		want := strings.ToValidUTF8(s, "�")
		return err == nil && got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestModifiedUTF8DecodeErrors(t *testing.T) {
	cases := [][]byte{
		{0x00},                   // raw NUL
		{0xC0},                   // truncated 2-byte
		{0xE0, 0x80},             // truncated 3-byte
		{0xF0, 0x80, 0x80, 0x80}, // 4-byte form is invalid in modified UTF-8
		{0xC0, 0x00},             // bad continuation
	}
	for _, b := range cases {
		if _, err := DecodeModifiedUTF8(b); err == nil {
			t.Errorf("DecodeModifiedUTF8(% x) succeeded", b)
		}
	}
}

// TestModifiedUTF8SurrogateHandling pins the decoder's UTF-16 semantics
// against the reference (unit collection + utf16.Decode) after the
// zero-copy rewrite: surrogate pairs combine, unpaired surrogates become
// U+FFFD, NUL travels as C0 80, and the ASCII fast path aliases its
// input.
func TestModifiedUTF8SurrogateHandling(t *testing.T) {
	enc3 := func(u uint16) []byte { // one UTF-16 unit as a 3-byte sequence
		return []byte{0xE0 | byte(u>>12), 0x80 | byte(u>>6&0x3F), 0x80 | byte(u&0x3F)}
	}
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	cases := []struct {
		name string
		in   []byte
		want string
	}{
		{"surrogate pair", cat(enc3(0xD83D), enc3(0xDE00)), "\U0001F600"},
		{"pair between ascii", cat([]byte("a"), enc3(0xD83D), enc3(0xDE00), []byte("b")), "a\U0001F600b"},
		{"embedded nul", []byte{'a', 0xC0, 0x80, 'b'}, "a\x00b"},
		{"lone high surrogate", enc3(0xD800), "�"},
		{"lone low surrogate", enc3(0xDC00), "�"},
		{"high at end after ascii", cat([]byte("x"), enc3(0xDBFF)), "x�"},
		{"high then non-surrogate", cat(enc3(0xD800), enc3(0x4E16)), "�世"},
		{"high then high then low", cat(enc3(0xD83D), enc3(0xD83D), enc3(0xDE00)), "�\U0001F600"},
		{"low then high", cat(enc3(0xDC00), enc3(0xD800)), "��"},
		{"bmp cjk", enc3(0x4E16), "世"},
	}
	for _, tc := range cases {
		got, err := DecodeModifiedUTF8(tc.in)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
	// A high surrogate followed by a malformed sequence is an encoding
	// error, not U+FFFD.
	if _, err := DecodeModifiedUTF8(cat(enc3(0xD800), []byte{0xE0, 0x80})); err == nil {
		t.Error("high surrogate + truncated sequence decoded without error")
	}
}

func TestDescriptors(t *testing.T) {
	params, ret, err := ParseMethodDescriptor("(I[[Ljava/lang/String;D)Ljava/util/List;")
	if err != nil {
		t.Fatal(err)
	}
	if len(params) != 3 {
		t.Fatalf("params = %v", params)
	}
	if params[0] != (Type{Base: 'I'}) {
		t.Errorf("param 0 = %+v", params[0])
	}
	if params[1].Dims != 2 || params[1].Name != "java/lang/String" {
		t.Errorf("param 1 = %+v", params[1])
	}
	if !params[2].IsWide() || params[2].Slots() != 2 {
		t.Errorf("param 2 = %+v", params[2])
	}
	if ret.Name != "java/util/List" || ret.IsWide() {
		t.Errorf("ret = %+v", ret)
	}
	if got := MethodDescriptor(params, ret); got != "(I[[Ljava/lang/String;D)Ljava/util/List;" {
		t.Errorf("MethodDescriptor = %q", got)
	}

	if _, err := ParseFieldDescriptor("V"); err == nil {
		t.Error("void field descriptor accepted")
	}
	if _, err := ParseFieldDescriptor("Ljava/lang/String"); err == nil {
		t.Error("unterminated class descriptor accepted")
	}
	if _, err := ParseFieldDescriptor("II"); err == nil {
		t.Error("trailing junk accepted")
	}
	if _, _, err := ParseMethodDescriptor("()"); err == nil {
		t.Error("missing return type accepted")
	}
	if _, _, err := ParseMethodDescriptor("(V)V"); err == nil {
		t.Error("void parameter accepted")
	}

	v, err := ParseFieldDescriptor("[[[I")
	if err != nil || v.Dims != 3 || v.Base != 'I' {
		t.Errorf("array descriptor = %+v, %v", v, err)
	}
	if v.String() != "[[[I" {
		t.Errorf("String() = %q", v.String())
	}
}

func TestSplitJoinClassName(t *testing.T) {
	cases := []struct{ bin, pkg, simple string }{
		{"java/lang/String", "java/lang", "String"},
		{"Main", "", "Main"},
		{"a/B", "a", "B"},
	}
	for _, c := range cases {
		pkg, simple := SplitClassName(c.bin)
		if pkg != c.pkg || simple != c.simple {
			t.Errorf("SplitClassName(%q) = %q, %q", c.bin, pkg, simple)
		}
		if got := JoinClassName(pkg, simple); got != c.bin {
			t.Errorf("JoinClassName(%q, %q) = %q", pkg, simple, got)
		}
	}
}

// TestCheckClassName holds binary class names, alone and inside
// descriptors, to JVMS §4.2.1: no empty name and no empty segment.
func TestCheckClassName(t *testing.T) {
	for _, ok := range []string{"A", "java/lang/String", "a/b$C", "aL/b"} {
		if err := CheckClassName(ok); err != nil {
			t.Errorf("CheckClassName(%q) = %v", ok, err)
		}
		if _, err := ParseFieldDescriptor("[L" + ok + ";"); err != nil {
			t.Errorf("ParseFieldDescriptor of %q: %v", ok, err)
		}
		if err := checkDescriptorNames("(IL" + ok + ";)L" + ok + ";"); err != nil {
			t.Errorf("checkDescriptorNames of %q: %v", ok, err)
		}
	}
	for _, bad := range []string{"", "/", "/A", "a/", "a//B", "//"} {
		if err := CheckClassName(bad); err == nil {
			t.Errorf("CheckClassName(%q) accepted it", bad)
		}
		if _, _, err := ParseMethodDescriptor("(IL" + bad + ";)V"); err == nil {
			t.Errorf("ParseMethodDescriptor accepted %q", bad)
		}
		if err := checkDescriptorNames("(L" + bad + ";)V"); err == nil {
			t.Errorf("checkDescriptorNames accepted %q", bad)
		}
	}
}

func TestBuilderInterning(t *testing.T) {
	b := NewBuilder("A", "java/lang/Object", AccPublic)
	if b.Utf8("x") != b.Utf8("x") {
		t.Error("Utf8 not interned")
	}
	if b.Class("C") != b.Class("C") {
		t.Error("Class not interned")
	}
	if b.Int(7) != b.Int(7) {
		t.Error("Int not interned")
	}
	if b.Methodref("C", "m", "()V") != b.Methodref("C", "m", "()V") {
		t.Error("Methodref not interned")
	}
	if b.Long(7) == b.Long(8) {
		t.Error("distinct longs collided")
	}
	// Wide constants consume two slots.
	before := len(b.CF.Pool)
	b.Double(9.75)
	if len(b.CF.Pool) != before+2 {
		t.Errorf("Double added %d slots, want 2", len(b.CF.Pool)-before)
	}
}

func TestWriterResolvesAttrNamesByContent(t *testing.T) {
	b := NewBuilder("A", "java/lang/Object", AccPublic)
	b.Utf8("SourceFile")
	src := b.Utf8("A.java")
	// Attribute with NameIndex 0 forces content lookup.
	b.CF.Attrs = append(b.CF.Attrs, &SourceFileAttr{Index: src})
	cf, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	data, err := Write(cf)
	if err != nil {
		t.Fatal(err)
	}
	cf2, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(cf2.Attrs) != 1 || cf2.Attrs[0].AttrName() != "SourceFile" {
		t.Fatalf("attrs = %v", cf2.Attrs)
	}
}

func TestWriterMissingAttrName(t *testing.T) {
	b := NewBuilder("A", "java/lang/Object", AccPublic)
	b.CF.Attrs = append(b.CF.Attrs, &SourceFileAttr{Index: b.Utf8("A.java")})
	cf, _ := b.Build()
	if _, err := Write(cf); err == nil {
		t.Fatal("Write succeeded without a Utf8 for the attribute name")
	}
}

func TestParseNeverPanicsOnCorruptInput(t *testing.T) {
	good, err := Write(buildSample(t))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	try := func(data []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Parse panicked: %v", r)
			}
		}()
		if cf, err := Parse(data); err == nil {
			// A mutated file that still parses must also survive Verify
			// and Write without panicking.
			_ = Verify(cf)
			_, _ = Write(cf)
		}
	}
	for trial := 0; trial < 4000; trial++ {
		mut := append([]byte(nil), good...)
		mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		try(mut)
	}
	for cut := 0; cut < len(good); cut++ {
		try(good[:cut])
	}
}
