package classpack

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"classpack/internal/bytecode"
	"classpack/internal/classfile"
	"classpack/internal/jazz"
	"classpack/internal/strip"
)

// codeClass builds class p/V whose static method m()V runs emit's code
// under the given exception handlers; emit may add constants through b.
func codeClass(t *testing.T, emit func(b *classfile.Builder, a *bytecode.Assembler), handlers ...classfile.ExceptionHandler) []byte {
	t.Helper()
	b := classfile.NewBuilder("p/V", "java/lang/Object", classfile.AccPublic|classfile.AccSuper)
	m := b.AddMethod(classfile.AccPublic|classfile.AccStatic, "m", "()V")
	a := bytecode.NewAssembler()
	emit(b, a)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	b.AttachCode(m, &classfile.CodeAttr{MaxStack: 2, MaxLocals: 1, Code: code, Handlers: handlers})
	cf, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	data, err := classfile.Write(cf)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestVerifyRefusesWhatPackRefuses holds every verify mode to the rules
// Pack applies to code: each opcode's operand kinds, on every
// instruction, reachable or not, and JVMS §4.7.3's handler boundaries.
// Pack refuses each bad class, and so must Verify, VerifyDeep, VerifyAll
// with deep set, and VerifyBytecode; the valid class passes them all.
func TestVerifyRefusesWhatPackRefuses(t *testing.T) {
	ret := func(a *bytecode.Assembler, pops ...bytecode.Op) {
		for _, op := range pops {
			a.Op(op)
		}
		a.Op(bytecode.Return)
	}
	// nop, bipush 5, pop, return, athrow at pcs 0, 1, 3, 4, 5.
	guarded := func(_ *classfile.Builder, a *bytecode.Assembler) {
		a.Op(bytecode.Nop)
		a.SByte(5)
		ret(a, bytecode.Pop)
		a.Op(bytecode.Athrow)
	}
	cases := []struct {
		name     string
		emit     func(b *classfile.Builder, a *bytecode.Assembler)
		handlers []classfile.ExceptionHandler
		bad      bool
	}{
		{"valid", guarded, []classfile.ExceptionHandler{{StartPC: 1, EndPC: 4, HandlerPC: 5}}, false},
		{"getstatic on a Methodref", func(b *classfile.Builder, a *bytecode.Assembler) {
			a.CP(bytecode.Getstatic, b.Methodref("p/V", "m", "()V"))
			ret(a, bytecode.Pop)
		}, nil, true},
		{"invokespecial on a Fieldref", func(b *classfile.Builder, a *bytecode.Assembler) {
			a.Op(bytecode.AconstNull)
			a.CP(bytecode.Invokespecial, b.Fieldref("p/V", "f", "I"))
			ret(a)
		}, nil, true},
		{"invokestatic on a Fieldref", func(b *classfile.Builder, a *bytecode.Assembler) {
			a.CP(bytecode.Invokestatic, b.Fieldref("p/V", "f", "I"))
			ret(a)
		}, nil, true},
		{"new on a String", func(b *classfile.Builder, a *bytecode.Assembler) {
			a.CP(bytecode.New, b.String("s"))
			ret(a, bytecode.Pop)
		}, nil, true},
		{"ldc on a Class", func(b *classfile.Builder, a *bytecode.Assembler) {
			a.Ldc(b.Class("p/V"))
			ret(a, bytecode.Pop)
		}, nil, true},
		{"ldc on a Long", func(b *classfile.Builder, a *bytecode.Assembler) {
			a.Ldc(b.Long(7))
			ret(a, bytecode.Pop2)
		}, nil, true},
		{"unreachable getstatic past the pool", func(_ *classfile.Builder, a *bytecode.Assembler) {
			ret(a)
			a.CP(bytecode.Getstatic, 0xfff0)
		}, nil, true},
		{"handler start_pc inside bipush", guarded, []classfile.ExceptionHandler{{StartPC: 2, EndPC: 4, HandlerPC: 5}}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, check := range packAndVerify(codeClass(t, c.emit, c.handlers...)) {
				if (check.err != nil) != c.bad {
					t.Errorf("%s refused the class: %v (err %v)", check.name, !c.bad, check.err)
				}
			}
		})
	}
}

// modeErr is the error one entry point gives for a class.
type modeErr struct {
	name string
	err  error
}

// packAndVerify returns the error of Pack and of every verify mode for
// one class file; a method that VerifyBytecode judges bad counts as its
// error.
func packAndVerify(data []byte) []modeErr {
	_, packErr := Pack([][]byte{data}, nil)
	verdicts, bytecodeErr := VerifyBytecode(data)
	for _, v := range verdicts {
		if !v.OK && bytecodeErr == nil {
			bytecodeErr = errors.New(v.Err)
		}
	}
	return []modeErr{
		{"Pack", packErr},
		{"Verify", Verify(data)},
		{"VerifyDeep", VerifyDeep(data)},
		{"VerifyAll deep", VerifyAll([][]byte{data}, true, 1)[0]},
		{"VerifyBytecode", bytecodeErr},
	}
}

// descendingLookupswitch returns a class whose method runs a
// lookupswitch with the keys 5 and 0, in that order: JVMS §6.5 wants
// them ascending, and Pack refuses them.
func descendingLookupswitch(t *testing.T) []byte {
	t.Helper()
	// The assembler refuses descending keys, so swap them afterwards.
	cf, err := classfile.Parse(codeClass(t, func(_ *classfile.Builder, a *bytecode.Assembler) {
		l := a.NewLabel()
		a.Op(bytecode.Iconst0)
		a.LookupSwitch([]int32{0, 5}, []bytecode.Label{l, l}, l)
		a.Bind(l)
		a.Op(bytecode.Return)
	}))
	if err != nil {
		t.Fatal(err)
	}
	code := classfile.CodeOf(&cf.Methods[0])
	insns, err := bytecode.Decode(code.Code)
	if err != nil {
		t.Fatal(err)
	}
	insns[1].Keys[0], insns[1].Keys[1] = 5, 0
	if code.Code, err = bytecode.Encode(insns); err != nil {
		t.Fatal(err)
	}
	data, err := classfile.Write(cf)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// mismatchedConstantValue returns a class whose int field carries a
// String ConstantValue.
func mismatchedConstantValue(t *testing.T) []byte {
	t.Helper()
	return codeClass(t, func(b *classfile.Builder, a *bytecode.Assembler) {
		f := b.AddField(classfile.AccStatic|classfile.AccFinal, "f", "I")
		b.AttachConstantValue(f, b.String("s"))
		a.Op(bytecode.Return)
	})
}

// TestVerifyRefusesWhatPackRefusesBeyondOperands holds every verify mode
// to two more rules Pack applies: a lookupswitch's keys ascend, and a
// ConstantValue's kind matches its field's type. Strip keeps both
// classes, as the JVM's own checks are not its to make.
func TestVerifyRefusesWhatPackRefusesBeyondOperands(t *testing.T) {
	cases := map[string][]byte{
		"lookupswitch keys not ascending":                       descendingLookupswitch(t),
		"ConstantValue kind String does not match field type I": mismatchedConstantValue(t),
	}
	for want, data := range cases {
		t.Run(want, func(t *testing.T) {
			for _, check := range packAndVerify(data) {
				if check.err == nil || !strings.Contains(check.err.Error(), want) {
					t.Errorf("%s = %v, want an error saying %q", check.name, check.err, want)
				}
			}
			if _, err := Strip(data); err != nil {
				t.Errorf("Strip: %v", err)
			}
		})
	}
}

// entryPoints returns the error of every entry point that packs,
// strips or verifies one class file: packAndVerify's, VerifyAll's
// without deep, PackJar's, PackStream's and Strip's.
func entryPoints(t *testing.T, data []byte) []modeErr {
	t.Helper()
	jar, err := JarFromFiles([]File{{Name: "p/M.class", Data: data}})
	if err != nil {
		t.Fatal(err)
	}
	_, _, jarErr := PackJar(jar, nil)
	sent := false
	streamErr := PackStream(io.Discard, func() ([]byte, error) {
		if sent {
			return nil, io.EOF
		}
		sent = true
		return data, nil
	}, nil)
	_, stripErr := Strip(data)
	return append(packAndVerify(data),
		modeErr{"VerifyAll", VerifyAll([][]byte{data}, false, 1)[0]},
		modeErr{"PackJar", jarErr}, modeErr{"PackStream", streamErr}, modeErr{"Strip", stripErr})
}

// modernClass returns a class of major version 52 that holds one
// attribute named name with a body of two zero bytes: on the class, or
// with inCode in its method's Code attribute.
func modernClass(t *testing.T, name string, inCode bool) []byte {
	t.Helper()
	b := classfile.NewBuilder("p/M", "java/lang/Object", classfile.AccPublic|classfile.AccSuper)
	b.CF.MajorVersion, b.CF.MinorVersion = 52, 0
	attr := &classfile.UnknownAttr{Name: name, Data: []byte{0, 0}}
	attr.NameIndex = b.Utf8(name)
	code := &classfile.CodeAttr{MaxStack: 1, Code: []byte{byte(bytecode.Return)}}
	if inCode {
		code.Attrs = append(code.Attrs, attr)
	} else {
		b.CF.Attrs = append(b.CF.Attrs, attr)
	}
	b.AttachCode(b.AddMethod(classfile.AccPublic|classfile.AccStatic, "m", "()V"), code)
	data, err := classfile.Write(b.CF)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRefusesAttributesTheJVMReads packs and verifies a major-52 class
// with a Signature, and one with a StackMapTable in its Code. Stripping
// either attribute would unpack a class that the JVM reads differently,
// or, from version 51 on, rejects. So Strip, Pack, PackStream, PackJar
// and every verify mode refuse both with ErrUnsupportedAttribute,
// naming the attribute, its owner and the version. Debug data and
// attributes outside JVMS are still stripped.
func TestRefusesAttributesTheJVMReads(t *testing.T) {
	for _, c := range []struct {
		attr   string
		inCode bool
		want   string
	}{
		{"Signature", false, "Signature in class p/M, class version 52.0"},
		{"StackMapTable", true, "StackMapTable in Code of method m()V, class version 52.0"},
	} {
		t.Run(c.attr, func(t *testing.T) {
			for _, check := range entryPoints(t, modernClass(t, c.attr, c.inCode)) {
				if !errors.Is(check.err, ErrUnsupportedAttribute) || !strings.Contains(check.err.Error(), c.want) {
					t.Errorf("%s = %v, want ErrUnsupportedAttribute naming %q", check.name, check.err, c.want)
				}
			}
		})
	}
	for _, name := range []string{"LocalVariableTypeTable", "SourceDebugExtension", "X-Vendor"} {
		t.Run(name, func(t *testing.T) {
			for _, check := range entryPoints(t, modernClass(t, name, name == "LocalVariableTypeTable")) {
				if check.err != nil {
					t.Errorf("%s: %v", check.name, check.err)
				}
			}
		})
	}
}

// placedClass returns class p/A, whose field f is an int and whose
// static method m()V returns, with copies of attr in the attribute
// table of owner: "class", "field", "method" or "Code". A Code attribute
// placed on the method takes the place of m's own.
func placedClass(t *testing.T, attr, owner string, copies int) []byte {
	t.Helper()
	b := classfile.NewBuilder("p/A", "java/lang/Object", classfile.AccPublic|classfile.AccSuper)
	f := b.AddField(classfile.AccStatic|classfile.AccFinal, "f", "I")
	m := b.AddMethod(classfile.AccPublic|classfile.AccStatic, "m", "()V")
	code := func() *classfile.CodeAttr {
		return &classfile.CodeAttr{MaxStack: 1, MaxLocals: 1, Code: []byte{byte(bytecode.Return)}}
	}
	newAttr := map[string]func() classfile.Attribute{
		"Code": func() classfile.Attribute { return code() },
		"ConstantValue": func() classfile.Attribute {
			return &classfile.ConstantValueAttr{Index: b.Int(7)}
		},
		"Exceptions": func() classfile.Attribute {
			return &classfile.ExceptionsAttr{Classes: []uint16{b.Class("java/io/IOException")}}
		},
		"InnerClasses": func() classfile.Attribute {
			return &classfile.InnerClassesAttr{Entries: []classfile.InnerClass{{
				Inner: b.Class("p/A$B"), Outer: b.CF.ThisClass, InnerName: b.Utf8("B"), AccessFlags: classfile.AccPublic}}}
		},
		"Synthetic":  func() classfile.Attribute { return &classfile.SyntheticAttr{} },
		"Deprecated": func() classfile.Attribute { return &classfile.DeprecatedAttr{} },
	}[attr]
	b.Utf8(attr)
	if attr != "Code" || owner != "method" {
		b.AttachCode(m, code())
	}
	table := &m.Attrs
	switch owner {
	case "class":
		table = &b.CF.Attrs
	case "field":
		table = &f.Attrs
	case "Code":
		table = &classfile.CodeOf(m).Attrs
	}
	for range copies {
		*table = append(*table, newAttr())
	}
	data, err := classfile.Write(b.CF)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// jazzRoundTrip canonicalizes one class file with strip.Apply, packs it
// with Jazz and returns the class file that Jazz's Unpack gives back.
// refused is strip's or Jazz Pack's error; err is a failure after
// Jazz's Pack accepted the class.
func jazzRoundTrip(data []byte) (out []byte, refused, err error) {
	cf, err := classfile.Parse(data)
	if err != nil {
		return nil, err, nil
	}
	if err := strip.Apply(cf, strip.Options{}); err != nil {
		return nil, err, nil
	}
	packed, err := jazz.Pack([]*classfile.ClassFile{cf})
	if err != nil {
		return nil, err, nil
	}
	cfs, err := jazz.Unpack(packed)
	if err != nil {
		return nil, nil, err
	}
	if len(cfs) != 1 {
		return nil, nil, fmt.Errorf("jazz unpacked %d classes", len(cfs))
	}
	out, err = classfile.Write(cfs[0])
	return out, nil, err
}

// TestAttributePlacement puts one or two copies of each attribute that
// the packed formats carry in each attribute table: the class's, a
// field's, a method's and a Code attribute's. Each attribute sits once
// in the tables that carry it (Code and Exceptions in a method,
// ConstantValue in a field, InnerClasses in the class, Synthetic and
// Deprecated in any of the three), and every entry point accepts it
// there: Pack's and Jazz's round trips give back Strip's bytes. Every
// other cell would not unpack as it was, so every entry point refuses
// it with ErrUnsupportedAttribute, naming the attribute and its owner;
// Jazz's Pack runs after strip.Apply, which refuses it first.
func TestAttributePlacement(t *testing.T) {
	carried := []struct {
		attr string
		in   []string
	}{
		{"Code", []string{"method"}},
		{"ConstantValue", []string{"field"}},
		{"Exceptions", []string{"method"}},
		{"InnerClasses", []string{"class"}},
		{"Synthetic", []string{"class", "field", "method"}},
		{"Deprecated", []string{"class", "field", "method"}},
	}
	owners := []struct{ table, named string }{
		{"class", "class p/A"}, {"field", "field f"}, {"method", "method m()V"}, {"Code", "Code of method m()V"},
	}
	for _, c := range carried {
		for _, o := range owners {
			for copies := 1; copies <= 2; copies++ {
				t.Run(fmt.Sprintf("%d %s in %s", copies, c.attr, o.table), func(t *testing.T) {
					data := placedClass(t, c.attr, o.table, copies)
					jazzData, refused, err := jazzRoundTrip(data)
					checks := append(entryPoints(t, data), modeErr{"Jazz", cmp.Or(refused, err)})
					carries := slices.Contains(c.in, o.table)
					if carries && copies == 1 {
						for _, check := range checks {
							if check.err != nil {
								t.Errorf("%s: %v", check.name, check.err)
							}
						}
						checkRoundTrip(t, data, jazzData)
						return
					}
					want := c.attr + " in " + o.named
					if carries {
						want = c.attr + " repeated in " + o.named
					}
					for _, check := range checks {
						if !errors.Is(check.err, ErrUnsupportedAttribute) || !strings.Contains(check.err.Error(), want) {
							t.Errorf("%s = %v, want ErrUnsupportedAttribute naming %q", check.name, check.err, want)
						}
					}
				})
			}
		}
	}
}

// checkRoundTrip fails t unless Unpack(Pack(data)) and jazzData, Jazz's
// round trip, are both Strip(data).
func checkRoundTrip(t *testing.T, data, jazzData []byte) {
	t.Helper()
	want, err := Strip(data)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := Pack([][]byte{data}, nil)
	if err != nil {
		t.Fatal(err)
	}
	files, err := Unpack(packed)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || !bytes.Equal(files[0].Data, want) {
		t.Error("Unpack(Pack(x)) differs from Strip(x)")
	}
	if !bytes.Equal(jazzData, want) {
		t.Error("Jazz's round trip differs from Strip(x)")
	}
}

// TestEmptyClassNameSegments puts a class name with an empty segment
// (JVMS §4.2.1: a leading, trailing or doubled '/') in each place a class
// holds class names: its own name, its superclass and interfaces, the
// element class of an array type, a member reference's owner, and the
// descriptors of a field, a method and a member reference. The packed
// formats factor a name at its last '/', so "/pA" would unpack as "pA";
// every entry point refuses each class, naming the segment rule, and
// accepts the same classes with the name "p/A".
func TestEmptyClassNameSegments(t *testing.T) {
	places := []struct {
		place string
		build func(name string) []byte
	}{
		{"this class", func(name string) []byte { return namedClass(t, name, "java/lang/Object", nil) }},
		{"superclass", func(name string) []byte { return namedClass(t, "p/V", name, nil) }},
		{"interface", func(name string) []byte {
			return namedClass(t, "p/V", "java/lang/Object", func(b *classfile.Builder, _ *bytecode.Assembler) { b.AddInterface(name) })
		}},
		{"array element class", func(name string) []byte {
			return namedClass(t, "p/V", "java/lang/Object", func(b *classfile.Builder, a *bytecode.Assembler) {
				a.Op(bytecode.AconstNull)
				a.CP(bytecode.Checkcast, b.Class("[[L"+name+";"))
				a.Op(bytecode.Pop)
			})
		}},
		{"member reference owner", func(name string) []byte {
			return namedClass(t, "p/V", "java/lang/Object", func(b *classfile.Builder, a *bytecode.Assembler) {
				a.CP(bytecode.Invokestatic, b.Methodref(name, "g", "()V"))
			})
		}},
		{"field descriptor", func(name string) []byte {
			return namedClass(t, "p/V", "java/lang/Object", func(b *classfile.Builder, _ *bytecode.Assembler) {
				b.AddField(classfile.AccStatic, "f", "[L"+name+";")
			})
		}},
		{"method descriptor", func(name string) []byte {
			return namedClass(t, "p/V", "java/lang/Object", func(b *classfile.Builder, _ *bytecode.Assembler) {
				b.AddMethod(classfile.AccPublic|classfile.AccAbstract, "h", "(IL"+name+";)V")
			})
		}},
		{"member reference descriptor", func(name string) []byte {
			return namedClass(t, "p/V", "java/lang/Object", func(b *classfile.Builder, a *bytecode.Assembler) {
				a.CP(bytecode.Getstatic, b.Fieldref("p/V", "f", "L"+name+";"))
				a.Op(bytecode.Pop)
			})
		}},
	}
	for _, p := range places {
		t.Run(p.place, func(t *testing.T) {
			for _, check := range entryPoints(t, p.build("p/A")) {
				if check.err != nil {
					t.Errorf("%s refused p/A: %v", check.name, check.err)
				}
			}
			for _, name := range []string{"/pA", "pA/", "p//A"} {
				for _, check := range entryPoints(t, p.build(name)) {
					if check.err == nil || !strings.Contains(check.err.Error(), "empty segment") {
						t.Errorf("%s accepted %q as %s: err = %v", check.name, name, p.place, check.err)
					}
				}
			}
		})
	}
}

// namedClass builds class name, extending super, whose static method
// m()V runs emit's code, then returns; emit may add members and
// constants through b.
func namedClass(t *testing.T, name, super string, emit func(b *classfile.Builder, a *bytecode.Assembler)) []byte {
	t.Helper()
	b := classfile.NewBuilder(name, super, classfile.AccPublic|classfile.AccSuper)
	a := bytecode.NewAssembler()
	if emit != nil {
		emit(b, a)
	}
	a.Op(bytecode.Return)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	m := b.AddMethod(classfile.AccPublic|classfile.AccStatic, "m", "()V")
	b.AttachCode(m, &classfile.CodeAttr{MaxStack: 2, MaxLocals: 1, Code: code})
	cf, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	data, err := classfile.Write(cf)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
