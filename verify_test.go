package classpack

import (
	"errors"
	"io"
	"strings"
	"testing"

	"classpack/internal/bytecode"
	"classpack/internal/classfile"
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
	entryPoints := func(data []byte) []modeErr {
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
	for _, c := range []struct {
		attr   string
		inCode bool
		want   string
	}{
		{"Signature", false, "Signature in class p/M, class version 52.0"},
		{"StackMapTable", true, "StackMapTable in Code of method m()V, class version 52.0"},
	} {
		t.Run(c.attr, func(t *testing.T) {
			for _, check := range entryPoints(modernClass(t, c.attr, c.inCode)) {
				if !errors.Is(check.err, ErrUnsupportedAttribute) || !strings.Contains(check.err.Error(), c.want) {
					t.Errorf("%s = %v, want ErrUnsupportedAttribute naming %q", check.name, check.err, c.want)
				}
			}
		})
	}
	for _, name := range []string{"LocalVariableTypeTable", "SourceDebugExtension", "X-Vendor"} {
		t.Run(name, func(t *testing.T) {
			for _, check := range entryPoints(modernClass(t, name, name == "LocalVariableTypeTable")) {
				if check.err != nil {
					t.Errorf("%s: %v", check.name, check.err)
				}
			}
		})
	}
}
