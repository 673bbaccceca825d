package classpack

import (
	"errors"
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
			data := codeClass(t, c.emit, c.handlers...)
			_, packErr := Pack([][]byte{data}, nil)
			verdicts, bytecodeErr := VerifyBytecode(data)
			for _, v := range verdicts {
				if !v.OK && bytecodeErr == nil {
					bytecodeErr = errors.New(v.Err)
				}
			}
			for _, check := range []struct {
				name string
				err  error
			}{
				{"Pack", packErr},
				{"Verify", Verify(data)},
				{"VerifyDeep", VerifyDeep(data)},
				{"VerifyAll deep", VerifyAll([][]byte{data}, true, 1)[0]},
				{"VerifyBytecode", bytecodeErr},
			} {
				if (check.err != nil) != c.bad {
					t.Errorf("%s refused the class: %v (err %v)", check.name, !c.bad, check.err)
				}
			}
		})
	}
}
