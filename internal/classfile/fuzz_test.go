package classfile_test

import (
	"bytes"
	"testing"

	"classpack/internal/classfile"
	"classpack/internal/synth"
	"classpack/internal/verifier"
)

// FuzzReadClassFile throws arbitrary bytes at the class-file parser.
// Parsing may fail with an error, never a panic; a class that parses
// must survive Verify and Write without panicking either. A class that
// passes Verify, as a user's class files do before `jpack verify -deep`
// runs the dataflow verifier on them, must survive that verifier too.
// What Write writes must parse and write back to the same bytes: the
// input itself need not, because Write spells each pool string in its
// one canonical modified UTF-8.
func FuzzReadClassFile(f *testing.F) {
	p, err := synth.ProfileByName("209_db")
	if err != nil {
		f.Fatal(err)
	}
	cfs, err := synth.GenerateStripped(p, 0.05)
	if err != nil {
		f.Fatal(err)
	}
	if len(cfs) > 4 {
		cfs = cfs[:4]
	}
	for _, cf := range cfs {
		data, err := classfile.Write(cf)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(seedAllAttrs(f))
	f.Add([]byte{0xCA, 0xFE, 0xBA, 0xBE})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cf, err := classfile.Parse(data)
		if err != nil {
			return
		}
		// Verify may reject a structurally parsed but inconsistent pool;
		// Write re-serializes whatever parsed. Neither may panic.
		if classfile.Verify(cf) == nil {
			_ = verifier.ClassVerdicts(cf)
		}
		out, err := classfile.Write(cf)
		if err != nil {
			return
		}
		again, err := classfile.Parse(out)
		if err != nil {
			t.Fatalf("Write's output does not parse: %v", err)
		}
		if out2, err := classfile.Write(again); err != nil || !bytes.Equal(out, out2) {
			t.Fatalf("Parse then Write of Write's output changed it (err %v)", err)
		}
	})
}

// seedAllAttrs returns a class that holds every attribute the package
// interprets, and one it does not, so that the fuzzer starts from each
// body's layout.
func seedAllAttrs(f *testing.F) []byte {
	b := classfile.NewBuilder("p/S", "java/lang/Object", classfile.AccPublic)
	b.AttachSourceFile("S.java")
	fl := b.AddField(classfile.AccStatic|classfile.AccFinal, "K", "I")
	b.AttachConstantValue(fl, b.Int(7))
	b.AttachMarks(&fl.Attrs, true, true)
	m := b.AddMethod(classfile.AccStatic, "m", "()V")
	lnt := &classfile.LineNumberTableAttr{Entries: []classfile.LineNumber{{StartPC: 0, Line: 3}}}
	lnt.NameIndex = b.Utf8("LineNumberTable")
	lvt := &classfile.LocalVariableTableAttr{Entries: []classfile.LocalVariable{{Length: 1, Name: b.Utf8("x"), Desc: b.Utf8("I")}}}
	lvt.NameIndex = b.Utf8("LocalVariableTable")
	b.AttachCode(m, &classfile.CodeAttr{MaxStack: 1, MaxLocals: 1, Code: []byte{0xb1},
		Handlers: []classfile.ExceptionHandler{{EndPC: 1, CatchType: b.Class("java/lang/Error")}},
		Attrs:    []classfile.Attribute{lnt, lvt}})
	b.AttachExceptions(m, []string{"java/io/IOException"})
	ic := &classfile.InnerClassesAttr{Entries: []classfile.InnerClass{{Inner: b.Class("p/S$I"), Outer: b.Class("p/S"), InnerName: b.Utf8("I")}}}
	ic.NameIndex = b.Utf8("InnerClasses")
	x := &classfile.UnknownAttr{Name: "X", Data: []byte{1, 2}}
	x.NameIndex = b.Utf8("X")
	b.CF.Attrs = append(b.CF.Attrs, ic, x)
	data, err := classfile.Write(b.CF)
	if err != nil {
		f.Fatal(err)
	}
	return data
}
