package strip

import (
	"strings"
	"testing"

	"classpack/internal/bytecode"
	"classpack/internal/classfile"
)

// buildVictim makes a classfile with debug attributes, garbage constants,
// duplicate constants, and ldc-referenced scalars.
func buildVictim(t *testing.T) *classfile.ClassFile {
	t.Helper()
	b := classfile.NewBuilder("p/Victim", "java/lang/Object", classfile.AccPublic)
	b.AttachSourceFile("Victim.java")

	// Garbage: never referenced from anything.
	b.CF.Pool = append(b.CF.Pool,
		classfile.Constant{Kind: classfile.KindUtf8, Utf8: "zz_unused"},
		classfile.Constant{Kind: classfile.KindInteger, Int: 987654},
	)
	// Duplicate Utf8 entries with identical content.
	b.CF.Pool = append(b.CF.Pool,
		classfile.Constant{Kind: classfile.KindUtf8, Utf8: "dupName"},
		classfile.Constant{Kind: classfile.KindUtf8, Utf8: "dupName"},
	)
	dupA := uint16(len(b.CF.Pool) - 2)
	dupB := uint16(len(b.CF.Pool) - 1)

	cInt := b.Int(7)
	cStr := b.String("ldc me")
	cLong := b.Long(1 << 33)
	fRef := b.Fieldref("p/Victim", "x", "I")

	m := b.AddMethod(classfile.AccPublic, "go", "()I")
	a := bytecode.NewAssembler()
	a.Ldc(cInt)
	a.Ldc(cStr)
	a.Op(bytecode.Pop)
	a.Ldc2(cLong)
	a.Op(bytecode.Pop2)
	a.Local(bytecode.Aload, 0)
	a.CP(bytecode.Getfield, fRef)
	a.Op(bytecode.Iadd)
	a.Op(bytecode.Ireturn)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	attr := &classfile.CodeAttr{MaxStack: 3, MaxLocals: 1, Code: code}
	attr.Attrs = append(attr.Attrs, &classfile.LineNumberTableAttr{
		Entries: []classfile.LineNumber{{StartPC: 0, Line: 1}},
	})
	lnIdx := b.Utf8("LineNumberTable")
	attr.Attrs[0].(*classfile.LineNumberTableAttr).NameIndex = lnIdx
	b.AttachCode(m, attr)

	// Two fields whose names are the duplicate Utf8 entries.
	b.CF.Fields = append(b.CF.Fields,
		classfile.Member{AccessFlags: classfile.AccPublic, Name: dupA, Desc: b.Utf8("I")},
		classfile.Member{AccessFlags: classfile.AccPublic, Name: dupB, Desc: b.Utf8("I")},
	)
	b.AddField(classfile.AccPublic, "x", "I")

	b.CF.Attrs = append(b.CF.Attrs, &classfile.UnknownAttr{Name: "Mystery", Data: []byte{1}})
	// Give the unknown attribute a name entry so Verify passes pre-strip.
	b.CF.Attrs[len(b.CF.Attrs)-1].(*classfile.UnknownAttr).NameIndex = b.Utf8("Mystery")

	cf, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := classfile.Verify(cf); err != nil {
		t.Fatal(err)
	}
	return cf
}

func poolStats(cf *classfile.ClassFile) (utf8, ints, total int) {
	for i := 1; i < len(cf.Pool); i++ {
		switch cf.Pool[i].Kind {
		case classfile.KindUtf8:
			utf8++
		case classfile.KindInteger:
			ints++
		}
		if cf.Pool[i].Kind != classfile.KindInvalid {
			total++
		}
	}
	return
}

func TestApplyShrinksAndStaysValid(t *testing.T) {
	cf := buildVictim(t)
	_, _, before := poolStats(cf)
	if err := Apply(cf, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := classfile.Verify(cf); err != nil {
		t.Fatalf("stripped file invalid: %v", err)
	}
	_, _, after := poolStats(cf)
	if after >= before {
		t.Fatalf("pool did not shrink: %d -> %d", before, after)
	}
	// Garbage is gone.
	for i := 1; i < len(cf.Pool); i++ {
		if cf.Pool[i].Kind == classfile.KindUtf8 && cf.Pool[i].Utf8 == "zz_unused" {
			t.Error("unused Utf8 survived")
		}
		if cf.Pool[i].Kind == classfile.KindInteger && cf.Pool[i].Int == 987654 {
			t.Error("unused Integer survived")
		}
	}
	// Debug and unknown attributes are gone; Code survived.
	for _, a := range cf.Attrs {
		switch a.(type) {
		case *classfile.SourceFileAttr, *classfile.UnknownAttr:
			t.Errorf("attribute %s survived", a.AttrName())
		}
	}
	if classfile.CodeOf(&cf.Methods[0]) == nil {
		t.Fatal("Code attribute lost")
	}
	for _, a := range classfile.CodeOf(&cf.Methods[0]).Attrs {
		if _, ok := a.(*classfile.LineNumberTableAttr); ok {
			t.Error("LineNumberTable survived inside Code")
		}
	}
	// Writable and reparsable.
	data, err := classfile.Write(cf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := classfile.Parse(data); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicatesMerge(t *testing.T) {
	cf := buildVictim(t)
	if err := Apply(cf, Options{}); err != nil {
		t.Fatal(err)
	}
	count := 0
	for i := 1; i < len(cf.Pool); i++ {
		if cf.Pool[i].Kind == classfile.KindUtf8 && cf.Pool[i].Utf8 == "dupName" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("dupName appears %d times after strip, want 1", count)
	}
	// Both fields still name "dupName".
	if cf.Utf8At(cf.Fields[0].Name) != "dupName" || cf.Utf8At(cf.Fields[1].Name) != "dupName" {
		t.Fatal("field names corrupted by merge")
	}
}

func TestLdcConstantsGetLowIndices(t *testing.T) {
	cf := buildVictim(t)
	if err := Apply(cf, Options{}); err != nil {
		t.Fatal(err)
	}
	code := classfile.CodeOf(&cf.Methods[0])
	insns, err := bytecode.Decode(code.Code)
	if err != nil {
		t.Fatal(err)
	}
	sawLdc := 0
	for i := range insns {
		in := &insns[i]
		switch in.Op {
		case bytecode.Ldc:
			sawLdc++
			if in.A > 0xff {
				t.Fatalf("ldc operand %d exceeds one byte", in.A)
			}
			k := cf.Pool[in.A].Kind
			if k != classfile.KindInteger && k != classfile.KindString {
				t.Fatalf("ldc points at %v", k)
			}
		case bytecode.Getfield:
			if cf.Pool[in.A].Kind != classfile.KindFieldref {
				t.Fatalf("getfield points at %v", cf.Pool[in.A].Kind)
			}
		case bytecode.Ldc2W:
			if cf.Pool[in.A].Kind != classfile.KindLong {
				t.Fatalf("ldc2_w points at %v", cf.Pool[in.A].Kind)
			}
			if cf.Pool[in.A].Long != 1<<33 {
				t.Fatalf("long value corrupted: %d", cf.Pool[in.A].Long)
			}
		}
	}
	if sawLdc != 2 {
		t.Fatalf("saw %d ldc instructions, want 2", sawLdc)
	}
	// Values must have followed the renumbering.
	var sawInt, sawStr bool
	for i := 1; i < len(cf.Pool); i++ {
		switch cf.Pool[i].Kind {
		case classfile.KindInteger:
			sawInt = cf.Pool[i].Int == 7
		case classfile.KindString:
			sawStr = cf.Utf8At(cf.Pool[i].Str) == "ldc me"
		}
	}
	if !sawInt || !sawStr {
		t.Fatal("ldc constant values lost")
	}
}

func TestPoolSortedByType(t *testing.T) {
	cf := buildVictim(t)
	if err := Apply(cf, Options{}); err != nil {
		t.Fatal(err)
	}
	// Utf8 entries must come last and be sorted by content.
	lastNonUtf8 := 0
	firstUtf8 := len(cf.Pool)
	var prev string
	for i := 1; i < len(cf.Pool); i++ {
		c := &cf.Pool[i]
		if c.Kind == classfile.KindInvalid {
			continue
		}
		if c.Kind == classfile.KindUtf8 {
			if i < firstUtf8 {
				firstUtf8 = i
			}
			if prev != "" && c.Utf8 < prev {
				t.Fatalf("Utf8 not sorted: %q after %q", c.Utf8, prev)
			}
			prev = c.Utf8
		} else {
			lastNonUtf8 = i
		}
	}
	if lastNonUtf8 > firstUtf8 {
		t.Fatalf("non-Utf8 entry at %d after first Utf8 at %d", lastNonUtf8, firstUtf8)
	}
}

func TestKeepDebug(t *testing.T) {
	cf := buildVictim(t)
	if err := Apply(cf, Options{KeepDebug: true}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range cf.Attrs {
		if _, ok := a.(*classfile.SourceFileAttr); ok {
			found = true
		}
	}
	if !found {
		t.Fatal("SourceFile dropped despite KeepDebug")
	}
	if err := classfile.Verify(cf); err != nil {
		t.Fatal(err)
	}
}

func TestApplyIdempotent(t *testing.T) {
	cf := buildVictim(t)
	if err := Apply(cf, Options{}); err != nil {
		t.Fatal(err)
	}
	once, err := classfile.Write(cf)
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(cf, Options{}); err != nil {
		t.Fatal(err)
	}
	twice, err := classfile.Write(cf)
	if err != nil {
		t.Fatal(err)
	}
	if string(once) != string(twice) {
		t.Fatal("Apply is not idempotent")
	}
}

func TestApplyRejectsBadBytecode(t *testing.T) {
	cf := buildVictim(t)
	code := classfile.CodeOf(&cf.Methods[0])
	code.Code = []byte{0xfe} // undefined opcode
	if err := Apply(cf, Options{}); err == nil {
		t.Fatal("Apply accepted undecodable bytecode")
	}
}

func TestKeepDebugRenumbersDebugAttrs(t *testing.T) {
	// With KeepDebug, LNT/LVT survive and their Utf8 references must be
	// renumbered consistently.
	b := classfile.NewBuilder("p/D", "java/lang/Object", classfile.AccPublic)
	m := b.AddMethod(classfile.AccPublic, "f", "()V")
	attr := &classfile.CodeAttr{MaxStack: 0, MaxLocals: 1, Code: []byte{0xb1}}
	lnt := &classfile.LineNumberTableAttr{Entries: []classfile.LineNumber{{StartPC: 0, Line: 3}}}
	lnt.NameIndex = b.Utf8("LineNumberTable")
	lvt := &classfile.LocalVariableTableAttr{Entries: []classfile.LocalVariable{{
		StartPC: 0, Length: 1, Name: b.Utf8("this"), Desc: b.Utf8("Lp/D;"), Slot: 0,
	}}}
	lvt.NameIndex = b.Utf8("LocalVariableTable")
	attr.Attrs = append(attr.Attrs, lnt, lvt)
	b.AttachCode(m, attr)
	b.AttachSourceFile("D.java")
	cf, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(cf, Options{KeepDebug: true}); err != nil {
		t.Fatal(err)
	}
	if err := classfile.Verify(cf); err != nil {
		t.Fatal(err)
	}
	code := classfile.CodeOf(&cf.Methods[0])
	var gotLVT *classfile.LocalVariableTableAttr
	for _, a := range code.Attrs {
		if v, ok := a.(*classfile.LocalVariableTableAttr); ok {
			gotLVT = v
		}
	}
	if gotLVT == nil {
		t.Fatal("LVT dropped despite KeepDebug")
	}
	if cf.Utf8At(gotLVT.Entries[0].Name) != "this" || cf.Utf8At(gotLVT.Entries[0].Desc) != "Lp/D;" {
		t.Fatal("LVT references corrupted by renumbering")
	}
}

func TestEmptyExceptionsAttrDropped(t *testing.T) {
	b := classfile.NewBuilder("p/E", "java/lang/Object", classfile.AccPublic)
	m := b.AddMethod(classfile.AccPublic|classfile.AccAbstract, "f", "()V")
	b.AttachExceptions(m, nil)
	cf, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(cf, Options{}); err != nil {
		t.Fatal(err)
	}
	for _, a := range cf.Methods[0].Attrs {
		if _, ok := a.(*classfile.ExceptionsAttr); ok {
			t.Fatal("empty Exceptions attribute survived")
		}
	}
}

func TestAttrOrderCanonical(t *testing.T) {
	// Build a method with Exceptions before Code; strip must reorder so
	// the unpacker's fixed emission order matches byte-for-byte.
	b := classfile.NewBuilder("p/O", "java/lang/Object", classfile.AccPublic)
	m := b.AddMethod(classfile.AccPublic, "f", "()V")
	b.AttachExceptions(m, []string{"java/lang/Exception"})
	b.AttachCode(m, &classfile.CodeAttr{MaxStack: 0, MaxLocals: 1, Code: []byte{0xb1}})
	cf, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(cf, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := cf.Methods[0].Attrs[0].(*classfile.CodeAttr); !ok {
		t.Fatalf("first attribute is %T, want Code", cf.Methods[0].Attrs[0])
	}
	if _, ok := cf.Methods[0].Attrs[1].(*classfile.ExceptionsAttr); !ok {
		t.Fatalf("second attribute is %T, want Exceptions", cf.Methods[0].Attrs[1])
	}
}

// TestApplyRefusesBadIndices breaks one pool index of the victim at a
// time. Apply must refuse an index the class reaches that is zero, past
// the pool, or of a kind its field cannot hold, naming the field; a bad
// constant nothing reaches is collected as before.
func TestApplyRefusesBadIndices(t *testing.T) {
	setOperand := func(cf *classfile.ClassFile, op bytecode.Op, a int) {
		code := classfile.CodeOf(&cf.Methods[0])
		insns, err := bytecode.Decode(code.Code)
		if err != nil {
			t.Fatal(err)
		}
		for k := range insns {
			if insns[k].Op == op {
				insns[k].A = a
				if code.Code, err = bytecode.Encode(insns); err != nil {
					t.Fatal(err)
				}
				return
			}
		}
		t.Fatalf("victim has no %v", op)
	}
	cases := []struct {
		name   string
		mangle func(cf *classfile.ClassFile)
		want   string // a substring of the error; "" means Apply succeeds
	}{
		{"zero this_class", func(cf *classfile.ClassFile) { cf.ThisClass = 0 },
			"this_class: pool index 0 out of range"},
		{"super_class past the pool", func(cf *classfile.ClassFile) { cf.SuperClass = uint16(len(cf.Pool)) },
			"super_class: pool index"},
		{"String string_index 0", func(cf *classfile.ClassFile) { cf.Pool[firstOf(cf, classfile.KindString)].Str = 0 },
			"String string_index: pool index 0 out of range"},
		{"Fieldref class_index names a Utf8", func(cf *classfile.ClassFile) {
			cf.Pool[firstOf(cf, classfile.KindFieldref)].Class = firstOf(cf, classfile.KindUtf8)
		}, "class_index: pool index"},
		{"field descriptor names an Integer", func(cf *classfile.ClassFile) {
			cf.Fields[0].Desc = firstOf(cf, classfile.KindInteger)
		}, "field descriptor_index: pool index"},
		{"ldc operand past the pool", func(cf *classfile.ClassFile) { setOperand(cf, bytecode.Ldc, len(cf.Pool)) },
			"ldc: pool index"},
		{"getfield operand past the pool", func(cf *classfile.ClassFile) { setOperand(cf, bytecode.Getfield, len(cf.Pool)+7) },
			"getfield: pool index"},
		{"getfield operand names a Utf8", func(cf *classfile.ClassFile) {
			setOperand(cf, bytecode.Getfield, int(firstOf(cf, classfile.KindUtf8)))
		}, "getfield: pool index"},
		{"unreachable String with string_index 0", func(cf *classfile.ClassFile) {
			cf.Pool = append(cf.Pool, classfile.Constant{Kind: classfile.KindString})
		}, ""},
	}
	for _, c := range cases {
		cf := buildVictim(t)
		c.mangle(cf)
		err := Apply(cf, Options{})
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: Apply: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: Apply returned %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// firstOf returns the index of the victim's first constant of a kind.
func firstOf(cf *classfile.ClassFile, kind classfile.ConstKind) uint16 {
	for i := range cf.Pool {
		if cf.Pool[i].Kind == kind {
			return uint16(i)
		}
	}
	panic("no " + kind.String() + " constant")
}
