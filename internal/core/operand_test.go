package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"classpack/internal/bytecode"
	"classpack/internal/classfile"
	"classpack/internal/corrupt"
	"classpack/internal/encoding/varint"
	"classpack/internal/streams"
)

// packMethod packs a one-class archive whose only method is emit's code,
// with the given exception handlers.
func packMethod(t *testing.T, emit func(a *bytecode.Assembler), handlers ...classfile.ExceptionHandler) []byte {
	t.Helper()
	packed, err := Pack(methodClass(t, emit, handlers...), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return packed
}

// methodClass builds and strips a class p/C whose only method, m, is
// emit's code with the given exception handlers.
func methodClass(t *testing.T, emit func(a *bytecode.Assembler), handlers ...classfile.ExceptionHandler) []*classfile.ClassFile {
	t.Helper()
	b := classfile.NewBuilder("p/C", "java/lang/Object", classfile.AccPublic|classfile.AccSuper)
	m := b.AddMethod(classfile.AccPublic|classfile.AccStatic, "m", "(I)V")
	a := bytecode.NewAssembler()
	emit(a)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	b.AttachCode(m, &classfile.CodeAttr{MaxStack: 2, MaxLocals: 8, Code: code, Handlers: handlers})
	cf, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfs := []*classfile.ClassFile{cf}
	strippedBytes(t, cfs)
	return cfs
}

// rewriteStream re-serializes a version-1 or version-2 archive with the
// raw bytes of one stream passed through edit. Every checksum is
// recomputed, so only the decoder's own operand checks can notice the
// change.
func rewriteStream(t *testing.T, packed []byte, name string, edit func([]byte) []byte) []byte {
	t.Helper()
	body, checked := packed[6:], packed[4] != Version1
	secs, err := streams.Sections(body, checked)
	if err != nil {
		t.Fatal(err)
	}
	newReader, finish := streams.NewReaderLimit, (*streams.Writer).Finish
	if checked {
		newReader, finish = streams.NewCheckedReaderLimit, (*streams.Writer).FinishChecked
	}
	r, err := newReader(body, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := streams.NewWriter(true, 1)
	found := false
	for _, s := range secs {
		st := r.Stream(s.Name)
		raw, err := st.Raw(st.Remaining())
		if err != nil {
			t.Fatal(err)
		}
		if s.Name == name {
			raw, found = edit(raw), true
		}
		_, _ = w.Stream(s.Name).Write(raw)
	}
	if !found {
		t.Fatalf("archive has no %s stream", name)
	}
	out, err := finish(w)
	if err != nil {
		t.Fatal(err)
	}
	return append(packed[:6:6], out...)
}

// setVarint returns an edit replacing the i-th varint of a stream with
// v, zigzag-encoded when signed. Earlier varints are skipped by length,
// which is the same for zigzag and plain values.
func setVarint(t *testing.T, i int, v int64, signed bool) func([]byte) []byte {
	return func(raw []byte) []byte {
		off := 0
		for k := 0; ; k++ {
			_, n, err := varint.Uint(raw[off:])
			if err != nil {
				t.Fatalf("stream has no varint %d: %v", i, err)
			}
			if k < i {
				off += n
				continue
			}
			out := append([]byte(nil), raw[:off]...)
			if signed {
				out = varint.AppendInt(out, v)
			} else {
				out = varint.AppendUint(out, uint64(v))
			}
			return append(out, raw[off+n:]...)
		}
	}
}

// TestOutOfRangeOperandsAreCorrupt crafts archives whose CRCs are valid
// but whose immediates, branch and switch operands, version numbers,
// max_stack/max_locals or handler pcs do not fit the class-file fields
// they decode into. Each must unpack to a CorruptError naming the
// stream, never to a silently truncated value.
func TestOutOfRangeOperandsAreCorrupt(t *testing.T) {
	bipush := func(a *bytecode.Assembler) { a.SByte(5); a.Op(bytecode.Pop); a.Op(bytecode.Return) }
	sipush := func(a *bytecode.Assembler) { a.SShort(1000); a.Op(bytecode.Pop); a.Op(bytecode.Return) }
	iinc := func(a *bytecode.Assembler) { a.Iinc(1, 1000); a.Op(bytecode.Return) }
	loop := func(a *bytecode.Assembler) {
		l := a.NewLabel()
		a.Bind(l)
		a.Branch(bytecode.Goto, l)
	}
	table := func(a *bytecode.Assembler) {
		l := a.NewLabel()
		a.Local(bytecode.Iload, 0)
		a.TableSwitch(0, []bytecode.Label{l, l, l}, l)
		a.Bind(l)
		a.Op(bytecode.Return)
	}
	lookup := func(a *bytecode.Assembler) {
		l := a.NewLabel()
		a.Local(bytecode.Iload, 0)
		a.LookupSwitch([]int32{0, 5}, []bytecode.Label{l, l}, l)
		a.Bind(l)
		a.Op(bytecode.Return)
	}
	ret := func(a *bytecode.Assembler) { a.Op(bytecode.Return) }
	// pc 0 nop, pc 1 return, pc 2 athrow; rows that edit the handler
	// stream pack it with a handler covering [0,1) that starts at 2.
	guarded := func(a *bytecode.Assembler) { a.Op(bytecode.Nop); a.Op(bytecode.Return); a.Op(bytecode.Athrow) }
	handler := classfile.ExceptionHandler{StartPC: 0, EndPC: 1, HandlerPC: 2}
	// The same with a 2-byte bipush at pc 0, so pc 1 is inside an
	// instruction: nop, bipush, pop, return, athrow at pcs 0, 1, 3, 4, 5,
	// and the handler covers [0,3) and starts at 5.
	guardedWide := func(a *bytecode.Assembler) {
		a.Op(bytecode.Nop)
		a.SByte(5)
		a.Op(bytecode.Pop)
		a.Op(bytecode.Return)
		a.Op(bytecode.Athrow)
	}
	wideHandler := classfile.ExceptionHandler{StartPC: 0, EndPC: 3, HandlerPC: 5}
	cases := []struct {
		name   string
		emit   func(*bytecode.Assembler)
		stream streamID
		edit   func([]byte) []byte
	}{
		{"bipush 300", bipush, sIntImm, setVarint(t, 0, 300, true)},
		{"bipush -129", bipush, sIntImm, setVarint(t, 0, -129, true)},
		{"sipush 40000", sipush, sIntImm, setVarint(t, 0, 40000, true)},
		{"sipush -32769", sipush, sIntImm, setVarint(t, 0, -32769, true)},
		{"iinc delta 40000", iinc, sIntImm, setVarint(t, 0, 40000, true)},
		{"local slot 1<<17", iinc, sRegs, setVarint(t, 0, 1<<18, false)},
		{"goto offset 40000", loop, sBranch, setVarint(t, 0, 40000, true)},
		{"tableswitch default 1<<40", table, sSwitch, setVarint(t, 0, 1<<40, true)},
		{"tableswitch low 1<<33", table, sSwitch, setVarint(t, 1, 1<<33, true)},
		{"tableswitch high past int32", table, sSwitch, setVarint(t, 1, math.MaxInt32-1, true)},
		{"tableswitch without targets", table, sSwitch, setVarint(t, 2, 0, false)},
		{"lookupswitch first key 1<<31", lookup, sSwitch, setVarint(t, 2, 1<<31, true)},
		{"lookupswitch key wraps int32", lookup, sSwitch, setVarint(t, 2, math.MaxInt32-2, true)},
		{"lookupswitch repeated key", lookup, sSwitch, setVarint(t, 3, 0, false)},
		{"lookupswitch target 1<<32", lookup, sSwitch, setVarint(t, 4, 1<<32, true)},
		// int.meta opens with the class count, then minor and major.
		{"minor_version 1<<16", ret, sMeta, setVarint(t, 1, 1<<16, false)},
		{"major_version 1<<16", ret, sMeta, setVarint(t, 2, 1<<16, false)},
		{"max_stack 1<<16", ret, sMaxes, setVarint(t, 0, 1<<16, false)},
		{"max_locals 1<<16", ret, sMaxes, setVarint(t, 1, 1<<16, false)},
		{"handler start_pc 1<<16", guarded, sHandler, setVarint(t, 0, 1<<16, false)},
		{"handler end_pc 1<<16", guarded, sHandler, setVarint(t, 1, 1<<16, false)},
		{"handler handler_pc 1<<16", guarded, sHandler, setVarint(t, 2, 1<<16, false)},
		// JVMS §4.7.3: start_pc < end_pc <= code_length, with start_pc
		// and handler_pc on instruction boundaries and end_pc on one or
		// at code_length.
		{"handler start_pc past code", guarded, sHandler, setVarint(t, 0, 100, false)},
		{"handler end_pc equals start_pc", guarded, sHandler, setVarint(t, 1, 0, false)},
		{"handler end_pc past code", guarded, sHandler, setVarint(t, 1, 4, false)},
		{"handler handler_pc past code", guarded, sHandler, setVarint(t, 2, 3, false)},
		{"handler start_pc inside bipush", guardedWide, sHandler, setVarint(t, 0, 2, false)},
		{"handler end_pc inside bipush", guardedWide, sHandler, setVarint(t, 1, 2, false)},
		{"handler handler_pc inside bipush", guardedWide, sHandler, setVarint(t, 2, 2, false)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var handlers []classfile.ExceptionHandler
			switch {
			case c.stream != sHandler:
			case strings.Contains(c.name, "bipush"):
				handlers = append(handlers, wideHandler)
			default:
				handlers = append(handlers, handler)
			}
			packed := packMethod(t, c.emit, handlers...)
			same := rewriteStream(t, packed, c.stream.String(), func(raw []byte) []byte { return raw })
			if _, err := Unpack(same); err != nil {
				t.Fatalf("unedited rewrite does not unpack: %v", err)
			}
			_, err := Unpack(rewriteStream(t, packed, c.stream.String(), c.edit))
			ce, ok := corrupt.As(err)
			if !ok {
				t.Fatalf("Unpack = %v, want a CorruptError", err)
			}
			if ce.Stream != c.stream.String() {
				t.Fatalf("CorruptError names stream %q, want %q: %v", ce.Stream, c.stream, err)
			}
		})
	}
}

// TestOutOfRangeConstantsAreCorrupt rewrites the int of a field's
// ConstantValue (int.cv) and of an ldc (int.ldc) in a version-1
// archive, which has no checksums, to 7+2³², which no int32 holds. Each
// must unpack to a CorruptError on its stream, never to the constant 7.
func TestOutOfRangeConstantsAreCorrupt(t *testing.T) {
	class := func(fill func(b *classfile.Builder)) []*classfile.ClassFile {
		b := classfile.NewBuilder("p/K", "java/lang/Object", classfile.AccPublic|classfile.AccSuper)
		fill(b)
		cf, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		cfs := []*classfile.ClassFile{cf}
		strippedBytes(t, cfs)
		return cfs
	}
	fieldClass := class(func(b *classfile.Builder) {
		b.AttachConstantValue(b.AddField(classfile.AccStatic|classfile.AccFinal, "K", "I"), b.Int(100000))
	})
	ldcClass := class(func(b *classfile.Builder) {
		a := bytecode.NewAssembler()
		a.Ldc(b.Int(100000))
		a.Op(bytecode.Pop)
		a.Op(bytecode.Return)
		code, err := a.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		b.AttachCode(b.AddMethod(classfile.AccStatic, "m", "()V"), &classfile.CodeAttr{MaxStack: 1, Code: code})
	})
	for _, c := range []struct {
		stream streamID
		cfs    []*classfile.ClassFile
	}{{sIntCV, fieldClass}, {sIntLdc, ldcClass}} {
		t.Run(c.stream.String(), func(t *testing.T) {
			packed, err := PackVersion(c.cfs, DefaultOptions(), Version1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Unpack(rewriteStream(t, packed, c.stream.String(), func(raw []byte) []byte { return raw })); err != nil {
				t.Fatalf("unedited rewrite does not unpack: %v", err)
			}
			_, err = Unpack(rewriteStream(t, packed, c.stream.String(), setVarint(t, 0, 7+1<<32, true)))
			if ce, ok := corrupt.As(err); !ok || ce.Stream != c.stream.String() {
				t.Fatalf("Unpack = %v, want a CorruptError on %s", err, c.stream)
			}
		})
	}
}

// TestPackRefusesHandlersOutsideTheirCode is the encoder's side of the
// handler rule: Pack fails, naming the class, the method and the pc,
// rather than pack a handler that Unpack would report as corrupt.
func TestPackRefusesHandlersOutsideTheirCode(t *testing.T) {
	// nop, bipush 5, pop, return, athrow at pcs 0, 1, 3, 4, 5.
	emit := func(a *bytecode.Assembler) {
		a.Op(bytecode.Nop)
		a.SByte(5)
		a.Op(bytecode.Pop)
		a.Op(bytecode.Return)
		a.Op(bytecode.Athrow)
	}
	cases := []struct {
		start, end, handler uint16
		want                string
	}{
		{100, 101, 5, "range [100, 101)"},
		{3, 3, 5, "range [3, 3)"},
		{0, 7, 5, "range [0, 7)"},
		{2, 4, 5, "start_pc 2"},
		{0, 2, 5, "end_pc 2"},
		{0, 3, 6, "handler_pc 6"},
		{0, 3, 2, "handler_pc 2"},
	}
	for _, c := range cases {
		h := classfile.ExceptionHandler{StartPC: c.start, EndPC: c.end, HandlerPC: c.handler}
		_, err := Pack(methodClass(t, emit, h), DefaultOptions())
		if err == nil {
			t.Fatalf("Pack accepted handler %+v", h)
		}
		for _, want := range []string{"p/C", "method m(I)V", c.want} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("handler %+v: error %q does not name %q", h, err, want)
			}
		}
	}
	// A handler may end at code_length.
	h := classfile.ExceptionHandler{StartPC: 1, EndPC: 6, HandlerPC: 0}
	if _, err := Pack(methodClass(t, emit, h), DefaultOptions()); err != nil {
		t.Fatalf("Pack refused handler %+v: %v", h, err)
	}
}

// TestPackRefusesMismatchedMemberKind checks that Pack refuses a member
// operand whose constant kind is not the one its instruction takes. The
// decoder rebuilds a Fieldref for field uses, an InterfaceMethodref for
// invokeinterface and a Methodref for the other invokes, so such a class
// would fail to unpack or come back with the constant's kind changed.
func TestPackRefusesMismatchedMemberKind(t *testing.T) {
	for _, c := range []struct {
		op         bytecode.Op
		kind, want classfile.ConstKind
	}{
		{bytecode.Getfield, classfile.KindMethodref, classfile.KindFieldref},
		{bytecode.Invokestatic, classfile.KindFieldref, classfile.KindMethodref},
		{bytecode.Invokevirtual, classfile.KindInterfaceMethodref, classfile.KindMethodref},
		{bytecode.Invokestatic, classfile.KindInterfaceMethodref, classfile.KindMethodref},
		{bytecode.Invokeinterface, classfile.KindMethodref, classfile.KindInterfaceMethodref},
	} {
		t.Run(fmt.Sprintf("%s on %v", c.op, c.kind), func(t *testing.T) {
			b := classfile.NewBuilder("p/C", "java/lang/Object", classfile.AccPublic|classfile.AccSuper)
			m := b.AddMethod(classfile.AccPublic|classfile.AccStatic, "m", "()V")
			var ref uint16
			switch c.kind {
			case classfile.KindFieldref:
				ref = b.Fieldref("p/C", "x", "I")
			case classfile.KindMethodref:
				ref = b.Methodref("p/C", "f", "()V")
			default:
				ref = b.InterfaceMethodref("p/I", "f", "()V")
			}
			a := bytecode.NewAssembler()
			if c.op == bytecode.Invokeinterface {
				a.InvokeInterface(ref, 1)
			} else {
				a.CP(c.op, ref)
			}
			a.Op(bytecode.Return)
			code, err := a.Assemble()
			if err != nil {
				t.Fatal(err)
			}
			b.AttachCode(m, &classfile.CodeAttr{MaxStack: 2, MaxLocals: 1, Code: code})
			cf, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			cfs := []*classfile.ClassFile{cf}
			strippedBytes(t, cfs)
			_, err = Pack(cfs, DefaultOptions())
			if err == nil {
				t.Fatalf("Pack accepted %s on %v", c.op, c.kind)
			}
			if want := fmt.Sprintf("%s operand is %v, want %v", c.op, c.kind, c.want); !strings.Contains(err.Error(), want) {
				t.Fatalf("Pack error %q does not say %q", err, want)
			}
		})
	}
}
