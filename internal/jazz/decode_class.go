package jazz

import (
	"fmt"

	"classpack/internal/bytecode"
	"classpack/internal/classfile"
	"classpack/internal/strip"
)

func (r *jzReader) class() (*classfile.ClassFile, error) {
	minor, err := r.bits(16)
	if err != nil {
		return nil, err
	}
	major, err := r.bits(16)
	if err != nil {
		return nil, err
	}
	access, err := r.bits(16)
	if err != nil {
		return nil, err
	}
	hasSuper, err := r.bit()
	if err != nil {
		return nil, err
	}
	hasInner, err := r.bit()
	if err != nil {
		return nil, err
	}
	synth, err := r.bit()
	if err != nil {
		return nil, err
	}
	depr, err := r.bit()
	if err != nil {
		return nil, err
	}
	this, err := r.classRef()
	if err != nil {
		return nil, err
	}
	b := classfile.NewEmptyBuilder(uint16(access))
	b.SetThisClass(this)
	b.CF.MinorVersion = uint16(minor)
	b.CF.MajorVersion = uint16(major)
	if hasSuper {
		super, err := r.classRef()
		if err != nil {
			return nil, err
		}
		b.SetSuperClass(super)
	}
	nIfaces, err := r.bits(16)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nIfaces; i++ {
		name, err := r.classRef()
		if err != nil {
			return nil, err
		}
		b.AddInterface(name)
	}
	if hasInner {
		n, err := r.bits(16)
		if err != nil {
			return nil, err
		}
		ic := &classfile.InnerClassesAttr{}
		ic.NameIndex = b.Utf8("InnerClasses")
		for i := uint64(0); i < n; i++ {
			acc, err := r.bits(16)
			if err != nil {
				return nil, err
			}
			inner, err := r.classRef()
			if err != nil {
				return nil, err
			}
			entry := classfile.InnerClass{AccessFlags: uint16(acc), Inner: b.Class(inner)}
			hasOuter, err := r.bit()
			if err != nil {
				return nil, err
			}
			if hasOuter {
				outer, err := r.classRef()
				if err != nil {
					return nil, err
				}
				entry.Outer = b.Class(outer)
			}
			hasName, err := r.bit()
			if err != nil {
				return nil, err
			}
			if hasName {
				name, err := r.utf8Ref()
				if err != nil {
					return nil, err
				}
				entry.InnerName = b.Utf8(name)
			}
			ic.Entries = append(ic.Entries, entry)
		}
		b.CF.Attrs = append(b.CF.Attrs, ic)
	}
	b.AttachMarks(&b.CF.Attrs, synth, depr)

	nFields, err := r.bits(16)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nFields; i++ {
		if err := r.field(b); err != nil {
			return nil, err
		}
	}
	nMethods, err := r.bits(16)
	if err != nil {
		return nil, err
	}
	decoded := make(map[*classfile.CodeAttr][]bytecode.Instruction)
	for i := uint64(0); i < nMethods; i++ {
		if err := r.method(b, decoded); err != nil {
			return nil, err
		}
	}
	cf, err := b.Build()
	if err != nil {
		return nil, err
	}
	if err := strip.Renumber(cf, decoded, nil); err != nil {
		return nil, err
	}
	return cf, nil
}

func (r *jzReader) field(b *classfile.Builder) error {
	access, err := r.bits(16)
	if err != nil {
		return err
	}
	name, err := r.utf8Ref()
	if err != nil {
		return err
	}
	desc, err := r.utf8Ref()
	if err != nil {
		return err
	}
	hasConst, err := r.bit()
	if err != nil {
		return err
	}
	synth, err := r.bit()
	if err != nil {
		return err
	}
	depr, err := r.bit()
	if err != nil {
		return err
	}
	m := b.AddField(uint16(access), name, desc)
	if hasConst {
		t, err := classfile.ParseFieldDescriptor(desc)
		if err != nil {
			return err
		}
		var idx uint16
		switch classfile.ConstKindForType(t) {
		case classfile.KindInteger:
			sub, err := r.ref(aCVInt)
			if err != nil {
				return err
			}
			idx = b.Int(r.g.ints[sub])
		case classfile.KindFloat:
			sub, err := r.ref(aCVFloat)
			if err != nil {
				return err
			}
			idx = b.Float(r.g.floats[sub])
		case classfile.KindLong:
			sub, err := r.ref(aCVLong)
			if err != nil {
				return err
			}
			idx = b.Long(r.g.longs[sub])
		case classfile.KindDouble:
			sub, err := r.ref(aCVDouble)
			if err != nil {
				return err
			}
			idx = b.Double(r.g.doubles[sub])
		default:
			sub, err := r.ref(aCVString)
			if err != nil {
				return err
			}
			idx = b.String(r.g.utf8[r.g.strings[sub]])
		}
		b.AttachConstantValue(m, idx)
	}
	b.AttachMarks(&m.Attrs, synth, depr)
	return nil
}

func (r *jzReader) method(b *classfile.Builder, decoded map[*classfile.CodeAttr][]bytecode.Instruction) error {
	access, err := r.bits(16)
	if err != nil {
		return err
	}
	name, err := r.utf8Ref()
	if err != nil {
		return err
	}
	desc, err := r.utf8Ref()
	if err != nil {
		return err
	}
	hasCode, err := r.bit()
	if err != nil {
		return err
	}
	hasExc, err := r.bit()
	if err != nil {
		return err
	}
	synth, err := r.bit()
	if err != nil {
		return err
	}
	depr, err := r.bit()
	if err != nil {
		return err
	}
	m := b.AddMethod(uint16(access), name, desc)
	if hasExc {
		n, err := r.bits(16)
		if err != nil {
			return err
		}
		names := make([]string, n)
		for i := range names {
			if names[i], err = r.classRef(); err != nil {
				return err
			}
		}
		b.AttachExceptions(m, names)
	}
	if hasCode {
		attr, insns, err := r.code(b)
		if err != nil {
			return fmt.Errorf("method %s: %w", name, err)
		}
		b.AttachCode(m, attr)
		decoded[attr] = insns
	}
	b.AttachMarks(&m.Attrs, synth, depr)
	return nil
}

func (r *jzReader) code(b *classfile.Builder) (*classfile.CodeAttr, []bytecode.Instruction, error) {
	maxStack, err := r.bits(16)
	if err != nil {
		return nil, nil, err
	}
	maxLocals, err := r.bits(16)
	if err != nil {
		return nil, nil, err
	}
	attr := &classfile.CodeAttr{MaxStack: uint16(maxStack), MaxLocals: uint16(maxLocals)}
	nHandlers, err := r.bits(16)
	if err != nil {
		return nil, nil, err
	}
	for i := uint64(0); i < nHandlers; i++ {
		var h classfile.ExceptionHandler
		start, err := r.bits(16)
		if err != nil {
			return nil, nil, err
		}
		end, err := r.bits(16)
		if err != nil {
			return nil, nil, err
		}
		hp, err := r.bits(16)
		if err != nil {
			return nil, nil, err
		}
		h.StartPC, h.EndPC, h.HandlerPC = uint16(start), uint16(end), uint16(hp)
		hasCatch, err := r.bit()
		if err != nil {
			return nil, nil, err
		}
		if hasCatch {
			name, err := r.classRef()
			if err != nil {
				return nil, nil, err
			}
			h.CatchType = b.Class(name)
		}
		attr.Handlers = append(attr.Handlers, h)
	}
	codeLen, err := r.bits(32)
	if err != nil {
		return nil, nil, err
	}
	if codeLen > 1<<26 {
		return nil, nil, fmt.Errorf("jazz: implausible code length %d", codeLen)
	}
	var insns []bytecode.Instruction
	pos := 0
	for pos < int(codeLen) {
		in, err := r.insn(b, pos)
		if err != nil {
			return nil, nil, fmt.Errorf("at offset %d: %w", pos, err)
		}
		insns = append(insns, in)
		pos += in.Size()
	}
	if pos != int(codeLen) {
		return nil, nil, fmt.Errorf("jazz: code ends at %d, want %d", pos, codeLen)
	}
	return attr, insns, nil
}

func (r *jzReader) insn(b *classfile.Builder, pos int) (bytecode.Instruction, error) {
	in := bytecode.Instruction{Offset: pos}
	opb, err := r.bits(8)
	if err != nil {
		return in, err
	}
	if bytecode.Op(opb) == bytecode.Wide {
		in.Wide = true
		if opb, err = r.bits(8); err != nil {
			return in, err
		}
	}
	in.Op = bytecode.Op(opb)
	switch bytecode.FormatOf(in.Op) {
	case bytecode.FmtNone:
	case bytecode.FmtLocal:
		w := uint(8)
		if in.Wide {
			w = 16
		}
		v, err := r.bits(w)
		if err != nil {
			return in, err
		}
		in.A = int(v)
	case bytecode.FmtIinc:
		w := uint(8)
		if in.Wide {
			w = 16
		}
		v, err := r.bits(w)
		if err != nil {
			return in, err
		}
		in.A = int(v)
		d, err := r.bits(w)
		if err != nil {
			return in, err
		}
		if in.Wide {
			in.B = int(int16(d))
		} else {
			in.B = int(int8(d))
		}
	case bytecode.FmtSByte:
		v, err := r.bits(8)
		if err != nil {
			return in, err
		}
		in.A = int(int8(v))
	case bytecode.FmtSShort:
		v, err := r.bits(16)
		if err != nil {
			return in, err
		}
		in.A = int(int16(v))
	case bytecode.FmtNewArray:
		v, err := r.bits(8)
		if err != nil {
			return in, err
		}
		in.A = int(v)
	case bytecode.FmtCP1, bytecode.FmtCP2:
		if err := r.cpOperand(b, &in); err != nil {
			return in, err
		}
	case bytecode.FmtInvokeInterface:
		sub, err := r.ref(aIMeth)
		if err != nil {
			return in, err
		}
		owner, name, desc, err := r.g.memberContent(aIMeth, sub)
		if err != nil {
			return in, err
		}
		in.A = int(b.InterfaceMethodref(owner, name, desc))
		count, err := r.bits(8)
		if err != nil {
			return in, err
		}
		in.B = int(count)
	case bytecode.FmtMultiANewArray:
		name, err := r.classRef()
		if err != nil {
			return in, err
		}
		in.A = int(b.Class(name))
		dims, err := r.bits(8)
		if err != nil {
			return in, err
		}
		in.B = int(dims)
	case bytecode.FmtBranch2:
		v, err := r.bits(16)
		if err != nil {
			return in, err
		}
		in.A = pos + int(int16(v))
	case bytecode.FmtBranch4:
		v, err := r.bits(32)
		if err != nil {
			return in, err
		}
		in.A = pos + int(int32(v))
	case bytecode.FmtTableSwitch:
		def, err := r.bits(32)
		if err != nil {
			return in, err
		}
		low, err := r.bits(32)
		if err != nil {
			return in, err
		}
		n, err := r.bits(32)
		if err != nil {
			return in, err
		}
		if n > 1<<20 {
			return in, fmt.Errorf("jazz: tableswitch %d targets", n)
		}
		in.Default = pos + int(int32(def))
		in.Low = int32(low)
		in.High = in.Low + int32(n) - 1
		in.Targets = make([]int, n)
		for i := range in.Targets {
			t, err := r.bits(32)
			if err != nil {
				return in, err
			}
			in.Targets[i] = pos + int(int32(t))
		}
	case bytecode.FmtLookupSwitch:
		def, err := r.bits(32)
		if err != nil {
			return in, err
		}
		n, err := r.bits(32)
		if err != nil {
			return in, err
		}
		if n > 1<<20 {
			return in, fmt.Errorf("jazz: lookupswitch %d pairs", n)
		}
		in.Default = pos + int(int32(def))
		in.Keys = make([]int32, n)
		in.Targets = make([]int, n)
		for i := range in.Keys {
			k, err := r.bits(32)
			if err != nil {
				return in, err
			}
			t, err := r.bits(32)
			if err != nil {
				return in, err
			}
			in.Keys[i] = int32(k)
			in.Targets[i] = pos + int(int32(t))
		}
	default:
		return in, fmt.Errorf("jazz: cannot decode opcode 0x%02x", opb)
	}
	return in, nil
}

func (r *jzReader) cpOperand(b *classfile.Builder, in *bytecode.Instruction) error {
	g := r.g
	switch in.Op {
	case bytecode.Ldc, bytecode.LdcW:
		sub, err := r.ref(aLdc)
		if err != nil {
			return err
		}
		switch {
		case sub < len(g.ints):
			in.A = int(b.Int(g.ints[sub]))
		case sub < len(g.ints)+len(g.floats):
			in.A = int(b.Float(g.floats[sub-len(g.ints)]))
		case sub < len(g.ints)+len(g.floats)+len(g.strings):
			in.A = int(b.String(g.utf8[g.strings[sub-len(g.ints)-len(g.floats)]]))
		default:
			return fmt.Errorf("jazz: ldc union %d out of range", sub)
		}
	case bytecode.Ldc2W:
		sub, err := r.ref(aLdc2)
		if err != nil {
			return err
		}
		switch {
		case sub < len(g.longs):
			in.A = int(b.Long(g.longs[sub]))
		case sub < len(g.longs)+len(g.doubles):
			in.A = int(b.Double(g.doubles[sub-len(g.longs)]))
		default:
			return fmt.Errorf("jazz: ldc2 union %d out of range", sub)
		}
	case bytecode.Getfield, bytecode.Putfield, bytecode.Getstatic, bytecode.Putstatic:
		sub, err := r.ref(aField)
		if err != nil {
			return err
		}
		owner, name, desc, err := g.memberContent(aField, sub)
		if err != nil {
			return err
		}
		in.A = int(b.Fieldref(owner, name, desc))
	case bytecode.Invokevirtual, bytecode.Invokespecial, bytecode.Invokestatic:
		sub, err := r.ref(aMethod)
		if err != nil {
			return err
		}
		owner, name, desc, err := g.memberContent(aMethod, sub)
		if err != nil {
			return err
		}
		in.A = int(b.Methodref(owner, name, desc))
	case bytecode.New, bytecode.Anewarray, bytecode.Checkcast, bytecode.Instanceof:
		name, err := r.classRef()
		if err != nil {
			return err
		}
		in.A = int(b.Class(name))
	default:
		return fmt.Errorf("jazz: unexpected cp instruction %s", in.Op)
	}
	return nil
}
