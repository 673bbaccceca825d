package bytecode

import "fmt"

// Label identifies a branch target within an Assembler.
type Label int

// Assembler builds a code array with symbolic labels. Code generators
// (the MiniJava compiler, the corpus synthesizer) emit instructions and
// bind labels; Assemble lays out offsets, pads switches, and resolves
// branches.
type Assembler struct {
	insns   []asmInsn
	labels  []int // label -> instruction index, -1 if unbound
	offsets []int // filled by Assemble; offsets[i] is instruction i's offset
	err     error
}

type asmInsn struct {
	in      Instruction
	target  Label   // branch target, -1 if none
	targets []Label // switch targets
	defLbl  Label
	bound   []Label // labels bound to this instruction
}

// NewAssembler returns an empty assembler.
func NewAssembler() *Assembler { return &Assembler{} }

func (a *Assembler) setErr(format string, args ...any) {
	if a.err == nil {
		a.err = fmt.Errorf("bytecode: "+format, args...)
	}
}

// NewLabel allocates an unbound label.
func (a *Assembler) NewLabel() Label {
	a.labels = append(a.labels, -1)
	return Label(len(a.labels) - 1)
}

// Bind binds l to the next emitted instruction.
func (a *Assembler) Bind(l Label) {
	if a.labels[l] != -1 {
		a.setErr("label %d bound twice", l)
		return
	}
	a.labels[l] = len(a.insns)
}

func (a *Assembler) push(in Instruction, target Label, defLbl Label, targets []Label) {
	a.insns = append(a.insns, asmInsn{in: in, target: target, defLbl: defLbl, targets: targets})
}

// Op emits an operand-less instruction.
func (a *Assembler) Op(op Op) {
	if FormatOf(op) != FmtNone {
		a.setErr("%s requires operands", op)
		return
	}
	a.push(Instruction{Op: op}, -1, -1, nil)
}

// Local emits a local-variable instruction (iload..astore, ret), using the
// compact _0.._3 forms where they exist and the wide prefix when needed.
func (a *Assembler) Local(op Op, slot int) {
	if FormatOf(op) != FmtLocal {
		a.setErr("%s is not a local-variable instruction", op)
		return
	}
	if slot < 0 || slot > 0xffff {
		a.setErr("local slot %d out of range", slot)
		return
	}
	if slot <= 3 && op != Ret {
		var base Op
		switch op {
		case Iload:
			base = Iload0
		case Lload:
			base = Lload0
		case Fload:
			base = Fload0
		case Dload:
			base = Dload0
		case Aload:
			base = Aload0
		case Istore:
			base = Istore0
		case Lstore:
			base = Lstore0
		case Fstore:
			base = Fstore0
		case Dstore:
			base = Dstore0
		case Astore:
			base = Astore0
		}
		a.push(Instruction{Op: base + Op(slot)}, -1, -1, nil)
		return
	}
	a.push(Instruction{Op: op, A: slot, Wide: slot > 0xff}, -1, -1, nil)
}

// Iinc emits iinc, widening when the slot or delta requires it.
func (a *Assembler) Iinc(slot, delta int) {
	if slot < 0 || slot > 0xffff || delta < -32768 || delta > 32767 {
		a.setErr("iinc %d %d out of range", slot, delta)
		return
	}
	wide := slot > 0xff || delta < -128 || delta > 127
	a.push(Instruction{Op: Iinc, A: slot, B: delta, Wide: wide}, -1, -1, nil)
}

// SByte emits bipush.
func (a *Assembler) SByte(v int) { a.push(Instruction{Op: Bipush, A: v}, -1, -1, nil) }

// SShort emits sipush.
func (a *Assembler) SShort(v int) { a.push(Instruction{Op: Sipush, A: v}, -1, -1, nil) }

// NewArray emits newarray with a primitive array-type code.
func (a *Assembler) NewArray(atype int) { a.push(Instruction{Op: Newarray, A: atype}, -1, -1, nil) }

// CP emits a two-byte constant-pool instruction (getfield, invokevirtual,
// new, checkcast, ...).
func (a *Assembler) CP(op Op, index uint16) {
	switch FormatOf(op) {
	case FmtCP2:
		a.push(Instruction{Op: op, A: int(index)}, -1, -1, nil)
	default:
		a.setErr("%s is not a two-byte constant-pool instruction", op)
	}
}

// Ldc emits ldc or ldc_w depending on the index width.
func (a *Assembler) Ldc(index uint16) {
	if index <= 0xff {
		a.push(Instruction{Op: Ldc, A: int(index)}, -1, -1, nil)
	} else {
		a.push(Instruction{Op: LdcW, A: int(index)}, -1, -1, nil)
	}
}

// Ldc2 emits ldc2_w for long/double constants.
func (a *Assembler) Ldc2(index uint16) {
	a.push(Instruction{Op: Ldc2W, A: int(index)}, -1, -1, nil)
}

// InvokeInterface emits invokeinterface with its arg-slot count.
func (a *Assembler) InvokeInterface(index uint16, count int) {
	a.push(Instruction{Op: Invokeinterface, A: int(index), B: count}, -1, -1, nil)
}

// MultiANewArray emits multianewarray.
func (a *Assembler) MultiANewArray(index uint16, dims int) {
	a.push(Instruction{Op: Multianewarray, A: int(index), B: dims}, -1, -1, nil)
}

// Branch emits a conditional or unconditional branch to l.
func (a *Assembler) Branch(op Op, l Label) {
	if !IsBranch(op) {
		a.setErr("%s is not a branch", op)
		return
	}
	a.push(Instruction{Op: op}, l, -1, nil)
}

// TableSwitch emits a tableswitch covering keys low..low+len(targets)-1.
func (a *Assembler) TableSwitch(low int32, targets []Label, def Label) {
	in := Instruction{Op: Tableswitch, Low: low, High: low + int32(len(targets)) - 1}
	in.Targets = make([]int, len(targets))
	a.push(in, -1, def, append([]Label(nil), targets...))
}

// LookupSwitch emits a lookupswitch; keys must be sorted ascending.
func (a *Assembler) LookupSwitch(keys []int32, targets []Label, def Label) {
	if len(keys) != len(targets) {
		a.setErr("lookupswitch with %d keys and %d targets", len(keys), len(targets))
		return
	}
	if err := CheckSwitchKeys(keys); err != nil {
		a.setErr("%v", err)
		return
	}
	in := Instruction{Op: Lookupswitch, Keys: append([]int32(nil), keys...)}
	in.Targets = make([]int, len(targets))
	a.push(in, -1, def, append([]Label(nil), targets...))
}

// OffsetOf returns the byte offset a label resolved to; valid only after a
// successful Assemble. Code generators use it to build exception tables.
func (a *Assembler) OffsetOf(l Label) int { return a.offsets[a.labels[l]] }

// ApproxSize estimates the encoded size of the code emitted so far
// (switch padding is approximated); generators use it to hit size targets.
func (a *Assembler) ApproxSize() int {
	size := 0
	for i := range a.insns {
		size += a.insns[i].in.Size()
	}
	return size
}

// Assemble lays out the code and resolves labels, returning the code array.
func (a *Assembler) Assemble() ([]byte, error) {
	if a.err != nil {
		return nil, a.err
	}
	for l, idx := range a.labels {
		if idx == -1 {
			return nil, fmt.Errorf("bytecode: label %d never bound", l)
		}
		if idx > len(a.insns) {
			return nil, fmt.Errorf("bytecode: label %d bound past end", l)
		}
	}
	// Iterate layout until offsets stabilize: switch padding depends on the
	// offsets, and each pass only shrinks or grows pads within [0,3].
	offsets := make([]int, len(a.insns)+1)
	for pass := 0; ; pass++ {
		changed := false
		pos := 0
		for i := range a.insns {
			if offsets[i] != pos {
				offsets[i] = pos
				changed = true
			}
			a.insns[i].in.Offset = pos
			pos += a.insns[i].in.Size()
		}
		if offsets[len(a.insns)] != pos {
			offsets[len(a.insns)] = pos
			changed = true
		}
		if !changed {
			break
		}
		if pass > len(a.insns)+4 {
			return nil, fmt.Errorf("bytecode: layout did not converge")
		}
	}
	a.offsets = offsets
	labelOff := func(l Label) int {
		idx := a.labels[l]
		return offsets[idx]
	}
	out := make([]Instruction, len(a.insns))
	for i := range a.insns {
		ai := &a.insns[i]
		in := ai.in
		if ai.target >= 0 {
			in.A = labelOff(ai.target)
			if rel := in.A - in.Offset; in.Op != GotoW && in.Op != JsrW && (rel < -32768 || rel > 32767) {
				return nil, fmt.Errorf("bytecode: branch at %d to %d exceeds s2 range", in.Offset, in.A)
			}
		}
		if ai.defLbl >= 0 {
			in.Default = labelOff(ai.defLbl)
			for j, t := range ai.targets {
				in.Targets[j] = labelOff(t)
			}
		}
		out[i] = in
	}
	return Encode(out)
}
