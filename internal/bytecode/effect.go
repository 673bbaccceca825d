package bytecode

// Flow is how control leaves an instruction.
type Flow uint8

// Control-flow classes.
const (
	FlowNext   Flow = iota // to the next instruction
	FlowBranch             // to A or to the next instruction
	FlowGoto               // to A
	FlowSwitch             // to Default or one of Targets
	FlowReturn             // out of the method
	FlowThrow              // to a handler or out of the method
	FlowJsr                // into a subroutine (jsr, jsr_w) or back (ret)
)

// Effect is what an opcode does to the operand stack, the locals and
// the flow of control (JVMS §6.5). It is the one statement of the
// stack effects of the 1.2 instruction set: the dataflow verifier and
// the §7.1 stack simulation both read it, each with its own slot types.
type Effect struct {
	// Pop and Push are the values the instruction takes off the operand
	// stack and leaves on it, as descriptor letters listed bottom first,
	// with L for any reference: iastore pops "LII"; lshl pops "JI" and
	// pushes "J". A '*' stands for what the operand decides: the field's
	// type, the call's arguments (popped, above any receiver) and return
	// type (pushed), the loaded constant, or one int per multianewarray
	// dimension.
	Pop, Push string
	Flow      Flow
	// Local is the type letter of the local variable that a load or
	// iinc reads or a store writes, and 0 for every other opcode.
	Local byte
	// Shuffle is set for the nine typeless stack shuffles, pop to swap,
	// which have no Pop or Push.
	Shuffle *Shuffle
}

// Shuffle is a typeless stack shuffle. The instruction takes the top
// Take slots off the stack, the window, and pushes back the window's
// slots listed by Order, bottom first (0 is the deepest). The top Cut
// slots of the window are the value or values it duplicates or swaps.
// In valid code the window does not start inside a category-2 value,
// and the cut does not split one.
type Shuffle struct {
	Take, Cut int
	Order     []int
}

// ShuffleSlots applies sh to the top of stack, in place, and reports
// false, leaving stack as it was, when the stack holds fewer than
// sh.Take slots.
func ShuffleSlots[T any](stack []T, sh *Shuffle) ([]T, bool) {
	n := len(stack) - sh.Take
	if n < 0 {
		return stack, false
	}
	var window [4]T
	copy(window[:], stack[n:])
	stack = stack[:n]
	for _, i := range sh.Order {
		stack = append(stack, window[i])
	}
	return stack, true
}

// Slots expands letters, an Effect's Pop or Push, into stack slots
// listed bottom first, taking each descriptor letter's slots from slots,
// and reports whether letters hold a '*', whose slots the operand
// decides.
func Slots[T any](letters string, slots func(letter byte) []T) (out []T, operand bool) {
	for _, c := range []byte(letters) {
		if c == '*' {
			operand = true
		} else {
			out = append(out, slots(c)...)
		}
	}
	return out, operand
}

// EffectOf returns the effect of o, and false for opcodes outside the
// 1.2 instruction set and for the wide prefix.
func EffectOf(o Op) (Effect, bool) {
	switch FormatOf(o) {
	case FmtInvalid, FmtWidePrefix:
		return Effect{}, false
	}
	return effects[o], true
}

// effects holds the stack-effect columns of opTable.
var effects = [NumOpcodes]Effect{
	Nop: {}, AconstNull: {Push: "L"},
	IconstM1: {Push: "I"}, Iconst0: {Push: "I"}, Iconst1: {Push: "I"}, Iconst2: {Push: "I"},
	Iconst3: {Push: "I"}, Iconst4: {Push: "I"}, Iconst5: {Push: "I"},
	Lconst0: {Push: "J"}, Lconst1: {Push: "J"},
	Fconst0: {Push: "F"}, Fconst1: {Push: "F"}, Fconst2: {Push: "F"},
	Dconst0: {Push: "D"}, Dconst1: {Push: "D"},
	Bipush: {Push: "I"}, Sipush: {Push: "I"},
	Ldc: {Push: "*"}, LdcW: {Push: "*"}, Ldc2W: {Push: "*"},

	Iload: {Push: "I", Local: 'I'}, Lload: {Push: "J", Local: 'J'}, Fload: {Push: "F", Local: 'F'},
	Dload: {Push: "D", Local: 'D'}, Aload: {Push: "L", Local: 'L'},
	Iload0: {Push: "I", Local: 'I'}, Iload1: {Push: "I", Local: 'I'},
	Iload2: {Push: "I", Local: 'I'}, Iload3: {Push: "I", Local: 'I'},
	Lload0: {Push: "J", Local: 'J'}, Lload1: {Push: "J", Local: 'J'},
	Lload2: {Push: "J", Local: 'J'}, Lload3: {Push: "J", Local: 'J'},
	Fload0: {Push: "F", Local: 'F'}, Fload1: {Push: "F", Local: 'F'},
	Fload2: {Push: "F", Local: 'F'}, Fload3: {Push: "F", Local: 'F'},
	Dload0: {Push: "D", Local: 'D'}, Dload1: {Push: "D", Local: 'D'},
	Dload2: {Push: "D", Local: 'D'}, Dload3: {Push: "D", Local: 'D'},
	Aload0: {Push: "L", Local: 'L'}, Aload1: {Push: "L", Local: 'L'},
	Aload2: {Push: "L", Local: 'L'}, Aload3: {Push: "L", Local: 'L'},
	Iaload: {Pop: "LI", Push: "I"}, Laload: {Pop: "LI", Push: "J"},
	Faload: {Pop: "LI", Push: "F"}, Daload: {Pop: "LI", Push: "D"},
	Aaload: {Pop: "LI", Push: "L"}, Baload: {Pop: "LI", Push: "I"},
	Caload: {Pop: "LI", Push: "I"}, Saload: {Pop: "LI", Push: "I"},

	Istore: {Pop: "I", Local: 'I'}, Lstore: {Pop: "J", Local: 'J'}, Fstore: {Pop: "F", Local: 'F'},
	Dstore: {Pop: "D", Local: 'D'}, Astore: {Pop: "L", Local: 'L'},
	Istore0: {Pop: "I", Local: 'I'}, Istore1: {Pop: "I", Local: 'I'},
	Istore2: {Pop: "I", Local: 'I'}, Istore3: {Pop: "I", Local: 'I'},
	Lstore0: {Pop: "J", Local: 'J'}, Lstore1: {Pop: "J", Local: 'J'},
	Lstore2: {Pop: "J", Local: 'J'}, Lstore3: {Pop: "J", Local: 'J'},
	Fstore0: {Pop: "F", Local: 'F'}, Fstore1: {Pop: "F", Local: 'F'},
	Fstore2: {Pop: "F", Local: 'F'}, Fstore3: {Pop: "F", Local: 'F'},
	Dstore0: {Pop: "D", Local: 'D'}, Dstore1: {Pop: "D", Local: 'D'},
	Dstore2: {Pop: "D", Local: 'D'}, Dstore3: {Pop: "D", Local: 'D'},
	Astore0: {Pop: "L", Local: 'L'}, Astore1: {Pop: "L", Local: 'L'},
	Astore2: {Pop: "L", Local: 'L'}, Astore3: {Pop: "L", Local: 'L'},
	Iastore: {Pop: "LII"}, Lastore: {Pop: "LIJ"}, Fastore: {Pop: "LIF"}, Dastore: {Pop: "LID"},
	Aastore: {Pop: "LIL"}, Bastore: {Pop: "LII"}, Castore: {Pop: "LII"}, Sastore: {Pop: "LII"},

	Pop:    {Shuffle: &Shuffle{1, 1, nil}},
	Pop2:   {Shuffle: &Shuffle{2, 2, nil}},
	Dup:    {Shuffle: &Shuffle{1, 1, []int{0, 0}}},
	DupX1:  {Shuffle: &Shuffle{2, 1, []int{1, 0, 1}}},
	DupX2:  {Shuffle: &Shuffle{3, 1, []int{2, 0, 1, 2}}},
	Dup2:   {Shuffle: &Shuffle{2, 2, []int{0, 1, 0, 1}}},
	Dup2X1: {Shuffle: &Shuffle{3, 2, []int{1, 2, 0, 1, 2}}},
	Dup2X2: {Shuffle: &Shuffle{4, 2, []int{2, 3, 0, 1, 2, 3}}},
	Swap:   {Shuffle: &Shuffle{2, 1, []int{1, 0}}},

	Iadd: {Pop: "II", Push: "I"}, Ladd: {Pop: "JJ", Push: "J"}, Fadd: {Pop: "FF", Push: "F"}, Dadd: {Pop: "DD", Push: "D"},
	Isub: {Pop: "II", Push: "I"}, Lsub: {Pop: "JJ", Push: "J"}, Fsub: {Pop: "FF", Push: "F"}, Dsub: {Pop: "DD", Push: "D"},
	Imul: {Pop: "II", Push: "I"}, Lmul: {Pop: "JJ", Push: "J"}, Fmul: {Pop: "FF", Push: "F"}, Dmul: {Pop: "DD", Push: "D"},
	Idiv: {Pop: "II", Push: "I"}, Ldiv: {Pop: "JJ", Push: "J"}, Fdiv: {Pop: "FF", Push: "F"}, Ddiv: {Pop: "DD", Push: "D"},
	Irem: {Pop: "II", Push: "I"}, Lrem: {Pop: "JJ", Push: "J"}, Frem: {Pop: "FF", Push: "F"}, Drem: {Pop: "DD", Push: "D"},
	Ineg: {Pop: "I", Push: "I"}, Lneg: {Pop: "J", Push: "J"}, Fneg: {Pop: "F", Push: "F"}, Dneg: {Pop: "D", Push: "D"},
	Ishl: {Pop: "II", Push: "I"}, Lshl: {Pop: "JI", Push: "J"}, Ishr: {Pop: "II", Push: "I"},
	Lshr: {Pop: "JI", Push: "J"}, Iushr: {Pop: "II", Push: "I"}, Lushr: {Pop: "JI", Push: "J"},
	Iand: {Pop: "II", Push: "I"}, Land: {Pop: "JJ", Push: "J"}, Ior: {Pop: "II", Push: "I"},
	Lor: {Pop: "JJ", Push: "J"}, Ixor: {Pop: "II", Push: "I"}, Lxor: {Pop: "JJ", Push: "J"},
	Iinc: {Local: 'I'},
	I2l:  {Pop: "I", Push: "J"}, I2f: {Pop: "I", Push: "F"}, I2d: {Pop: "I", Push: "D"},
	L2i: {Pop: "J", Push: "I"}, L2f: {Pop: "J", Push: "F"}, L2d: {Pop: "J", Push: "D"},
	F2i: {Pop: "F", Push: "I"}, F2l: {Pop: "F", Push: "J"}, F2d: {Pop: "F", Push: "D"},
	D2i: {Pop: "D", Push: "I"}, D2l: {Pop: "D", Push: "J"}, D2f: {Pop: "D", Push: "F"},
	I2b: {Pop: "I", Push: "I"}, I2c: {Pop: "I", Push: "I"}, I2s: {Pop: "I", Push: "I"},
	Lcmp: {Pop: "JJ", Push: "I"}, Fcmpl: {Pop: "FF", Push: "I"}, Fcmpg: {Pop: "FF", Push: "I"},
	Dcmpl: {Pop: "DD", Push: "I"}, Dcmpg: {Pop: "DD", Push: "I"},

	Ifeq: {Pop: "I", Flow: FlowBranch}, Ifne: {Pop: "I", Flow: FlowBranch},
	Iflt: {Pop: "I", Flow: FlowBranch}, Ifge: {Pop: "I", Flow: FlowBranch},
	Ifgt: {Pop: "I", Flow: FlowBranch}, Ifle: {Pop: "I", Flow: FlowBranch},
	IfIcmpeq: {Pop: "II", Flow: FlowBranch}, IfIcmpne: {Pop: "II", Flow: FlowBranch},
	IfIcmplt: {Pop: "II", Flow: FlowBranch}, IfIcmpge: {Pop: "II", Flow: FlowBranch},
	IfIcmpgt: {Pop: "II", Flow: FlowBranch}, IfIcmple: {Pop: "II", Flow: FlowBranch},
	IfAcmpeq: {Pop: "LL", Flow: FlowBranch}, IfAcmpne: {Pop: "LL", Flow: FlowBranch},
	Ifnull: {Pop: "L", Flow: FlowBranch}, Ifnonnull: {Pop: "L", Flow: FlowBranch},
	Goto: {Flow: FlowGoto}, GotoW: {Flow: FlowGoto},
	Jsr: {Flow: FlowJsr}, JsrW: {Flow: FlowJsr}, Ret: {Flow: FlowJsr},
	Tableswitch: {Pop: "I", Flow: FlowSwitch}, Lookupswitch: {Pop: "I", Flow: FlowSwitch},
	Ireturn: {Pop: "I", Flow: FlowReturn}, Lreturn: {Pop: "J", Flow: FlowReturn},
	Freturn: {Pop: "F", Flow: FlowReturn}, Dreturn: {Pop: "D", Flow: FlowReturn},
	Areturn: {Pop: "L", Flow: FlowReturn}, Return: {Flow: FlowReturn},
	Athrow: {Pop: "L", Flow: FlowThrow},

	Getstatic: {Push: "*"}, Putstatic: {Pop: "*"}, Getfield: {Pop: "L", Push: "*"}, Putfield: {Pop: "L*"},
	Invokevirtual: {Pop: "L*", Push: "*"}, Invokespecial: {Pop: "L*", Push: "*"},
	Invokestatic: {Pop: "*", Push: "*"}, Invokeinterface: {Pop: "L*", Push: "*"},
	New: {Push: "L"}, Newarray: {Pop: "I", Push: "L"}, Anewarray: {Pop: "I", Push: "L"},
	Arraylength: {Pop: "L", Push: "I"}, Checkcast: {Pop: "L", Push: "L"}, Instanceof: {Pop: "L", Push: "I"},
	Monitorenter: {Pop: "L"}, Monitorexit: {Pop: "L"},
	Multianewarray: {Pop: "*", Push: "L"},
}
