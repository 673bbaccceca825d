package stackstate

import (
	"testing"

	"classpack/internal/bytecode"
	"classpack/internal/classfile"
)

// typedMethod assembles a method body exercising typed opcode families,
// returning its instructions and the operand facts of each.
func typedMethod(t *testing.T) ([]bytecode.Instruction, []OpInfo) {
	t.Helper()
	a := bytecode.NewAssembler()
	var infos []OpInfo
	op := func(o bytecode.Op) { a.Op(o); infos = append(infos, OpInfo{}) }
	local := func(o bytecode.Op, slot int) { a.Local(o, slot); infos = append(infos, OpInfo{}) }
	ref := func(o bytecode.Op, info OpInfo) { a.CP(o, 1); infos = append(infos, info) }
	ldc := func(k classfile.ConstKind) { a.Ldc(1); infos = append(infos, ConstInfo(k)) }
	field := func(base byte) OpInfo { return OpInfo{HasField: true, Field: classfile.Type{Base: base}} }

	skip := a.NewLabel()
	// Float arithmetic: fadd should collapse.
	op(bytecode.Fconst1)
	op(bytecode.Fconst2)
	op(bytecode.Fadd)
	local(bytecode.Fstore, 1)
	// Double via getfield.
	local(bytecode.Aload, 0)
	ref(bytecode.Getfield, field('D'))
	op(bytecode.Dconst1)
	op(bytecode.Dmul)
	local(bytecode.Dstore, 2)
	// Long from a call, shifted.
	local(bytecode.Aload, 0)
	ref(bytecode.Invokevirtual, OpInfo{HasMethod: true, Ret: classfile.Type{Base: 'J'}})
	op(bytecode.Iconst2)
	op(bytecode.Lshl)
	op(bytecode.Lneg)
	local(bytecode.Lstore, 4)
	// Int work with a forward branch.
	local(bytecode.Aload, 0)
	ref(bytecode.Getfield, field('I'))
	op(bytecode.Iconst3)
	op(bytecode.Iadd)
	a.Branch(bytecode.Ifeq, skip)
	infos = append(infos, OpInfo{})
	ldc(classfile.KindFloat)
	op(bytecode.Pop)
	a.Bind(skip)
	ldc(classfile.KindString)
	op(bytecode.Pop)
	// Conversions.
	op(bytecode.Iconst1)
	op(bytecode.I2d)
	op(bytecode.D2l)
	op(bytecode.L2i)
	local(bytecode.Aload, 0)
	op(bytecode.Swap)
	op(bytecode.Pop)
	ref(bytecode.Invokevirtual, OpInfo{HasMethod: true,
		Params: []classfile.Type{{Base: 'I'}}, Ret: classfile.ObjectType("java/lang/String")})
	op(bytecode.Pop)
	op(bytecode.Return)

	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	insns, err := bytecode.Decode(code)
	if err != nil {
		t.Fatal(err)
	}
	if len(insns) != len(infos) {
		t.Fatalf("%d instructions, %d operand facts", len(insns), len(infos))
	}
	return insns, infos
}

// stepOp steps s over an instruction that needs no operand facts.
func stepOp(s *Sim, in bytecode.Instruction) { s.StepInfo(&in, OpInfo{}) }

func TestCollapseRoundTrip(t *testing.T) {
	insns, infos := typedMethod(t)
	enc := New(nil)
	dec := New(nil)
	collapsed := 0
	for i := range insns {
		in := &insns[i]
		enc.Begin(in.Offset)
		dec.Begin(in.Offset)
		wire := enc.WireOp(in.Op)
		if wire != in.Op {
			collapsed++
		}
		back := dec.SourceOp(wire)
		if back != in.Op {
			t.Fatalf("offset %d: %s -> wire %s -> %s", in.Offset, in.Op, wire, back)
		}
		if e, d := enc.ContextID(), dec.ContextID(); e != d {
			t.Fatalf("offset %d: context diverged %d vs %d", in.Offset, e, d)
		}
		enc.StepInfo(in, infos[i])
		din := *in
		din.Op = back
		dec.StepInfo(&din, infos[i])
	}
	if collapsed == 0 {
		t.Fatal("no opcode was collapsed; the simulation is not engaging")
	}
}

func TestSpecificCollapses(t *testing.T) {
	s := New(nil)
	s.Begin(0)
	// Two floats on the stack: fadd must code as the family rep iadd.
	stepOp(s, bytecode.Instruction{Op: bytecode.Fconst1})
	stepOp(s, bytecode.Instruction{Op: bytecode.Fconst2})
	if got := s.WireOp(bytecode.Fadd); got != bytecode.Iadd {
		t.Errorf("WireOp(fadd) = %s, want iadd", got)
	}
	// And symmetrically, an actual iadd there codes as fadd.
	if got := s.WireOp(bytecode.Iadd); got != bytecode.Fadd {
		t.Errorf("WireOp(iadd) = %s, want fadd", got)
	}
	// freturn collapses to ireturn.
	stepOp(s, bytecode.Instruction{Op: bytecode.Fadd})
	if got := s.WireOp(bytecode.Freturn); got != bytecode.Ireturn {
		t.Errorf("WireOp(freturn) = %s, want ireturn", got)
	}
	// fstore_0 collapses to istore_0.
	if got := s.WireOp(bytecode.Fstore0); got != bytecode.Istore0 {
		t.Errorf("WireOp(fstore_0) = %s, want istore_0", got)
	}
}

func TestShiftUsesSecondValue(t *testing.T) {
	s := New(nil)
	s.Begin(0)
	stepOp(s, bytecode.Instruction{Op: bytecode.Lconst1})
	stepOp(s, bytecode.Instruction{Op: bytecode.Iconst2})
	// Top is int (shift amount), second is long: lshl is predicted.
	if got := s.WireOp(bytecode.Lshl); got != bytecode.Ishl {
		t.Errorf("WireOp(lshl) = %s, want ishl", got)
	}
}

func TestUnknownStatePassesThrough(t *testing.T) {
	s := New(nil)
	s.Begin(0)
	stepOp(s, bytecode.Instruction{Op: bytecode.Goto, A: 10}) // terminates flow
	s.Begin(3)
	// State unknown: every family member codes as itself.
	for _, op := range []bytecode.Op{bytecode.Fadd, bytecode.Iadd, bytecode.Dmul, bytecode.Lreturn} {
		if got := s.WireOp(op); got != op {
			t.Errorf("unknown state: WireOp(%s) = %s, want identity", op, got)
		}
	}
}

func TestHandlerEntryState(t *testing.T) {
	s := New([]int{8})
	s.Begin(0)
	stepOp(s, bytecode.Instruction{Op: bytecode.Goto, Offset: 0, A: 8})
	s.Begin(8)
	// Handler entry holds exactly the thrown exception: areturn collapses.
	if got := s.WireOp(bytecode.Areturn); got != bytecode.Ireturn {
		t.Errorf("handler entry: WireOp(areturn) = %s, want ireturn", got)
	}
	if got := s.ContextID(); got != 5*6+0 {
		t.Errorf("handler entry context = %d, want %d", got, 5*6)
	}
}

func TestForwardBranchStateRestored(t *testing.T) {
	s := New(nil)
	// iconst_1; ifeq +6; (fall-through) fconst_0; freturn | target at 6.
	s.Begin(0)
	stepOp(s, bytecode.Instruction{Op: bytecode.Iconst1, Offset: 0})
	s.Begin(1)
	stepOp(s, bytecode.Instruction{Op: bytecode.Ifeq, Offset: 1, A: 6})
	s.Begin(4)
	stepOp(s, bytecode.Instruction{Op: bytecode.Return, Offset: 4})
	// At offset 6 the saved (empty, known) state is restored.
	s.Begin(6)
	if !s.known || len(s.stack) != 0 {
		t.Fatalf("state at branch target: known=%v stack=%v", s.known, s.stack)
	}
}

// TestResolverFailuresLoseState checks that an instruction whose operand
// facts the caller could not resolve loses the state.
func TestResolverFailuresLoseState(t *testing.T) {
	s := New(nil)
	s.Begin(0)
	stepOp(s, bytecode.Instruction{Op: bytecode.Getstatic, A: 9999})
	if s.known {
		t.Fatal("state still known after unresolvable getstatic")
	}
}

func TestContextIDRange(t *testing.T) {
	s := New(nil)
	ops := []bytecode.Op{
		bytecode.Iconst1, bytecode.Fconst1, bytecode.Lconst1,
		bytecode.Dconst1, bytecode.AconstNull,
	}
	s.Begin(0)
	for _, op := range ops {
		stepOp(s, bytecode.Instruction{Op: op})
		if id := s.ContextID(); id < 0 || id >= NumContexts {
			t.Fatalf("ContextID %d out of range", id)
		}
	}
	// Top = ref (aconst_null), second = double.
	if got := s.ContextID(); got != 5*6+4 {
		t.Fatalf("ContextID = %d, want %d", got, 5*6+4)
	}
}

func TestDupShuffles(t *testing.T) {
	s := New(nil)
	s.Begin(0)
	stepOp(s, bytecode.Instruction{Op: bytecode.Iconst1})
	stepOp(s, bytecode.Instruction{Op: bytecode.AconstNull})
	stepOp(s, bytecode.Instruction{Op: bytecode.Dup})
	want := []Kind{Int, Ref, Ref}
	if !kindsEqual(s.stack, want) {
		t.Fatalf("after dup: %v, want %v", s.stack, want)
	}
	stepOp(s, bytecode.Instruction{Op: bytecode.DupX2})
	want = []Kind{Ref, Int, Ref, Ref}
	if !kindsEqual(s.stack, want) {
		t.Fatalf("after dup_x2: %v, want %v", s.stack, want)
	}
	stepOp(s, bytecode.Instruction{Op: bytecode.Dup2X2})
	want = []Kind{Ref, Ref, Ref, Int, Ref, Ref}
	if !kindsEqual(s.stack, want) {
		t.Fatalf("after dup2_x2: %v, want %v", s.stack, want)
	}
}
