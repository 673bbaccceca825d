package stackstate

import (
	"classpack/internal/bytecode"
	"classpack/internal/classfile"
)

// slotKinds holds the stack slots of a value of each descriptor base
// letter, L standing for any reference; unlisted bases are Unknown.
var slotKinds = func() (k [256][]Kind) {
	for c := range k {
		k[c] = []Kind{Unknown}
	}
	for _, c := range "BCSZI" {
		k[c] = []Kind{Int}
	}
	k['F'] = []Kind{Float}
	k['J'] = []Kind{Long, Hi}
	k['D'] = []Kind{Double, Hi}
	k['L'] = []Kind{Ref}
	k['V'] = nil
	return k
}()

// step is an opcode's effect on the simulation, expanded once from the
// bytecode table so that StepInfo reads no string.
type step struct {
	valid           bool
	pop             int    // slots popped, besides the operand's
	push            []Kind // kinds pushed, besides the operand's
	popDyn, pushDyn bool   // the operand decides part of the popped or pushed values
	flow            bytecode.Flow
	shuffle         *bytecode.Shuffle
}

var steps = func() (table [256]step) {
	for op := range table {
		e, ok := bytecode.EffectOf(bytecode.Op(op))
		if !ok {
			continue
		}
		st := &table[op]
		st.valid, st.flow, st.shuffle = true, e.Flow, e.Shuffle
		kinds := func(c byte) []Kind { return slotKinds[c] }
		pop, popDyn := bytecode.Slots(e.Pop, kinds)
		st.pop, st.popDyn = len(pop), popDyn
		st.push, st.pushDyn = bytecode.Slots(e.Push, kinds)
	}
	return table
}()

// typeKinds returns the stack slots a value of type t occupies. The
// slice is shared and must not be modified.
func typeKinds(t classfile.Type) []Kind {
	if t.Dims > 0 {
		return slotKinds['L']
	}
	return slotKinds[t.Base]
}

func (s *Sim) lose() {
	s.known = false
	s.stack = s.stack[:0]
}

func (s *Sim) pop(slots int) {
	if !s.known {
		return
	}
	// slots < 0 can only come from a corrupt operand (e.g. a decoded
	// multianewarray dimension count); it must degrade the simulation,
	// not grow the slice past its length.
	if slots < 0 || len(s.stack) < slots {
		s.lose()
		return
	}
	s.stack = s.stack[:len(s.stack)-slots]
}

func (s *Sim) push(kinds ...Kind) {
	if !s.known {
		return
	}
	s.stack = append(s.stack, kinds...)
}

// save remembers the state for a forward branch target if the one
// remembered slot (§7.1) is free.
func (s *Sim) save(offset, target int) {
	if target <= offset || s.haveSaved {
		return
	}
	s.haveSaved = true
	s.savedTarget = target
	s.savedStack = append(s.savedStack[:0], s.stack...)
	s.savedKnown = s.known
}

// OpInfo carries the operand facts the simulation needs of one
// instruction: the type of the field it accesses, the parameter and
// return types of the method it calls, or the kind of the constant it
// loads. The packer fills it from the member or constant it resolved in
// the class file to write the operand, and the decoder from the member
// or constant it decoded from the wire. Both derive a member's facts
// from its descriptor through the same core cache, and a constant's
// through ConstInfo, so the two simulations stay in lockstep.
type OpInfo struct {
	HasField bool
	Field    classfile.Type

	HasMethod bool
	Params    []classfile.Type // read-only: callers may share it
	Ret       classfile.Type

	HasConst bool
	Const    Kind
}

// ConstInfo returns the OpInfo of an ldc, ldc_w or ldc2_w that loads a
// constant of kind k.
func ConstInfo(k classfile.ConstKind) OpInfo {
	t, ok := k.LdcType()
	return OpInfo{HasConst: ok, Const: typeKinds(t)[0]}
}

// StepInfo advances the simulation over the actual (source) instruction,
// whose operand facts are info. Begin must have been called with
// in.Offset first.
func (s *Sim) StepInfo(in *bytecode.Instruction, info OpInfo) {
	st := &steps[in.Op]
	switch {
	case !st.valid || st.flow == bytecode.FlowJsr:
		// jsr pushes a return address at its target, too irregular for
		// the single-save model, so give up on both paths.
		s.lose()
		return
	case st.shuffle != nil:
		if s.known {
			var ok bool
			if s.stack, ok = bytecode.ShuffleSlots(s.stack, st.shuffle); !ok {
				s.lose()
			}
		}
		return
	}
	s.pop(st.pop)
	if (st.popDyn || st.pushDyn) && !s.operand(in, info, st.popDyn) {
		s.lose()
		return
	}
	s.push(st.push...)
	switch st.flow {
	case bytecode.FlowBranch:
		s.save(in.Offset, in.A)
	case bytecode.FlowGoto:
		s.save(in.Offset, in.A)
		s.terminated = true
	case bytecode.FlowSwitch, bytecode.FlowReturn, bytecode.FlowThrow:
		s.terminated = true
	}
}

// operand pops and pushes the part of in's effect that its operand
// decides, popping a field's value when pop is set. It reports false
// when info lacks the facts.
func (s *Sim) operand(in *bytecode.Instruction, info OpInfo, pop bool) bool {
	switch in.Op {
	case bytecode.Ldc, bytecode.LdcW:
		k := Unknown
		if info.HasConst {
			k = info.Const
		}
		s.push(k)
	case bytecode.Ldc2W:
		if info.HasConst && (info.Const == Long || info.Const == Double) {
			s.push(info.Const, Hi)
		} else {
			s.push(Unknown, Unknown)
		}
	case bytecode.Getstatic, bytecode.Putstatic, bytecode.Getfield, bytecode.Putfield:
		if !info.HasField {
			return false
		}
		if k := typeKinds(info.Field); pop {
			s.pop(len(k))
		} else {
			s.push(k...)
		}
	case bytecode.Invokevirtual, bytecode.Invokespecial, bytecode.Invokestatic, bytecode.Invokeinterface:
		if !info.HasMethod {
			return false
		}
		slots := 0
		for _, p := range info.Params {
			slots += len(typeKinds(p))
		}
		s.pop(slots)
		s.push(typeKinds(info.Ret)...)
	case bytecode.Multianewarray:
		s.pop(in.B)
	default:
		return false
	}
	return true
}
