package verifier

import (
	"fmt"
	"slices"

	"classpack/internal/bytecode"
	"classpack/internal/classfile"
)

// row is an opcode's effect in verification types, expanded once from
// the bytecode table.
type row struct {
	valid           bool
	pop, push       []vtype // besides the operand's part
	popDyn, pushDyn bool    // the operand decides part of the popped or pushed values
	local           []vtype // the slots of the local a load, store or iinc uses
	flow            bytecode.Flow
	shuffle         *bytecode.Shuffle
}

var rows = func() (table [256]row) {
	slots := func(c byte) []vtype { return baseSlots[c] }
	for op := range table {
		e, ok := bytecode.EffectOf(bytecode.Op(op))
		if !ok {
			continue
		}
		r := &table[op]
		r.valid, r.flow, r.shuffle = true, e.Flow, e.Shuffle
		r.pop, r.popDyn = bytecode.Slots(e.Pop, slots)
		r.push, r.pushDyn = bytecode.Slots(e.Push, slots)
		if e.Local != 0 {
			r.local = baseSlots[e.Local]
		}
	}
	return table
}()

// push pushes ts onto the stack, within max_stack.
func (v *mverifier) push(f *frame, ts []vtype) error {
	if len(f.stack)+len(ts) > int(v.code.MaxStack) {
		return fmt.Errorf("push exceeds max_stack %d", v.code.MaxStack)
	}
	f.stack = append(f.stack, ts...)
	return nil
}

// pop pops want, listed bottom first, off the stack.
func pop(f *frame, want []vtype) error {
	for i := len(want) - 1; i >= 0; i-- {
		if len(f.stack) == 0 {
			return fmt.Errorf("stack underflow, wanted %v", want[i])
		}
		got := f.stack[len(f.stack)-1]
		f.stack = f.stack[:len(f.stack)-1]
		if got != want[i] {
			return fmt.Errorf("popped %v, wanted %v", got, want[i])
		}
	}
	return nil
}

// upper reports whether t is the second slot of a category-2 value.
func upper(t vtype) bool { return t == tLong2 || t == tDouble2 }

// shuffle applies one of the typeless stack shuffles. Its window may not
// start inside a category-2 value, and its cut may not split one: the
// one rule that gives every category check of JVMS §6.5 pop to swap.
func (v *mverifier) shuffle(f *frame, op bytecode.Op, sh *bytecode.Shuffle) error {
	n := len(f.stack)
	if n < sh.Take {
		return fmt.Errorf("%s with stack depth %d", op, n)
	}
	if upper(f.stack[n-sh.Take]) || upper(f.stack[n-sh.Cut]) {
		return fmt.Errorf("%s splitting a category-2 value", op)
	}
	f.stack, _ = bytecode.ShuffleSlots(f.stack, sh)
	if len(f.stack) > int(v.code.MaxStack) {
		return fmt.Errorf("%s exceeds max_stack %d", op, v.code.MaxStack)
	}
	return nil
}

// killSlot invalidates wide pairs overlapping an overwritten local.
func killSlot(f *frame, slot int) {
	if slot > 0 && (f.locals[slot-1] == tLong || f.locals[slot-1] == tDouble) {
		f.locals[slot-1] = tTop
	}
	if (f.locals[slot] == tLong || f.locals[slot] == tDouble) && slot+1 < len(f.locals) {
		f.locals[slot+1] = tTop
	}
}

func (v *mverifier) store(f *frame, slot int, ts []vtype) error {
	if slot+len(ts) > len(f.locals) {
		return fmt.Errorf("store to local %d exceeds max_locals %d", slot, len(f.locals))
	}
	// Invalidate wide pairs straddling the written range, then write.
	killSlot(f, slot)
	end := slot + len(ts) - 1
	if end != slot {
		killSlot(f, end)
	}
	copy(f.locals[slot:], ts)
	return nil
}

func (v *mverifier) load(f *frame, slot int, want []vtype) error {
	if slot+len(want) > len(f.locals) {
		return fmt.Errorf("load of local %d exceeds max_locals %d", slot, len(f.locals))
	}
	if got := f.locals[slot : slot+len(want)]; !slices.Equal(got, want) {
		return fmt.Errorf("local %d holds %v, wanted %v", slot, got, want)
	}
	return nil
}

// localSlot returns the local variable that in reads or writes: its
// operand, or the slot an xload_n or xstore_n opcode names.
func localSlot(in *bytecode.Instruction) int {
	switch op := in.Op; {
	case op >= bytecode.Iload0 && op <= bytecode.Aload3:
		return int(op-bytecode.Iload0) % 4
	case op >= bytecode.Istore0 && op <= bytecode.Astore3:
		return int(op-bytecode.Istore0) % 4
	}
	return in.A
}

// Constant-pool lookups.

// ref returns the constant that in's operand names, which must be of a
// kind in want.
func (v *mverifier) ref(in *bytecode.Instruction, want classfile.KindSet) (*classfile.Constant, error) {
	if err := v.cf.CheckRef(uint16(in.A), want, in.Op.String()); err != nil {
		return nil, err
	}
	return &v.cf.Pool[in.A], nil
}

// desc returns the descriptor of the member that in's operand names.
func (v *mverifier) desc(in *bytecode.Instruction, want classfile.ConstKind) (string, error) {
	c, err := v.ref(in, classfile.KindSet(1)<<want)
	if err != nil {
		return "", err
	}
	return v.cf.Utf8At(v.cf.Pool[c.NameAndType].Desc), nil
}

// operand checks in's constant-pool or immediate operand and returns
// what the table's '*' stands for: args among the popped values, res
// among the pushed ones.
func (v *mverifier) operand(in *bytecode.Instruction) (args, res []vtype, err error) {
	switch in.Op {
	case bytecode.Ldc, bytecode.LdcW, bytecode.Ldc2W:
		c, err := v.ref(in, classfile.OperandKinds)
		if err != nil {
			return nil, nil, err
		}
		t, ok := c.Kind.LdcType()
		if !ok || t.IsWide() != (in.Op == bytecode.Ldc2W) {
			return nil, nil, fmt.Errorf("%s of %v", in.Op, c.Kind)
		}
		return nil, typeSlots(t), nil
	case bytecode.Getstatic, bytecode.Putstatic, bytecode.Getfield, bytecode.Putfield:
		desc, err := v.desc(in, classfile.KindFieldref)
		if err != nil {
			return nil, nil, err
		}
		t, err := classfile.ParseFieldDescriptor(desc)
		return typeSlots(t), typeSlots(t), err
	case bytecode.Invokevirtual, bytecode.Invokespecial, bytecode.Invokestatic, bytecode.Invokeinterface:
		kind := classfile.KindMethodref
		if in.Op == bytecode.Invokeinterface {
			kind = classfile.KindInterfaceMethodref
		}
		desc, err := v.desc(in, kind)
		if err != nil {
			return nil, nil, err
		}
		params, ret, err := classfile.ParseMethodDescriptor(desc)
		if err != nil {
			return nil, nil, err
		}
		for _, p := range params {
			args = append(args, typeSlots(p)...)
		}
		if in.Op == bytecode.Invokeinterface && in.B != len(args)+1 {
			return nil, nil, fmt.Errorf("invokeinterface count %d, descriptor implies %d", in.B, len(args)+1)
		}
		return args, typeSlots(ret), nil
	case bytecode.New, bytecode.Anewarray, bytecode.Checkcast, bytecode.Instanceof:
		_, err := v.ref(in, classfile.KindSet(1)<<classfile.KindClass)
		return nil, nil, err
	case bytecode.Multianewarray:
		if in.B < 1 {
			return nil, nil, fmt.Errorf("multianewarray with %d dimensions", in.B)
		}
		dims := make([]vtype, in.B)
		for i := range dims {
			dims[i] = tInt
		}
		_, err := v.ref(in, classfile.KindSet(1)<<classfile.KindClass)
		return dims, nil, err
	case bytecode.Newarray:
		if in.A < 4 || in.A > 11 {
			return nil, nil, fmt.Errorf("newarray type %d invalid", in.A)
		}
	}
	return nil, nil, nil
}

// interpret processes the single instruction at off, flowing the result to
// its successors.
func (v *mverifier) interpret(off int) error {
	in := &v.insns[v.byOffset[off]]
	f := v.states[off].clone()
	// Locals at this point are visible to every covering handler.
	if err := v.handlersCovering(off, &f); err != nil {
		return err
	}
	r := &rows[in.Op]
	switch {
	case !r.valid:
		return fmt.Errorf("unsupported opcode %s", in.Op)
	case r.flow == bytecode.FlowJsr:
		// Subroutines carry return addresses and split verification state;
		// the 1.2-era verifier handled them with substantial machinery.
		// Nothing in this repository emits them, so reject outright.
		return fmt.Errorf("jsr/ret subroutines unsupported by this verifier")
	case r.shuffle != nil:
		if err := v.shuffle(&f, in.Op, r.shuffle); err != nil {
			return err
		}
	default:
		if err := v.apply(&f, in, r); err != nil {
			return err
		}
	}

	switch r.flow {
	case bytecode.FlowReturn, bytecode.FlowThrow:
		return nil
	case bytecode.FlowGoto:
		return v.flowTo(in.A, &f)
	case bytecode.FlowSwitch:
		if err := v.flowTo(in.Default, &f); err != nil {
			return err
		}
		for _, t := range in.Targets {
			if err := v.flowTo(t, &f); err != nil {
				return err
			}
		}
		return nil
	case bytecode.FlowBranch:
		if err := v.flowTo(in.A, &f); err != nil {
			return err
		}
	}
	next := in.Offset + in.Size()
	if next >= len(v.code.Code) {
		return fmt.Errorf("control flow falls off the end of the code")
	}
	return v.flowTo(next, &f)
}

// apply checks and applies the stack and local effect of in, which is
// not a shuffle.
func (v *mverifier) apply(f *frame, in *bytecode.Instruction, r *row) error {
	args, res, err := v.operand(in)
	if err != nil {
		return err
	}
	if r.flow == bytecode.FlowReturn && !slices.Equal(r.pop, typeSlots(v.ret)) {
		return fmt.Errorf("%s from method returning %s", in.Op, v.ret)
	}
	if r.popDyn {
		if err := pop(f, args); err != nil {
			return err
		}
	}
	if err := pop(f, r.pop); err != nil {
		return err
	}
	switch {
	case r.local == nil:
	case len(r.pop) == 0: // a load or iinc reads the local
		if err := v.load(f, localSlot(in), r.local); err != nil {
			return err
		}
	default: // a store writes it
		if err := v.store(f, localSlot(in), r.local); err != nil {
			return err
		}
	}
	if r.pushDyn {
		return v.push(f, res)
	}
	return v.push(f, r.push)
}
