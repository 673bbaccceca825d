// Package verifier implements a dataflow bytecode verifier in the style of
// the pre-Java-6 type-inference verifier: every method body is abstractly
// interpreted over a small type lattice with merge-over-all-paths until a
// fixpoint, rejecting stack underflow and overflow, operand type
// mismatches, inconsistent frame merges, and control flow that falls off
// the end of the code.
//
// Reference types are verified typelessly (every object or array value is
// `ref`): subtype checks would require the full class hierarchy, which an
// archive does not carry. The verifier is used by the test suite to
// independently validate the corpus generator, the MiniJava compiler, and
// unpacked archives.
package verifier

import (
	"errors"
	"fmt"

	"classpack/internal/bytecode"
	"classpack/internal/classfile"
	"classpack/internal/par"
)

// vtype is one verification type (a slot in a frame).
type vtype uint8

const (
	tTop vtype = iota // undefined / conflicting; unusable
	tInt              // int, boolean, byte, char, short
	tFloat
	tLong  // first slot of a long
	tLong2 // second slot of a long
	tDouble
	tDouble2
	tRef // any object or array reference (including null)
)

func (t vtype) String() string {
	return [...]string{"top", "int", "float", "long", "long2", "double", "double2", "ref"}[t]
}

// frame is the abstract machine state at one point.
type frame struct {
	locals []vtype
	stack  []vtype
}

func (f *frame) clone() frame {
	return frame{
		locals: append([]vtype(nil), f.locals...),
		stack:  append([]vtype(nil), f.stack...),
	}
}

// merge folds other into f, reporting whether f changed. Conflicting
// locals become top (unusable); conflicting or depth-mismatched stacks are
// errors.
func (f *frame) merge(other *frame) (changed bool, err error) {
	if len(f.stack) != len(other.stack) {
		return false, fmt.Errorf("stack depth %d vs %d at merge", len(f.stack), len(other.stack))
	}
	for i := range f.locals {
		if f.locals[i] != other.locals[i] && f.locals[i] != tTop {
			f.locals[i] = tTop
			changed = true
		}
	}
	for i := range f.stack {
		if f.stack[i] != other.stack[i] {
			return false, fmt.Errorf("stack slot %d: %v vs %v at merge", i, f.stack[i], other.stack[i])
		}
	}
	return changed, nil
}

// baseSlots holds the frame slots of a value of each descriptor base
// letter, L standing for any reference; unlisted bases are top.
var baseSlots = func() (b [256][]vtype) {
	for c := range b {
		b[c] = []vtype{tTop}
	}
	for _, c := range "BCSZI" {
		b[c] = []vtype{tInt}
	}
	b['F'] = []vtype{tFloat}
	b['J'] = []vtype{tLong, tLong2}
	b['D'] = []vtype{tDouble, tDouble2}
	b['L'] = []vtype{tRef}
	b['V'] = nil
	return b
}()

// typeSlots maps a descriptor type to its frame slots. The slice is
// shared and must not be modified.
func typeSlots(t classfile.Type) []vtype {
	if t.Dims > 0 {
		return baseSlots['L']
	}
	return baseSlots[t.Base]
}

// MethodError locates a verification failure: the class and method it
// occurred in, the bytecode offset and opcode of the failing
// instruction (PC -1 and an empty Op for structural failures that are
// not tied to one instruction), and the underlying cause.
type MethodError struct {
	Class  string
	Method string
	Desc   string
	PC     int
	Op     string
	Err    error
}

func (e *MethodError) Error() string {
	if e.PC >= 0 {
		return fmt.Sprintf("verifier: %s.%s%s: at pc %d (%s): %v",
			e.Class, e.Method, e.Desc, e.PC, e.Op, e.Err)
	}
	return fmt.Sprintf("verifier: %s.%s%s: %v", e.Class, e.Method, e.Desc, e.Err)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *MethodError) Unwrap() error { return e.Err }

// pcError carries the failing instruction's position out of the
// interpreter loop so Method can lift it into the MethodError.
type pcError struct {
	pc  int
	op  string
	err error
}

func (e *pcError) Error() string { return fmt.Sprintf("at pc %d (%s): %v", e.pc, e.op, e.err) }
func (e *pcError) Unwrap() error { return e.err }

// Class verifies every method body in cf, stopping at the first
// failure. The returned error is a *MethodError.
func Class(cf *classfile.ClassFile) error {
	for mi := range cf.Methods {
		if err := Method(cf, &cf.Methods[mi]); err != nil {
			return err
		}
	}
	return nil
}

// Verdict is one method's verification outcome within a class.
type Verdict struct {
	Method string
	Desc   string
	Err    *MethodError // nil when the method verified cleanly
}

// OK reports whether the method verified cleanly.
func (v Verdict) OK() bool { return v.Err == nil }

// ClassVerdicts verifies every method body in cf independently,
// returning one verdict per method instead of stopping at the first
// failure.
func ClassVerdicts(cf *classfile.ClassFile) []Verdict {
	out := make([]Verdict, len(cf.Methods))
	for mi := range cf.Methods {
		m := &cf.Methods[mi]
		out[mi] = Verdict{Method: cf.MemberName(m), Desc: cf.MemberDesc(m)}
		if err := Method(cf, m); err != nil {
			var me *MethodError
			if !errors.As(err, &me) {
				me = &MethodError{Class: cf.ThisClassName(), Method: out[mi].Method,
					Desc: out[mi].Desc, PC: -1, Err: err}
			}
			out[mi].Err = me
		}
	}
	return out
}

// Classes verifies a whole collection on up to concurrency workers
// (<= 0 meaning all cores). Verification only reads each classfile, and
// each file is checked independently, so the outcome is identical for
// every worker count; the error returned is the one a serial sweep
// would report first.
func Classes(cfs []*classfile.ClassFile, concurrency int) error {
	return par.Do(concurrency, len(cfs), func(i int) error {
		return Class(cfs[i])
	})
}

// Method verifies one method body (no-op for abstract/native methods).
// Failures are reported as *MethodError values carrying the class,
// method, and — for interpreter failures — the failing pc and opcode.
func Method(cf *classfile.ClassFile, m *classfile.Member) error {
	err := methodBody(cf, m)
	if err == nil {
		return nil
	}
	me := &MethodError{
		Class:  cf.ThisClassName(),
		Method: cf.MemberName(m),
		Desc:   cf.MemberDesc(m),
		PC:     -1,
		Err:    err,
	}
	var pe *pcError
	if errors.As(err, &pe) {
		me.PC, me.Op, me.Err = pe.pc, pe.op, pe.err
	}
	return me
}

// Static holds m's code to the rules Pack applies to it, without
// following control flow: every instruction, reachable or not, must
// decode and carry an operand of a kind its opcode takes, checked as the
// dataflow pass checks it, every lookupswitch's keys must ascend
// (bytecode.CheckSwitchKeys), and every exception handler must lie on
// instruction boundaries (bytecode.CheckHandler). It does nothing for a
// method without code.
func Static(cf *classfile.ClassFile, m *classfile.Member) error {
	code := classfile.CodeOf(m)
	if code == nil {
		return nil
	}
	insns, err := bytecode.Decode(code.Code)
	if err != nil {
		return err
	}
	v := &mverifier{cf: cf}
	for i := range insns {
		in := &insns[i]
		_, _, err := v.operand(in)
		if err == nil && in.Op == bytecode.Lookupswitch {
			err = bytecode.CheckSwitchKeys(in.Keys)
		}
		if err != nil {
			return &pcError{pc: in.Offset, op: in.Op.String(), err: err}
		}
	}
	for i, h := range code.Handlers {
		err := bytecode.CheckHandler(int(h.StartPC), int(h.EndPC), int(h.HandlerPC), len(code.Code), len(insns),
			func(k int) int { return insns[k].Offset })
		if err != nil {
			return fmt.Errorf("exception handler %d: %w", i, err)
		}
	}
	return nil
}

func methodBody(cf *classfile.ClassFile, m *classfile.Member) error {
	code := classfile.CodeOf(m)
	if code == nil {
		if m.AccessFlags&(classfile.AccAbstract|classfile.AccNative) == 0 {
			return fmt.Errorf("non-abstract method has no Code")
		}
		return nil
	}
	params, ret, err := classfile.ParseMethodDescriptor(cf.MemberDesc(m))
	if err != nil {
		return err
	}
	v := &mverifier{cf: cf, code: code, ret: ret}
	return v.run(params, m.AccessFlags&classfile.AccStatic == 0)
}

type mverifier struct {
	cf   *classfile.ClassFile
	code *classfile.CodeAttr
	ret  classfile.Type

	insns    []bytecode.Instruction
	byOffset map[int]int
	states   map[int]*frame // committed entry frame per reachable offset
	work     []int          // offsets to (re)process
}

func (v *mverifier) run(params []classfile.Type, hasThis bool) error {
	var err error
	v.insns, err = bytecode.Decode(v.code.Code)
	if err != nil {
		return err
	}
	if len(v.insns) == 0 {
		return fmt.Errorf("empty code array")
	}
	v.byOffset = make(map[int]int, len(v.insns))
	for i := range v.insns {
		v.byOffset[v.insns[i].Offset] = i
	}
	entry := frame{locals: make([]vtype, v.code.MaxLocals)}
	for i := range entry.locals {
		entry.locals[i] = tTop
	}
	slot := 0
	if hasThis {
		if slot >= len(entry.locals) {
			return fmt.Errorf("max_locals %d too small for this", v.code.MaxLocals)
		}
		entry.locals[slot] = tRef
		slot++
	}
	for _, p := range params {
		for _, s := range typeSlots(p) {
			if slot >= len(entry.locals) {
				return fmt.Errorf("max_locals %d too small for parameters", v.code.MaxLocals)
			}
			entry.locals[slot] = s
			slot++
		}
	}
	v.states = map[int]*frame{}
	if err := v.flowTo(0, &entry); err != nil {
		return err
	}
	for len(v.work) > 0 {
		off := v.work[len(v.work)-1]
		v.work = v.work[:len(v.work)-1]
		if err := v.interpret(off); err != nil {
			return &pcError{pc: off, op: v.insns[v.byOffset[off]].Op.String(), err: err}
		}
	}
	return nil
}

// flowTo merges a frame into a target offset, scheduling it when changed.
func (v *mverifier) flowTo(off int, f *frame) error {
	idx, ok := v.byOffset[off]
	if !ok {
		return fmt.Errorf("branch to %d, not an instruction boundary", off)
	}
	_ = idx
	if len(f.stack) > int(v.code.MaxStack) {
		return fmt.Errorf("stack depth %d exceeds max_stack %d flowing to %d",
			len(f.stack), v.code.MaxStack, off)
	}
	existing, ok := v.states[off]
	if !ok {
		c := f.clone()
		v.states[off] = &c
		v.work = append(v.work, off)
		return nil
	}
	changed, err := existing.merge(f)
	if err != nil {
		return fmt.Errorf("merging into %d: %w", off, err)
	}
	if changed {
		v.work = append(v.work, off)
	}
	return nil
}

// handlersCovering flows the current locals into every handler protecting
// the instruction at off.
func (v *mverifier) handlersCovering(off int, f *frame) error {
	for _, h := range v.code.Handlers {
		if off < int(h.StartPC) || off >= int(h.EndPC) {
			continue
		}
		hf := frame{locals: append([]vtype(nil), f.locals...), stack: []vtype{tRef}}
		if err := v.flowTo(int(h.HandlerPC), &hf); err != nil {
			return err
		}
	}
	return nil
}
