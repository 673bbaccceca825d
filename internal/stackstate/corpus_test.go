package stackstate_test

import (
	"testing"

	"classpack/internal/bytecode"
	"classpack/internal/classfile"
	"classpack/internal/stackstate"
	"classpack/internal/synth"
)

// TestSimSymmetryOverCorpus drives two simulations over every method of
// a generated corpus: one maps each source opcode to the wire (the
// compressor side), the other maps the wire opcode back (the decompressor
// side). Both are fed the same operand facts, derived from the class's
// constant pool by infoFor, and the test asserts that the collapse
// transposition inverts and the contexts never diverge. That the packer
// and the decoder derive the same facts is left to core's round trips.
// This exercises essentially every opcode on realistic mixes.
func TestSimSymmetryOverCorpus(t *testing.T) {
	for _, name := range []string{"jmark20", "222_mpegaudio", "213_javac"} {
		t.Run(name, func(t *testing.T) {
			p, err := synth.ProfileByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cfs, err := synth.GenerateStripped(p, 0.03)
			if err != nil {
				t.Fatal(err)
			}
			collapsed, total := 0, 0
			for _, cf := range cfs {
				for mi := range cf.Methods {
					code := classfile.CodeOf(&cf.Methods[mi])
					if code == nil {
						continue
					}
					insns, err := bytecode.Decode(code.Code)
					if err != nil {
						t.Fatal(err)
					}
					var handlers []int
					for _, h := range code.Handlers {
						handlers = append(handlers, int(h.HandlerPC))
					}
					enc := stackstate.New(handlers)
					dec := stackstate.New(handlers)
					for i := range insns {
						in := &insns[i]
						enc.Begin(in.Offset)
						dec.Begin(in.Offset)
						if e, d := enc.ContextID(), dec.ContextID(); e != d {
							t.Fatalf("%s method %d offset %d: contexts %d vs %d",
								cf.ThisClassName(), mi, in.Offset, e, d)
						}
						wire := enc.WireOp(in.Op)
						if wire != in.Op {
							collapsed++
						}
						total++
						if back := dec.SourceOp(wire); back != in.Op {
							t.Fatalf("%s method %d offset %d: %s -> %s -> %s",
								cf.ThisClassName(), mi, in.Offset, in.Op, wire, back)
						}
						info := infoFor(cf, in)
						enc.StepInfo(in, info)
						dec.StepInfo(in, info)
					}
				}
			}
			if collapsed == 0 {
				t.Fatal("no opcode collapsed over an entire corpus")
			}
			t.Logf("%s: %d/%d opcodes collapsed (%.1f%%)", name, collapsed, total,
				100*float64(collapsed)/float64(total))
		})
	}
}

// infoFor derives the operand facts of in from cf's constant pool.
func infoFor(cf *classfile.ClassFile, in *bytecode.Instruction) stackstate.OpInfo {
	switch bytecode.FormatOf(in.Op) {
	case bytecode.FmtCP1, bytecode.FmtCP2, bytecode.FmtInvokeInterface:
	default:
		return stackstate.OpInfo{}
	}
	c := cf.Pool[in.A]
	desc := cf.Utf8At(cf.Pool[c.NameAndType].Desc)
	switch c.Kind {
	case classfile.KindFieldref:
		t, err := classfile.ParseFieldDescriptor(desc)
		return stackstate.OpInfo{HasField: err == nil, Field: t}
	case classfile.KindMethodref, classfile.KindInterfaceMethodref:
		params, ret, err := classfile.ParseMethodDescriptor(desc)
		return stackstate.OpInfo{HasMethod: err == nil, Params: params, Ret: ret}
	}
	return stackstate.ConstInfo(c.Kind)
}
