package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"classpack/internal/bytecode"
	"classpack/internal/classfile"
	"classpack/internal/ir"
	"classpack/internal/refs"
	"classpack/internal/stackstate"
)

// Pack encodes a collection of classfiles into a packed archive. With
// Options.ChunkClasses zero it emits the monolithic version-2 layout;
// a positive ChunkClasses selects the chunked, random-access version 3.
// The classfiles must already be canonicalized with strip.Apply
// (debugging and unrecognized attributes removed); Unpack reproduces
// them byte-for-byte either way.
func Pack(cfs []*classfile.ClassFile, opts Options) ([]byte, error) {
	if opts.ChunkClasses > 0 {
		return PackVersion(cfs, opts, Version3)
	}
	return PackVersion(cfs, opts, version)
}

// PackVersion is Pack with an explicit wire-format version: Version2
// (the default) appends per-stream and whole-container CRC32C checksums,
// Version1 is the legacy checksum-free layout kept writable for
// compatibility tests and old consumers, and Version3 is the chunked
// layout with a trailing seekable class index (Options.ChunkClasses
// picks the chunk size, DefaultChunkClasses when unset).
func PackVersion(cfs []*classfile.ClassFile, opts Options, ver byte) ([]byte, error) {
	if ver != Version1 && ver != Version2 && ver != Version3 {
		return nil, fmt.Errorf("core: unknown pack version %d", ver)
	}
	if err := checkScheme(opts); err != nil {
		return nil, err
	}
	if ver == Version3 {
		return packV3(cfs, opts)
	}
	body, err := encodeMonolith(cfs, opts, ver)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(body)+6)
	out = append(out, Magic[:]...)
	out = append(out, ver, encodeOptions(opts))
	return append(out, body...), nil
}

// encodeMonolith walks the whole collection once, codes the reference
// pools, and serializes the streams as one container body (no archive
// header).
func encodeMonolith(cfs []*classfile.ClassFile, opts Options, ver byte) ([]byte, error) {
	return walk(cfs, opts, func(p *packer) ([]byte, error) {
		if err := p.finishRefs(); err != nil {
			return nil, err
		}
		if ver == Version1 {
			return p.w.Finish()
		}
		return p.w.FinishChecked()
	})
}

// PackStats reports per-stream sizes for the archive that Pack would
// produce; the Table 6 breakdown derives from it. Like Pack, it refuses
// a scheme without a decoder.
func PackStats(cfs []*classfile.ClassFile, opts Options) (map[string][2]int, error) {
	if err := checkScheme(opts); err != nil {
		return nil, err
	}
	return walk(cfs, opts, func(p *packer) (map[string][2]int, error) {
		if err := p.finishRefs(); err != nil {
			return nil, err
		}
		return p.w.Sizes(), nil
	})
}

// Traces records the reference event stream of every pool in encode order
// (contexts included), for the Table 3 scheme-comparison experiments.
// Keys of the returned map are the pool names used in the "ref.*" streams.
// The events do not depend on the scheme, and no pool is preloaded. The
// streams are never coded, so none is compressed.
func Traces(cfs []*classfile.ClassFile, opts Options) (map[string][]refs.Event, error) {
	opts.Preload, opts.Compress = false, false
	return walk(cfs, opts, func(p *packer) (map[string][]refs.Event, error) {
		traces := make(map[string][]refs.Event)
		for id := range p.pools {
			r := &p.pools[id]
			if len(r.events) == 0 {
				continue
			}
			events := make([]refs.Event, len(r.events))
			for i, ev := range r.events {
				events[i] = refs.Event{Ctx: int(ev.ctx), Key: r.keys[ev.key]}
			}
			traces[strings.TrimPrefix(poolID(id).stream().String(), "ref.")] = events
		}
		return traces, nil
	})
}

// checkScheme refuses a measurement-only scheme: with no decoder, its
// encoder never reports a first occurrence.
func checkScheme(opts Options) error {
	if !opts.Scheme.Decodable() {
		return fmt.Errorf("core: scheme %v has no decoder", opts.Scheme)
	}
	return nil
}

func encodeOptions(opts Options) byte {
	b := byte(opts.Scheme) & 0x07
	if opts.StackState {
		b |= 1 << 4
	}
	if opts.Compress {
		b |= 1 << 5
	}
	if opts.Preload {
		b |= 1 << 6
	}
	return b
}

func decodeOptions(b byte) Options {
	return Options{
		Scheme:     refsScheme(b & 0x07),
		StackState: b&(1<<4) != 0,
		Compress:   b&(1<<5) != 0,
		Preload:    b&(1<<6) != 0,
	}
}

func (p *packer) archive(cfs []*classfile.ClassFile) error {
	p.st(sMeta).Uint(uint64(len(cfs)))
	for _, cf := range cfs {
		if err := p.class(cf); err != nil {
			return fmt.Errorf("core: pack %s: %w", cf.ThisClassName(), err)
		}
	}
	return nil
}

// memberFlags folds the attribute-presence bits of §4 into the flags word.
func memberFlags(access uint16, attrs []classfile.Attribute) uint64 {
	f := uint64(access)
	synthetic, deprecated := classfile.Marks(attrs)
	if synthetic {
		f |= flagSynthetic
	}
	if deprecated {
		f |= flagDeprecated
	}
	return f
}

func (p *packer) class(cf *classfile.ClassFile) error {
	thisKey, err := ir.ResolveClass(cf, cf.ThisClass)
	if err != nil {
		return err
	}
	var superKey ir.ClassKey
	flags := memberFlags(cf.AccessFlags, cf.Attrs)
	if cf.SuperClass != 0 {
		flags |= flagHasSuper
		if superKey, err = ir.ResolveClass(cf, cf.SuperClass); err != nil {
			return err
		}
	}
	var inner *classfile.InnerClassesAttr
	for _, a := range cf.Attrs {
		switch a := a.(type) {
		case *classfile.InnerClassesAttr:
			inner = a
			flags |= flagHasInner
		case *classfile.SyntheticAttr, *classfile.DeprecatedAttr:
			// folded into flags above
		default:
			return fmt.Errorf("unsupported class attribute %s (strip first)", a.AttrName())
		}
	}
	meta := p.st(sMeta)
	meta.Uint(uint64(cf.MinorVersion))
	meta.Uint(uint64(cf.MajorVersion))
	meta.Uint(flags)
	p.classRef(thisKey)
	if cf.SuperClass != 0 {
		p.classRef(superKey)
	}
	meta.Uint(uint64(len(cf.Interfaces)))
	for _, i := range cf.Interfaces {
		k, err := ir.ResolveClass(cf, i)
		if err != nil {
			return err
		}
		p.classRef(k)
	}
	if inner != nil {
		meta.Uint(uint64(len(inner.Entries)))
		for _, e := range inner.Entries {
			if err := p.innerEntry(cf, e); err != nil {
				return err
			}
		}
	}
	meta.Uint(uint64(len(cf.Fields)))
	for i := range cf.Fields {
		if err := p.field(cf, &cf.Fields[i]); err != nil {
			return fmt.Errorf("field %s: %w", cf.MemberName(&cf.Fields[i]), err)
		}
	}
	meta.Uint(uint64(len(cf.Methods)))
	for i := range cf.Methods {
		if err := p.method(cf, &cf.Methods[i]); err != nil {
			return fmt.Errorf("method %s%s: %w",
				cf.MemberName(&cf.Methods[i]), cf.MemberDesc(&cf.Methods[i]), err)
		}
	}
	return nil
}

func (p *packer) innerEntry(cf *classfile.ClassFile, e classfile.InnerClass) error {
	flags := uint64(e.AccessFlags)
	if e.Outer != 0 {
		flags |= flagInnerHasOuter
	}
	if e.InnerName != 0 {
		flags |= flagInnerHasName
	}
	p.st(sMeta).Uint(flags)
	k, err := ir.ResolveClass(cf, e.Inner)
	if err != nil {
		return err
	}
	p.classRef(k)
	if e.Outer != 0 {
		if k, err = ir.ResolveClass(cf, e.Outer); err != nil {
			return err
		}
		p.classRef(k)
	}
	if e.InnerName != 0 {
		p.strRef(catCls, cf.Utf8At(e.InnerName))
	}
	return nil
}

func (p *packer) field(cf *classfile.ClassFile, m *classfile.Member) error {
	desc := cf.MemberDesc(m)
	t, err := classfile.ParseFieldDescriptor(desc)
	if err != nil {
		return err
	}
	var cv *classfile.ConstantValueAttr
	flags := memberFlags(m.AccessFlags, m.Attrs)
	for _, a := range m.Attrs {
		switch a := a.(type) {
		case *classfile.ConstantValueAttr:
			cv = a
			flags |= flagHasConst
		case *classfile.SyntheticAttr, *classfile.DeprecatedAttr:
		default:
			return fmt.Errorf("unsupported field attribute %s", a.AttrName())
		}
	}
	p.st(sMeta).Uint(flags)
	p.strRef(catFname, cf.MemberName(m))
	p.classRef(ir.TypeToKey(t))
	if cv != nil {
		if err := p.constValue(cf, t, cv.Index); err != nil {
			return err
		}
	}
	return nil
}

// constValue encodes a field's ConstantValue; its kind is derived from the
// field type on both sides, so no tag is transmitted (§4).
func (p *packer) constValue(cf *classfile.ClassFile, t classfile.Type, idx uint16) error {
	if int(idx) >= len(cf.Pool) {
		return fmt.Errorf("ConstantValue index %d out of range", idx)
	}
	c := &cf.Pool[idx]
	if want := classfile.ConstKindForType(t); c.Kind != want {
		return fmt.Errorf("ConstantValue kind %v does not match field type %s", c.Kind, t)
	}
	return p.constant(cf, c, sIntCV)
}

// constant encodes a loadable constant's value into its value stream.
// ints is the stream an int goes to, int.cv for a ConstantValue and
// int.ldc for an ldc operand: the one way the two differ.
func (p *packer) constant(cf *classfile.ClassFile, c *classfile.Constant, ints streamID) error {
	var bits [8]byte
	switch c.Kind {
	case classfile.KindInteger:
		p.st(ints).Int(int64(c.Int))
	case classfile.KindLong:
		p.st(sLong).Int(c.Long)
	case classfile.KindFloat:
		binary.BigEndian.PutUint32(bits[:], math.Float32bits(c.Float))
		p.st(sFloat).Write(bits[:4])
	case classfile.KindDouble:
		binary.BigEndian.PutUint64(bits[:], math.Float64bits(c.Double))
		p.st(sDouble).Write(bits[:])
	case classfile.KindString:
		p.strRef(catStr, cf.Utf8At(c.Str))
	default:
		return fmt.Errorf("constant of kind %v is not loadable", c.Kind)
	}
	return nil
}

func (p *packer) method(cf *classfile.ClassFile, m *classfile.Member) error {
	sig, err := p.descs.method(cf.MemberDesc(m))
	if err != nil {
		return err
	}
	var code *classfile.CodeAttr
	var exc *classfile.ExceptionsAttr
	flags := memberFlags(m.AccessFlags, m.Attrs)
	for _, a := range m.Attrs {
		switch a := a.(type) {
		case *classfile.CodeAttr:
			code = a
			flags |= flagHasCode
		case *classfile.ExceptionsAttr:
			exc = a
		case *classfile.SyntheticAttr, *classfile.DeprecatedAttr:
		default:
			return fmt.Errorf("unsupported method attribute %s", a.AttrName())
		}
	}
	meta := p.st(sMeta)
	meta.Uint(flags)
	p.strRef(catMname, cf.MemberName(m))
	p.sigRef(sig)
	if exc != nil {
		meta.Uint(uint64(len(exc.Classes)))
		for _, c := range exc.Classes {
			k, err := ir.ResolveClass(cf, c)
			if err != nil {
				return err
			}
			p.classRef(k)
		}
	} else {
		meta.Uint(0)
	}
	if code != nil {
		return p.code(cf, code)
	}
	return nil
}

func (p *packer) code(cf *classfile.ClassFile, code *classfile.CodeAttr) error {
	maxes := p.st(sMaxes)
	maxes.Uint(uint64(code.MaxStack))
	maxes.Uint(uint64(code.MaxLocals))
	p.st(sMeta).Uint(uint64(len(code.Handlers)))
	handlerOffsets := p.hoffs[:0]
	hs := p.st(sHandler)
	for _, h := range code.Handlers {
		hs.Uint(uint64(h.StartPC))
		hs.Uint(uint64(h.EndPC))
		hs.Uint(uint64(h.HandlerPC))
		if h.CatchType != 0 {
			hs.Byte(1)
			k, err := ir.ResolveClass(cf, h.CatchType)
			if err != nil {
				return err
			}
			p.classRef(k)
		} else {
			hs.Byte(0)
		}
		handlerOffsets = append(handlerOffsets, int(h.HandlerPC))
	}
	p.hoffs = handlerOffsets
	p.st(sMeta).Uint(uint64(len(code.Code)))

	insns, err := bytecode.DecodeAppend(p.insns[:0], code.Code)
	if err != nil {
		return err
	}
	p.insns = insns
	for i, h := range code.Handlers {
		err := bytecode.CheckHandler(int(h.StartPC), int(h.EndPC), int(h.HandlerPC), len(code.Code), len(insns),
			func(k int) int { return insns[k].Offset })
		if err != nil {
			return fmt.Errorf("exception handler %d: %w", i, err)
		}
	}
	var sim *stackstate.Sim
	if p.opts.StackState {
		if p.sim == nil {
			p.sim = stackstate.New(handlerOffsets)
		} else {
			p.sim.Reset(handlerOffsets)
		}
		sim = p.sim
	}
	for i := range insns {
		if err := p.insn(cf, &insns[i], sim); err != nil {
			return fmt.Errorf("at offset %d (%s): %w", insns[i].Offset, insns[i].Op, err)
		}
	}
	return nil
}

// ldcPseudo maps a constant-loading instruction to its typed wire opcode.
func ldcPseudo(op bytecode.Op, kind classfile.ConstKind) (bytecode.Op, error) {
	for i, l := range ldcOps {
		if l.op == op && l.kind == kind {
			return opLdc + bytecode.Op(i), nil
		}
	}
	return 0, fmt.Errorf("%s of constant kind %v is not loadable", op, kind)
}

func (p *packer) insn(cf *classfile.ClassFile, in *bytecode.Instruction, sim *stackstate.Sim) error {
	if sim != nil {
		sim.Begin(in.Offset)
	}
	isLdc := in.Op == bytecode.Ldc || in.Op == bytecode.LdcW || in.Op == bytecode.Ldc2W
	wire := in.Op
	if isLdc {
		if int(in.A) >= len(cf.Pool) {
			return fmt.Errorf("constant index %d out of range", in.A)
		}
		var err error
		if wire, err = ldcPseudo(in.Op, cf.Pool[in.A].Kind); err != nil {
			return err
		}
	} else if sim != nil {
		wire = sim.WireOp(in.Op)
	}
	p.st(sOpcodes).Byte(byte(wire))

	ctx := 0
	if sim != nil {
		ctx = sim.ContextID()
	}
	var info stackstate.OpInfo
	switch bytecode.FormatOf(in.Op) {
	case bytecode.FmtNone:
		// no operands
	case bytecode.FmtLocal:
		p.writeReg(in.A, in.Wide && in.A <= 0xff)
	case bytecode.FmtIinc:
		redundant := in.Wide && in.A <= 0xff && in.B >= -128 && in.B <= 127
		p.writeReg(in.A, redundant)
		p.st(sIntImm).Int(int64(in.B))
	case bytecode.FmtSByte, bytecode.FmtSShort:
		p.st(sIntImm).Int(int64(in.A))
	case bytecode.FmtCP1, bytecode.FmtCP2:
		var err error
		if isLdc {
			c := &cf.Pool[in.A]
			err = p.constant(cf, c, sIntLdc)
			info = stackstate.ConstInfo(c.Kind)
		} else {
			info, err = p.cpOperand(cf, in, ctx)
		}
		if err != nil {
			return err
		}
	case bytecode.FmtInvokeInterface:
		m, err := ir.ResolveMember(cf, uint16(in.A))
		if err != nil {
			return err
		}
		d, err := p.memberRef(in.Op, m, ctx)
		if err != nil {
			return err
		}
		if want := d.method.argSlots + 1; in.B != want {
			return fmt.Errorf("invokeinterface count %d, descriptor implies %d", in.B, want)
		}
		info = d.info()
	case bytecode.FmtMultiANewArray:
		k, err := ir.ResolveClass(cf, uint16(in.A))
		if err != nil {
			return err
		}
		p.classRef(k)
		p.st(sMiscOp).Byte(byte(in.B))
	case bytecode.FmtNewArray:
		p.st(sMiscOp).Byte(byte(in.A))
	case bytecode.FmtBranch2, bytecode.FmtBranch4:
		p.st(sBranch).Int(int64(in.A - in.Offset))
	case bytecode.FmtTableSwitch:
		sw := p.st(sSwitch)
		sw.Int(int64(in.Default - in.Offset))
		sw.Int(int64(in.Low))
		sw.Uint(uint64(len(in.Targets)))
		for _, t := range in.Targets {
			sw.Int(int64(t - in.Offset))
		}
	case bytecode.FmtLookupSwitch:
		if err := bytecode.CheckSwitchKeys(in.Keys); err != nil {
			return err
		}
		sw := p.st(sSwitch)
		sw.Int(int64(in.Default - in.Offset))
		sw.Uint(uint64(len(in.Keys)))
		for i, k := range in.Keys {
			if i == 0 {
				sw.Int(int64(k))
			} else {
				sw.Uint(uint64(int64(k) - int64(in.Keys[i-1])))
			}
		}
		for _, t := range in.Targets {
			sw.Int(int64(t - in.Offset))
		}
	default:
		return fmt.Errorf("cannot pack opcode %s", in.Op)
	}

	if sim != nil {
		sim.StepInfo(in, info)
	}
	return nil
}

// writeReg encodes a register operand together with a redundant-wide flag
// so that a wide prefix on a small operand survives the round trip.
func (p *packer) writeReg(reg int, redundantWide bool) {
	v := uint64(reg) << 1
	if redundantWide {
		v |= 1
	}
	p.st(sRegs).Uint(v)
}

// cpOperand encodes the constant-pool operand of a non-ldc instruction,
// returning its facts for the stack simulation.
func (p *packer) cpOperand(cf *classfile.ClassFile, in *bytecode.Instruction, ctx int) (stackstate.OpInfo, error) {
	switch in.Op {
	case bytecode.New, bytecode.Anewarray, bytecode.Checkcast, bytecode.Instanceof:
		k, err := ir.ResolveClass(cf, uint16(in.A))
		if err != nil {
			return stackstate.OpInfo{}, err
		}
		p.classRef(k)
		return stackstate.OpInfo{}, nil
	}
	m, err := ir.ResolveMember(cf, uint16(in.A))
	if err != nil {
		return stackstate.OpInfo{}, err
	}
	d, err := p.memberRef(in.Op, m, ctx)
	if err != nil {
		return stackstate.OpInfo{}, err
	}
	return d.info(), nil
}
