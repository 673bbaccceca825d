package core

import (
	"fmt"
	"math"

	"classpack/internal/bytecode"
	"classpack/internal/classfile"
	"classpack/internal/corrupt"
	"classpack/internal/ir"
	"classpack/internal/stackstate"
	"classpack/internal/streams"
	"classpack/internal/strip"
)

// Intermediate decoded structures; constant-pool indices are assigned only
// after the whole class is decoded, then canonicalized by the strip
// renumbering so output matches the encoder's input byte-for-byte.

type dConst struct {
	kind classfile.ConstKind
	i    int32
	f    float32
	l    int64
	d    float64
	s    string
}

type dInner struct {
	inner    ir.ClassKey
	hasOuter bool
	outer    ir.ClassKey
	hasName  bool
	name     string
	access   uint16
}

type dField struct {
	flags    uint64
	name     string
	typ      ir.ClassKey
	hasConst bool
	cv       dConst
}

type dHandler struct {
	start, end, handler int
	hasCatch            bool
	catch               ir.ClassKey
}

type dInsn struct {
	in     bytecode.Instruction
	hasUse bool
	use    opUse
	member ir.MemberRef
	class  ir.ClassKey // for new/anewarray/checkcast/instanceof/multianewarray
	isLdc  bool
	cv     dConst
}

type dCode struct {
	maxStack, maxLocals uint16
	handlers            []dHandler
	codeLen             int
	insns               []dInsn
}

type dMethod struct {
	flags      uint64
	name       string
	sig        ir.Signature
	exceptions []ir.ClassKey
	code       *dCode
}

// maxCount bounds decoded element counts; anything larger is a corrupt
// archive, caught before allocation.
const maxCount = 1 << 20

func checkCount(n uint64, what string) (int, error) {
	if n > maxCount {
		return 0, corrupt.TooLarge(sMeta, -1, "implausible %s count %d", what, n)
	}
	return int(n), nil
}

func (u *unpacker) class() (*classfile.ClassFile, error) {
	u.insnArena, u.codeArena = u.insnArena[:0], u.codeArena[:0]
	minor, err := u2(u.meta, "minor_version")
	if err != nil {
		return nil, err
	}
	major, err := u2(u.meta, "major_version")
	if err != nil {
		return nil, err
	}
	flags, err := u.meta.Uint()
	if err != nil {
		return nil, err
	}
	this, err := u.classRef()
	if err != nil {
		return nil, err
	}
	var super ir.ClassKey
	if flags&flagHasSuper != 0 {
		if super, err = u.classRef(); err != nil {
			return nil, err
		}
	}
	nIfacesRaw, err := u.meta.Uint()
	if err != nil {
		return nil, err
	}
	nIfaces, err := checkCount(nIfacesRaw, "interface")
	if err != nil {
		return nil, err
	}
	ifaces := make([]ir.ClassKey, nIfaces)
	for i := range ifaces {
		if ifaces[i], err = u.classRef(); err != nil {
			return nil, err
		}
	}
	var inner []dInner
	if flags&flagHasInner != 0 {
		nRaw, err := u.meta.Uint()
		if err != nil {
			return nil, err
		}
		n, err := checkCount(nRaw, "inner class")
		if err != nil {
			return nil, err
		}
		inner = make([]dInner, n)
		for i := range inner {
			if inner[i], err = u.innerEntry(); err != nil {
				return nil, err
			}
		}
	}
	nFieldsRaw, err := u.meta.Uint()
	if err != nil {
		return nil, err
	}
	nFields, err := checkCount(nFieldsRaw, "field")
	if err != nil {
		return nil, err
	}
	fields := make([]dField, nFields)
	for i := range fields {
		if fields[i], err = u.field(); err != nil {
			return nil, err
		}
	}
	nMethodsRaw, err := u.meta.Uint()
	if err != nil {
		return nil, err
	}
	nMethods, err := checkCount(nMethodsRaw, "method")
	if err != nil {
		return nil, err
	}
	methods := make([]dMethod, nMethods)
	for i := range methods {
		if methods[i], err = u.method(); err != nil {
			return nil, err
		}
	}
	return u.build(minor, major, flags, this, super, ifaces, inner, fields, methods)
}

func (u *unpacker) innerEntry() (dInner, error) {
	var e dInner
	flags, err := u.meta.Uint()
	if err != nil {
		return e, err
	}
	e.access = uint16(flags)
	if e.inner, err = u.classRef(); err != nil {
		return e, err
	}
	if flags&flagInnerHasOuter != 0 {
		e.hasOuter = true
		if e.outer, err = u.classRef(); err != nil {
			return e, err
		}
	}
	if flags&flagInnerHasName != 0 {
		e.hasName = true
		if e.name, err = u.simpleRef(); err != nil {
			return e, err
		}
	}
	return e, nil
}

func (u *unpacker) field() (dField, error) {
	var f dField
	var err error
	if f.flags, err = u.meta.Uint(); err != nil {
		return f, err
	}
	if f.name, err = u.fieldNameRef(); err != nil {
		return f, err
	}
	if f.typ, err = u.classRef(); err != nil {
		return f, err
	}
	if f.flags&flagHasConst != 0 {
		f.hasConst = true
		if f.cv, err = u.constValue(ir.KeyToType(f.typ)); err != nil {
			return f, err
		}
	}
	return f, nil
}

func (u *unpacker) constValue(t classfile.Type) (dConst, error) {
	var c dConst
	c.kind = constKindForType(t)
	var err error
	switch c.kind {
	case classfile.KindInteger:
		var v int64
		if v, err = u.r.Stream(sIntCV).Int(); err == nil {
			c.i = int32(v)
		}
	case classfile.KindFloat:
		c.f, err = u.readF32()
	case classfile.KindLong:
		c.l, err = u.r.Stream(sLong).Int()
	case classfile.KindDouble:
		c.d, err = u.readF64()
	case classfile.KindString:
		c.s, err = u.stringConstRef()
	default:
		err = corrupt.Errorf(sMeta, -1, "field type %s cannot carry a constant", t)
	}
	return c, err
}

func (u *unpacker) method() (dMethod, error) {
	var m dMethod
	var err error
	if m.flags, err = u.meta.Uint(); err != nil {
		return m, err
	}
	if m.name, err = u.methodNameRef(); err != nil {
		return m, err
	}
	if m.sig, err = u.sigRef(); err != nil {
		return m, err
	}
	nExcRaw, err := u.meta.Uint()
	if err != nil {
		return m, err
	}
	nExc, err := checkCount(nExcRaw, "exception")
	if err != nil {
		return m, err
	}
	m.exceptions = make([]ir.ClassKey, nExc)
	for i := range m.exceptions {
		if m.exceptions[i], err = u.classRef(); err != nil {
			return m, err
		}
	}
	if m.flags&flagHasCode != 0 {
		if m.code, err = u.code(); err != nil {
			return m, fmt.Errorf("method %s: %w", m.name, err)
		}
	}
	return m, nil
}

func (u *unpacker) code() (*dCode, error) {
	c := &dCode{}
	maxes := u.r.Stream(sMaxes)
	var err error
	if c.maxStack, err = u2(maxes, "max_stack"); err != nil {
		return nil, err
	}
	if c.maxLocals, err = u2(maxes, "max_locals"); err != nil {
		return nil, err
	}
	nHandlersRaw, err := u.meta.Uint()
	if err != nil {
		return nil, err
	}
	nHandlers, err := checkCount(nHandlersRaw, "handler")
	if err != nil {
		return nil, err
	}
	hs := u.r.Stream(sHandler)
	c.handlers = make([]dHandler, nHandlers)
	handlerOffsets := u.hoffs[:0]
	for i := range c.handlers {
		h := &c.handlers[i]
		for _, p := range []*int{&h.start, &h.end, &h.handler} {
			v, err := u2(hs, "handler pc")
			if err != nil {
				return nil, err
			}
			*p = int(v)
		}
		flag, err := hs.ReadByte()
		if err != nil {
			return nil, err
		}
		if flag == 1 {
			h.hasCatch = true
			if h.catch, err = u.classRef(); err != nil {
				return nil, err
			}
		}
		handlerOffsets = append(handlerOffsets, h.handler)
	}
	v, err := u.meta.Uint()
	if err != nil {
		return nil, err
	}
	// Bound before narrowing to int, so a 64-bit length can neither
	// wrap negative nor size the decode loop.
	if v > 1<<26 {
		return nil, corrupt.TooLarge(sMeta, -1, "code length %d implausible", v)
	}
	c.codeLen = int(v)
	u.hoffs = handlerOffsets
	var sim *stackstate.Sim
	if u.opts.StackState {
		// Reset copies handlerOffsets, so the u.hoffs scratch can be
		// reused by the next method without corrupting the simulation.
		if u.sim == nil {
			u.sim = stackstate.New(nil, handlerOffsets)
		} else {
			u.sim.Reset(nil, handlerOffsets)
		}
		sim = u.sim
	}
	start := len(u.insnArena)
	pos := 0
	for pos < c.codeLen {
		di, next, err := u.insn(pos, sim)
		if err != nil {
			return nil, fmt.Errorf("at offset %d: %w", pos, err)
		}
		u.insnArena = append(u.insnArena, di)
		pos = next
	}
	if pos != c.codeLen {
		return nil, corrupt.Errorf(sOpcodes, -1, "instructions end at %d, code length %d", pos, c.codeLen)
	}
	end := len(u.insnArena)
	c.insns = u.insnArena[start:end:end]
	return c, nil
}

// ldcFromPseudo maps a typed wire opcode back to the source instruction
// and the constant kind it loads.
func ldcFromPseudo(wire bytecode.Op) (op bytecode.Op, kind classfile.ConstKind, ok bool) {
	switch wire {
	case opLdcInt:
		return bytecode.Ldc, classfile.KindInteger, true
	case opLdcFloat:
		return bytecode.Ldc, classfile.KindFloat, true
	case opLdcString:
		return bytecode.Ldc, classfile.KindString, true
	case opLdcWInt:
		return bytecode.LdcW, classfile.KindInteger, true
	case opLdcWFloat:
		return bytecode.LdcW, classfile.KindFloat, true
	case opLdcWString:
		return bytecode.LdcW, classfile.KindString, true
	case opLdc2Long:
		return bytecode.Ldc2W, classfile.KindLong, true
	case opLdc2Double:
		return bytecode.Ldc2W, classfile.KindDouble, true
	}
	return 0, 0, false
}

func (u *unpacker) insn(pos int, sim *stackstate.Sim) (dInsn, int, error) {
	if sim != nil {
		sim.Begin(pos)
	}
	var di dInsn
	di.in.Offset = pos
	wireByte, err := u.r.Stream(sOpcodes).ReadByte()
	if err != nil {
		return di, 0, err
	}
	wire := bytecode.Op(wireByte)
	var ldcKind classfile.ConstKind
	if op, kind, ok := ldcFromPseudo(wire); ok {
		di.isLdc = true
		di.in.Op = op
		ldcKind = kind
	} else if int(wire) >= numWireOps {
		return di, 0, corrupt.Errorf(sOpcodes, -1, "invalid wire opcode 0x%02x", wireByte)
	} else if sim != nil {
		di.in.Op = sim.SourceOp(wire)
	} else {
		di.in.Op = wire
	}

	ctx := 0
	if sim != nil {
		ctx = sim.ContextID()
	}
	var info stackstate.OpInfo
	switch bytecode.FormatOf(di.in.Op) {
	case bytecode.FmtNone:
	case bytecode.FmtLocal:
		if err := u.readReg(&di.in, false); err != nil {
			return di, 0, err
		}
	case bytecode.FmtIinc:
		if err := u.readReg(&di.in, true); err != nil {
			return di, 0, err
		}
	case bytecode.FmtSByte:
		if di.in.A, err = signed(u.r.Stream(sIntImm), 8); err != nil {
			return di, 0, err
		}
	case bytecode.FmtSShort:
		if di.in.A, err = signed(u.r.Stream(sIntImm), 16); err != nil {
			return di, 0, err
		}
	case bytecode.FmtCP1, bytecode.FmtCP2:
		if di.isLdc {
			if err := u.ldcValue(&di, ldcKind); err != nil {
				return di, 0, err
			}
			info.HasConst = true
			info.Const = constStackKind(ldcKind)
			break
		}
		if err := u.cpOperand(&di, ctx, &info); err != nil {
			return di, 0, err
		}
	case bytecode.FmtInvokeInterface:
		di.hasUse = true
		di.use = useInterface
		if di.member, err = u.memberRef(useInterface, ctx); err != nil {
			return di, 0, err
		}
		e, err := u.methodSig(di.member.Desc)
		if err != nil {
			return di, 0, err
		}
		di.in.B = e.argSlots + 1
		info.HasMethod = true
		info.Params, info.Ret = e.params, e.ret
	case bytecode.FmtMultiANewArray:
		if di.class, err = u.classRef(); err != nil {
			return di, 0, err
		}
		dims, err := u.r.Stream(sMiscOp).ReadByte()
		if err != nil {
			return di, 0, err
		}
		di.in.B = int(dims)
	case bytecode.FmtNewArray:
		atype, err := u.r.Stream(sMiscOp).ReadByte()
		if err != nil {
			return di, 0, err
		}
		di.in.A = int(atype)
	case bytecode.FmtBranch2, bytecode.FmtBranch4:
		bits := uint(16)
		if bytecode.FormatOf(di.in.Op) == bytecode.FmtBranch4 {
			bits = 32
		}
		rel, err := signed(u.r.Stream(sBranch), bits)
		if err != nil {
			return di, 0, err
		}
		di.in.A = pos + rel
	case bytecode.FmtTableSwitch:
		sw := u.r.Stream(sSwitch)
		def, err := signed(sw, 32)
		if err != nil {
			return di, 0, err
		}
		low, err := signed(sw, 32)
		if err != nil {
			return di, 0, err
		}
		n, err := sw.Uint()
		if err != nil {
			return di, 0, err
		}
		if n > 1<<20 {
			return di, 0, corrupt.TooLarge(sSwitch, -1, "tableswitch with %d targets", n)
		}
		// The class file stores low and high = low+n-1 as s4s, and the
		// JVM requires low <= high.
		if n == 0 || int64(low)+int64(n)-1 > math.MaxInt32 {
			return di, 0, corrupt.Errorf(sSwitch, -1, "tableswitch low %d with %d targets", low, n)
		}
		di.in.Default = pos + def
		di.in.Low = int32(low)
		di.in.High = int32(int64(low) + int64(n) - 1)
		di.in.Targets = make([]int, n)
		for i := range di.in.Targets {
			rel, err := signed(sw, 32)
			if err != nil {
				return di, 0, err
			}
			di.in.Targets[i] = pos + rel
		}
	case bytecode.FmtLookupSwitch:
		sw := u.r.Stream(sSwitch)
		def, err := signed(sw, 32)
		if err != nil {
			return di, 0, err
		}
		n, err := sw.Uint()
		if err != nil {
			return di, 0, err
		}
		if n > 1<<20 {
			return di, 0, corrupt.TooLarge(sSwitch, -1, "lookupswitch with %d pairs", n)
		}
		di.in.Default = pos + def
		di.in.Keys = make([]int32, n)
		for i := range di.in.Keys {
			if i == 0 {
				k, err := signed(sw, 32)
				if err != nil {
					return di, 0, err
				}
				di.in.Keys[0] = int32(k)
				continue
			}
			// Keys ascend strictly and stay within int32: the encoder
			// writes positive deltas, and a wrapped key would unpack as
			// an unsorted (and so unverifiable) lookupswitch.
			diff, err := sw.Uint()
			if err != nil {
				return di, 0, err
			}
			prev := int64(di.in.Keys[i-1])
			if diff == 0 || diff > uint64(math.MaxInt32-prev) {
				return di, 0, corrupt.Errorf(sSwitch, -1, "lookupswitch key delta %d after key %d", diff, prev)
			}
			di.in.Keys[i] = int32(prev + int64(diff))
		}
		di.in.Targets = make([]int, n)
		for i := range di.in.Targets {
			rel, err := signed(sw, 32)
			if err != nil {
				return di, 0, err
			}
			di.in.Targets[i] = pos + rel
		}
	default:
		return di, 0, corrupt.Errorf(sOpcodes, -1, "cannot unpack opcode %s", di.in.Op)
	}

	if sim != nil {
		sim.StepInfo(&di.in, info)
	}
	return di, pos + di.in.Size(), nil
}

// u2 reads an unsigned value that the class file stores as a u2 field.
// build would narrow a wider value into a plausible wrong one, so it is
// corrupt here.
func u2(s *streams.RStream, field string) (uint16, error) {
	v, err := s.Uint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxUint16 {
		return 0, corrupt.Errorf(s.Name(), -1, "%s %d does not fit u2", field, v)
	}
	return uint16(v), nil
}

// signed reads a zigzag operand that the class file stores as a signed
// field of the given bit width. bytecode.Encode would truncate a wider
// value into a plausible wrong instruction, so it is corrupt here.
func signed(s *streams.RStream, bits uint) (int, error) {
	v, err := s.Int()
	if err != nil {
		return 0, err
	}
	if lim := int64(1) << (bits - 1); v < -lim || v >= lim {
		return 0, corrupt.Errorf(s.Name(), -1, "operand %d does not fit %d bits", v, bits)
	}
	return int(v), nil
}

// constStackKind maps a pool kind to the stack kind ldc pushes.
func constStackKind(k classfile.ConstKind) stackstate.Kind {
	switch k {
	case classfile.KindInteger:
		return stackstate.Int
	case classfile.KindFloat:
		return stackstate.Float
	case classfile.KindString:
		return stackstate.Ref
	case classfile.KindLong:
		return stackstate.Long
	case classfile.KindDouble:
		return stackstate.Double
	}
	return stackstate.Unknown
}

// methodTypes converts a factored signature to the classfile types the
// stack simulation consumes.
func methodTypes(sig ir.Signature) (params []classfile.Type, ret classfile.Type, ok bool) {
	ret = ir.KeyToType(sig[0])
	params = make([]classfile.Type, 0, len(sig)-1)
	for _, k := range sig[1:] {
		params = append(params, ir.KeyToType(k))
	}
	return params, ret, true
}

func (u *unpacker) readReg(in *bytecode.Instruction, iinc bool) error {
	v, err := u.r.Stream(sRegs).Uint()
	if err != nil {
		return err
	}
	// Local slots are u2 even under wide.
	if v>>1 > math.MaxUint16 {
		return corrupt.Errorf(sRegs, -1, "local slot %d out of range", v>>1)
	}
	in.A = int(v >> 1)
	redundantWide := v&1 != 0
	if iinc {
		d, err := signed(u.r.Stream(sIntImm), 16)
		if err != nil {
			return err
		}
		in.B = d
		in.Wide = redundantWide || in.A > 0xff || in.B < -128 || in.B > 127
		return nil
	}
	in.Wide = redundantWide || in.A > 0xff
	return nil
}

func (u *unpacker) ldcValue(di *dInsn, kind classfile.ConstKind) error {
	di.cv.kind = kind
	var err error
	switch kind {
	case classfile.KindInteger:
		var v int64
		if v, err = u.r.Stream(sIntLdc).Int(); err == nil {
			di.cv.i = int32(v)
		}
	case classfile.KindFloat:
		di.cv.f, err = u.readF32()
	case classfile.KindString:
		di.cv.s, err = u.stringConstRef()
	case classfile.KindLong:
		di.cv.l, err = u.r.Stream(sLong).Int()
	case classfile.KindDouble:
		di.cv.d, err = u.readF64()
	}
	return err
}

func (u *unpacker) cpOperand(di *dInsn, ctx int, info *stackstate.OpInfo) error {
	var err error
	switch di.in.Op {
	case bytecode.Getfield, bytecode.Putfield:
		di.hasUse = true
		di.use = useGetfield
		di.member, err = u.memberRef(useGetfield, ctx)
	case bytecode.Getstatic, bytecode.Putstatic:
		di.hasUse = true
		di.use = useGetstatic
		di.member, err = u.memberRef(useGetstatic, ctx)
	case bytecode.Invokevirtual:
		di.hasUse = true
		di.use = useVirtual
		di.member, err = u.memberRef(useVirtual, ctx)
	case bytecode.Invokespecial:
		di.hasUse = true
		di.use = useSpecial
		di.member, err = u.memberRef(useSpecial, ctx)
	case bytecode.Invokestatic:
		di.hasUse = true
		di.use = useStatic
		di.member, err = u.memberRef(useStatic, ctx)
	case bytecode.New, bytecode.Anewarray, bytecode.Checkcast, bytecode.Instanceof:
		di.class, err = u.classRef()
		return err
	default:
		return corrupt.Errorf(sOpcodes, -1, "unexpected constant-pool instruction %s", di.in.Op)
	}
	if err != nil {
		return err
	}
	switch di.use {
	case useGetfield, useGetstatic:
		t, terr := u.fieldInfoType(di.member.Desc)
		if terr != nil {
			return terr
		}
		info.HasField = true
		info.Field = t
	default:
		e, serr := u.methodSig(di.member.Desc)
		if serr != nil {
			return serr
		}
		info.HasMethod = true
		info.Params, info.Ret = e.params, e.ret
	}
	return nil
}

// build converts the decoded class into a canonical classfile.
func (u *unpacker) build(minor, major uint16, flags uint64, this, super ir.ClassKey,
	ifaces []ir.ClassKey, inner []dInner, fields []dField, methods []dMethod) (*classfile.ClassFile, error) {

	b := classfile.NewEmptyBuilder(uint16(flags))
	b.SetThisClass(u.className(this))
	if flags&flagHasSuper != 0 {
		b.SetSuperClass(u.className(super))
	}
	b.CF.MinorVersion = minor
	b.CF.MajorVersion = major
	for _, k := range ifaces {
		b.AddInterface(u.className(k))
	}
	if len(inner) > 0 {
		ic := &classfile.InnerClassesAttr{}
		ic.NameIndex = b.Utf8("InnerClasses")
		for _, e := range inner {
			entry := classfile.InnerClass{
				Inner:       b.Class(u.className(e.inner)),
				AccessFlags: e.access,
			}
			if e.hasOuter {
				entry.Outer = b.Class(u.className(e.outer))
			}
			if e.hasName {
				entry.InnerName = b.Utf8(e.name)
			}
			ic.Entries = append(ic.Entries, entry)
		}
		b.CF.Attrs = append(b.CF.Attrs, ic)
	}
	addFlagAttrs(b, &b.CF.Attrs, flags)

	for _, f := range fields {
		member := b.AddField(uint16(f.flags), f.name, ir.KeyToType(f.typ).String())
		if f.hasConst {
			var idx uint16
			switch f.cv.kind {
			case classfile.KindInteger:
				idx = b.Int(f.cv.i)
			case classfile.KindFloat:
				idx = b.Float(f.cv.f)
			case classfile.KindLong:
				idx = b.Long(f.cv.l)
			case classfile.KindDouble:
				idx = b.Double(f.cv.d)
			case classfile.KindString:
				idx = b.String(f.cv.s)
			}
			b.AttachConstantValue(member, idx)
		}
		addFlagAttrs(b, &member.Attrs, f.flags)
	}

	decoded := u.decoded
	if decoded == nil {
		decoded = make(map[*classfile.CodeAttr][]bytecode.Instruction)
		u.decoded = decoded
	} else {
		clear(decoded)
	}
	for _, m := range methods {
		member := b.AddMethod(uint16(m.flags), m.name, ir.SignatureToDescriptor(m.sig))
		if m.code != nil {
			attr := &classfile.CodeAttr{
				MaxStack:  m.code.maxStack,
				MaxLocals: m.code.maxLocals,
			}
			start := len(u.codeArena)
			for i := range m.code.insns {
				di := &m.code.insns[i]
				in := di.in
				if err := u.resolveOperand(b, di, &in); err != nil {
					return nil, err
				}
				u.codeArena = append(u.codeArena, in)
			}
			end := len(u.codeArena)
			insns := u.codeArena[start:end:end]
			for _, h := range m.code.handlers {
				eh := classfile.ExceptionHandler{
					StartPC:   uint16(h.start),
					EndPC:     uint16(h.end),
					HandlerPC: uint16(h.handler),
				}
				if h.hasCatch {
					eh.CatchType = b.Class(u.className(h.catch))
				}
				attr.Handlers = append(attr.Handlers, eh)
			}
			b.AttachCode(member, attr)
			decoded[attr] = insns
		}
		if len(m.exceptions) > 0 {
			names := make([]string, len(m.exceptions))
			for i, k := range m.exceptions {
				names[i] = u.className(k)
			}
			b.AttachExceptions(member, names)
		}
		addFlagAttrs(b, &member.Attrs, m.flags)
	}

	cf, err := b.Build()
	if err != nil {
		return nil, err
	}
	if err := strip.RenumberWithCodeScratch(cf, decoded, &u.scratch); err != nil {
		return nil, err
	}
	return cf, nil
}

// addFlagAttrs materializes the Synthetic/Deprecated flag bits as
// attributes (the strip normalization fixes their order).
func addFlagAttrs(b *classfile.Builder, attrs *[]classfile.Attribute, flags uint64) {
	if flags&flagSynthetic != 0 {
		a := &classfile.SyntheticAttr{}
		a.NameIndex = b.Utf8("Synthetic")
		*attrs = append(*attrs, a)
	}
	if flags&flagDeprecated != 0 {
		a := &classfile.DeprecatedAttr{}
		a.NameIndex = b.Utf8("Deprecated")
		*attrs = append(*attrs, a)
	}
}

// resolveOperand interns the decoded symbolic operand and patches the
// instruction's constant-pool index.
func (u *unpacker) resolveOperand(b *classfile.Builder, di *dInsn, in *bytecode.Instruction) error {
	switch {
	case di.isLdc:
		var idx uint16
		switch di.cv.kind {
		case classfile.KindInteger:
			idx = b.Int(di.cv.i)
		case classfile.KindFloat:
			idx = b.Float(di.cv.f)
		case classfile.KindString:
			idx = b.String(di.cv.s)
		case classfile.KindLong:
			idx = b.Long(di.cv.l)
		case classfile.KindDouble:
			idx = b.Double(di.cv.d)
		}
		in.A = int(idx)
	case di.hasUse:
		owner := u.className(di.member.Owner)
		switch di.member.Kind {
		case classfile.KindFieldref:
			in.A = int(b.Fieldref(owner, di.member.Name, di.member.Desc))
		case classfile.KindInterfaceMethodref:
			in.A = int(b.InterfaceMethodref(owner, di.member.Name, di.member.Desc))
		default:
			in.A = int(b.Methodref(owner, di.member.Name, di.member.Desc))
		}
	case bytecode.IsCPRef(in.Op):
		in.A = int(b.Class(u.className(di.class)))
	}
	return nil
}
