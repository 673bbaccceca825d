package core

import (
	"encoding/binary"
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

// Intermediate decoded structures. The decode stage fills a dClass with
// symbolic operands; build then interns them into a constant pool,
// canonicalized by the strip renumbering so output matches the encoder's
// input byte-for-byte. Class and member operands point to the
// unpacker's immutable cache entries, so a dClass can be built on
// another goroutine while the decoder reads on.

type dConst struct {
	kind classfile.ConstKind
	i    int32
	f    float32
	l    int64
	d    float64
	s    string
}

type dInner struct {
	inner   *classEntry
	outer   *classEntry // nil when the entry has no outer class
	hasName bool
	name    string
	access  uint16
}

type dField struct {
	flags    uint64
	name     string
	typ      *classEntry
	hasConst bool
	cv       dConst
}

type dHandler struct {
	start, end, handler int
	catch               *classEntry // nil for a catch-all handler
}

// dInsn is one decoded instruction and its symbolic operand. It is kept
// small because the decode stage holds every instruction of a class in
// each pipeline slot's arena.
type dInsn struct {
	in     bytecode.Instruction
	member *memberEntry // field and method instructions
	class  *classEntry  // new, anewarray, checkcast, instanceof, multianewarray
	ldc    int32        // ldc family: 1 + the constant's index in dClass.consts
}

type dCode struct {
	maxStack, maxLocals uint16
	handlers            []dHandler
	insns               []dInsn
}

type dMethod struct {
	flags      uint64
	name       string
	sig        ir.Signature
	exceptions []*classEntry
	hasCode    bool
	code       dCode
}

// dClass is one decoded class, held in a pipeline slot from decode until
// visit. Its slices are arenas the slot reuses for every class it
// carries. Methods take capped views (a[start:end:end]) of the shared
// ones, so a later append never writes into a finished method.
type dClass struct {
	ord          int // the class's ordinal in its container body
	minor, major uint16
	flags        uint64
	this, super  *classEntry
	ifaces       []*classEntry
	inner        []dInner
	fields       []dField
	methods      []dMethod

	// Arenas shared by the methods.
	classes  []*classEntry // exception lists
	handlers []dHandler
	insns    []dInsn
	consts   []dConst // ldc operands

	cf *classfile.ClassFile // build's result, until visit takes it
}

// maxCount bounds decoded element counts; anything larger is a corrupt
// archive.
const maxCount = 1 << 20

// count reads one element count from int.meta and holds it to maxCount.
func (u *unpacker) count(what string) (int, error) {
	n, err := u.st[sMeta].Uint()
	if err != nil {
		return 0, err
	}
	if n > maxCount {
		return 0, corrupt.TooLarge(sMeta.String(), -1, "implausible %s count %d", what, n)
	}
	return int(n), nil
}

// class decodes the next class into d, reusing d's arenas.
func (u *unpacker) class(d *dClass) error {
	d.super = nil
	d.ifaces, d.inner, d.fields, d.methods = d.ifaces[:0], d.inner[:0], d.fields[:0], d.methods[:0]
	d.classes, d.handlers, d.insns, d.consts = d.classes[:0], d.handlers[:0], d.insns[:0], d.consts[:0]
	var err error
	if d.minor, err = u2(u.st[sMeta], "minor_version"); err != nil {
		return err
	}
	if d.major, err = u2(u.st[sMeta], "major_version"); err != nil {
		return err
	}
	if d.flags, err = u.st[sMeta].Uint(); err != nil {
		return err
	}
	if d.this, err = u.classRef(); err != nil {
		return err
	}
	if d.flags&flagHasSuper != 0 {
		if d.super, err = u.classRef(); err != nil {
			return err
		}
	}
	nIfaces, err := u.count("interface")
	if err != nil {
		return err
	}
	for i := 0; i < nIfaces; i++ {
		e, err := u.classRef()
		if err != nil {
			return err
		}
		d.ifaces = append(d.ifaces, e)
	}
	if d.flags&flagHasInner != 0 {
		n, err := u.count("inner class")
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			e, err := u.innerEntry()
			if err != nil {
				return err
			}
			d.inner = append(d.inner, e)
		}
	}
	nFields, err := u.count("field")
	if err != nil {
		return err
	}
	for i := 0; i < nFields; i++ {
		f, err := u.field()
		if err != nil {
			return err
		}
		d.fields = append(d.fields, f)
	}
	nMethods, err := u.count("method")
	if err != nil {
		return err
	}
	for i := 0; i < nMethods; i++ {
		m, err := u.method(d)
		if err != nil {
			return err
		}
		d.methods = append(d.methods, m)
	}
	return nil
}

func (u *unpacker) innerEntry() (dInner, error) {
	var e dInner
	flags, err := u.st[sMeta].Uint()
	if err != nil {
		return e, err
	}
	e.access = uint16(flags)
	if e.inner, err = u.classRef(); err != nil {
		return e, err
	}
	if flags&flagInnerHasOuter != 0 {
		if e.outer, err = u.classRef(); err != nil {
			return e, err
		}
	}
	if flags&flagInnerHasName != 0 {
		e.hasName = true
		if e.name, err = u.strRef(catCls); err != nil {
			return e, err
		}
	}
	return e, nil
}

func (u *unpacker) field() (dField, error) {
	var f dField
	var err error
	if f.flags, err = u.st[sMeta].Uint(); err != nil {
		return f, err
	}
	if f.name, err = u.strRef(catFname); err != nil {
		return f, err
	}
	if f.typ, err = u.classRef(); err != nil {
		return f, err
	}
	if f.flags&flagHasConst != 0 {
		f.hasConst = true
		t := ir.KeyToType(f.typ.key)
		kind := classfile.ConstKindForType(t)
		if kind == classfile.KindInvalid {
			return f, corrupt.Errorf(sMeta.String(), -1, "field type %s cannot carry a constant", t)
		}
		if f.cv, err = u.constant(kind, sIntCV); err != nil {
			return f, err
		}
	}
	return f, nil
}

// constant decodes the value of a loadable constant of the given kind
// from its value stream; ints is the stream an int comes from (see
// packer.constant).
func (u *unpacker) constant(kind classfile.ConstKind, ints streamID) (dConst, error) {
	c := dConst{kind: kind}
	var err error
	var v int
	var raw []byte
	switch kind {
	case classfile.KindInteger:
		v, err = signed(u.st[ints], 32)
		c.i = int32(v)
	case classfile.KindLong:
		c.l, err = u.st[sLong].Int()
	case classfile.KindFloat:
		if raw, err = u.st[sFloat].Raw(4); err == nil {
			c.f = math.Float32frombits(binary.BigEndian.Uint32(raw))
		}
	case classfile.KindDouble:
		if raw, err = u.st[sDouble].Raw(8); err == nil {
			c.d = math.Float64frombits(binary.BigEndian.Uint64(raw))
		}
	case classfile.KindString:
		c.s, err = u.strRef(catStr)
	}
	return c, err
}

func (u *unpacker) method(d *dClass) (dMethod, error) {
	var m dMethod
	var err error
	if m.flags, err = u.st[sMeta].Uint(); err != nil {
		return m, err
	}
	if m.name, err = u.strRef(catMname); err != nil {
		return m, err
	}
	if m.sig, err = u.sigRef(); err != nil {
		return m, err
	}
	nExc, err := u.count("exception")
	if err != nil {
		return m, err
	}
	start := len(d.classes)
	for i := 0; i < nExc; i++ {
		e, err := u.classRef()
		if err != nil {
			return m, err
		}
		d.classes = append(d.classes, e)
	}
	end := len(d.classes)
	m.exceptions = d.classes[start:end:end]
	if m.flags&flagHasCode != 0 {
		m.hasCode = true
		if err = u.code(d, &m.code); err != nil {
			return m, fmt.Errorf("method %s: %w", m.name, err)
		}
	}
	return m, nil
}

func (u *unpacker) code(d *dClass, c *dCode) error {
	var err error
	if c.maxStack, err = u2(u.st[sMaxes], "max_stack"); err != nil {
		return err
	}
	if c.maxLocals, err = u2(u.st[sMaxes], "max_locals"); err != nil {
		return err
	}
	nHandlers, err := u.count("handler")
	if err != nil {
		return err
	}
	hstart := len(d.handlers)
	handlerOffsets := u.hoffs[:0]
	for i := 0; i < nHandlers; i++ {
		var h dHandler
		for _, p := range []*int{&h.start, &h.end, &h.handler} {
			v, err := u2(u.st[sHandler], "handler pc")
			if err != nil {
				return err
			}
			*p = int(v)
		}
		flag, err := u.st[sHandler].ReadByte()
		if err != nil {
			return err
		}
		if flag == 1 {
			if h.catch, err = u.classRef(); err != nil {
				return err
			}
		}
		d.handlers = append(d.handlers, h)
		handlerOffsets = append(handlerOffsets, h.handler)
	}
	hend := len(d.handlers)
	c.handlers = d.handlers[hstart:hend:hend]
	v, err := u.st[sMeta].Uint()
	if err != nil {
		return err
	}
	// Bound before narrowing to int, so a 64-bit length can neither
	// wrap negative nor size the decode loop.
	if v > 1<<26 {
		return corrupt.TooLarge(sMeta.String(), -1, "code length %d implausible", v)
	}
	codeLen := int(v)
	u.hoffs = handlerOffsets
	var sim *stackstate.Sim
	if u.opts.StackState {
		// Reset copies handlerOffsets, so the u.hoffs scratch can be
		// reused by the next method without corrupting the simulation.
		if u.sim == nil {
			u.sim = stackstate.New(handlerOffsets)
		} else {
			u.sim.Reset(handlerOffsets)
		}
		sim = u.sim
	}
	start := len(d.insns)
	pos := 0
	for pos < codeLen {
		d.insns = append(d.insns, dInsn{})
		next, err := u.insn(d, &d.insns[len(d.insns)-1], pos, sim)
		if err != nil {
			return fmt.Errorf("at offset %d: %w", pos, err)
		}
		pos = next
	}
	if pos != codeLen {
		return corrupt.Errorf(sOpcodes.String(), -1, "instructions end at %d, code length %d", pos, codeLen)
	}
	end := len(d.insns)
	c.insns = d.insns[start:end:end]
	for i, h := range c.handlers {
		err := bytecode.CheckHandler(h.start, h.end, h.handler, codeLen, len(c.insns),
			func(k int) int { return c.insns[k].in.Offset })
		if err != nil {
			return corrupt.New(sHandler.String(), -1, fmt.Errorf("exception handler %d: %w", i, err))
		}
	}
	return nil
}

// insn decodes the instruction at pos into di, a zeroed slot of d's
// instruction arena, and returns the offset of the next one.
func (u *unpacker) insn(d *dClass, di *dInsn, pos int, sim *stackstate.Sim) (int, error) {
	if sim != nil {
		sim.Begin(pos)
	}
	di.in.Offset = pos
	wireByte, err := u.st[sOpcodes].ReadByte()
	if err != nil {
		return 0, err
	}
	wire := bytecode.Op(wireByte)
	var ldcKind classfile.ConstKind // set for the ldc pseudo-opcodes only
	switch {
	case int(wire) >= numWireOps:
		return 0, corrupt.Errorf(sOpcodes.String(), -1, "invalid wire opcode 0x%02x", wireByte)
	case wire >= opLdc:
		di.in.Op, ldcKind = ldcOps[wire-opLdc].op, ldcOps[wire-opLdc].kind
	case sim != nil:
		di.in.Op = sim.SourceOp(wire)
	default:
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
			return 0, err
		}
	case bytecode.FmtIinc:
		if err := u.readReg(&di.in, true); err != nil {
			return 0, err
		}
	case bytecode.FmtSByte:
		if di.in.A, err = signed(u.st[sIntImm], 8); err != nil {
			return 0, err
		}
	case bytecode.FmtSShort:
		if di.in.A, err = signed(u.st[sIntImm], 16); err != nil {
			return 0, err
		}
	case bytecode.FmtCP1, bytecode.FmtCP2:
		if ldcKind != classfile.KindInvalid {
			c, err := u.constant(ldcKind, sIntLdc)
			if err != nil {
				return 0, err
			}
			d.consts = append(d.consts, c)
			di.ldc = int32(len(d.consts))
			info = stackstate.ConstInfo(ldcKind)
			break
		}
		if err := u.cpOperand(di, ctx, &info); err != nil {
			return 0, err
		}
	case bytecode.FmtInvokeInterface:
		if di.member, err = u.memberRef(useInterface, ctx); err != nil {
			return 0, err
		}
		di.in.B = di.member.desc.method.argSlots + 1
		info = di.member.desc.info()
	case bytecode.FmtMultiANewArray:
		if di.class, err = u.classRef(); err != nil {
			return 0, err
		}
		dims, err := u.st[sMiscOp].ReadByte()
		if err != nil {
			return 0, err
		}
		di.in.B = int(dims)
	case bytecode.FmtNewArray:
		atype, err := u.st[sMiscOp].ReadByte()
		if err != nil {
			return 0, err
		}
		di.in.A = int(atype)
	case bytecode.FmtBranch2, bytecode.FmtBranch4:
		bits := uint(16)
		if bytecode.FormatOf(di.in.Op) == bytecode.FmtBranch4 {
			bits = 32
		}
		rel, err := signed(u.st[sBranch], bits)
		if err != nil {
			return 0, err
		}
		di.in.A = pos + rel
	case bytecode.FmtTableSwitch:
		sw := u.st[sSwitch]
		def, err := signed(sw, 32)
		if err != nil {
			return 0, err
		}
		low, err := signed(sw, 32)
		if err != nil {
			return 0, err
		}
		n, err := sw.Uint()
		if err != nil {
			return 0, err
		}
		if n > 1<<20 {
			return 0, corrupt.TooLarge(sSwitch.String(), -1, "tableswitch with %d targets", n)
		}
		// The class file stores low and high = low+n-1 as s4s, and the
		// JVM requires low <= high.
		if n == 0 || int64(low)+int64(n)-1 > math.MaxInt32 {
			return 0, corrupt.Errorf(sSwitch.String(), -1, "tableswitch low %d with %d targets", low, n)
		}
		di.in.Default = pos + def
		di.in.Low = int32(low)
		di.in.High = int32(int64(low) + int64(n) - 1)
		di.in.Targets = make([]int, n)
		for i := range di.in.Targets {
			rel, err := signed(sw, 32)
			if err != nil {
				return 0, err
			}
			di.in.Targets[i] = pos + rel
		}
	case bytecode.FmtLookupSwitch:
		sw := u.st[sSwitch]
		def, err := signed(sw, 32)
		if err != nil {
			return 0, err
		}
		n, err := sw.Uint()
		if err != nil {
			return 0, err
		}
		if n > 1<<20 {
			return 0, corrupt.TooLarge(sSwitch.String(), -1, "lookupswitch with %d pairs", n)
		}
		di.in.Default = pos + def
		di.in.Keys = make([]int32, n)
		for i := range di.in.Keys {
			if i == 0 {
				k, err := signed(sw, 32)
				if err != nil {
					return 0, err
				}
				di.in.Keys[0] = int32(k)
				continue
			}
			// Keys ascend strictly and stay within int32: the encoder
			// writes positive deltas, and a wrapped key would unpack as
			// an unsorted (and so unverifiable) lookupswitch.
			diff, err := sw.Uint()
			if err != nil {
				return 0, err
			}
			prev := int64(di.in.Keys[i-1])
			if diff == 0 || diff > uint64(math.MaxInt32-prev) {
				return 0, corrupt.Errorf(sSwitch.String(), -1, "lookupswitch key delta %d after key %d", diff, prev)
			}
			di.in.Keys[i] = int32(prev + int64(diff))
		}
		di.in.Targets = make([]int, n)
		for i := range di.in.Targets {
			rel, err := signed(sw, 32)
			if err != nil {
				return 0, err
			}
			di.in.Targets[i] = pos + rel
		}
	default:
		return 0, corrupt.Errorf(sOpcodes.String(), -1, "cannot unpack opcode %s", di.in.Op)
	}

	if sim != nil {
		sim.StepInfo(&di.in, info)
	}
	return pos + di.in.Size(), nil
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

func (u *unpacker) readReg(in *bytecode.Instruction, iinc bool) error {
	v, err := u.st[sRegs].Uint()
	if err != nil {
		return err
	}
	// Local slots are u2 even under wide.
	if v>>1 > math.MaxUint16 {
		return corrupt.Errorf(sRegs.String(), -1, "local slot %d out of range", v>>1)
	}
	in.A = int(v >> 1)
	redundantWide := v&1 != 0
	if iinc {
		delta, err := signed(u.st[sIntImm], 16)
		if err != nil {
			return err
		}
		in.B = delta
		in.Wide = redundantWide || in.A > 0xff || in.B < -128 || in.B > 127
		return nil
	}
	in.Wide = redundantWide || in.A > 0xff
	return nil
}

func (u *unpacker) cpOperand(di *dInsn, ctx int, info *stackstate.OpInfo) error {
	var err error
	switch di.in.Op {
	case bytecode.New, bytecode.Anewarray, bytecode.Checkcast, bytecode.Instanceof:
		di.class, err = u.classRef()
		return err
	}
	use, ok := useOf(di.in.Op)
	if !ok {
		return corrupt.Errorf(sOpcodes.String(), -1, "unexpected constant-pool instruction %s", di.in.Op)
	}
	if di.member, err = u.memberRef(use, ctx); err != nil {
		return err
	}
	*info = di.member.desc.info()
	return nil
}

// builder is one build worker's scratch, reused across the classes it
// builds: code holds the resolved instructions of every method of the
// class, handed to renumber through decoded. Nothing outlives the class:
// renumber re-encodes the code without keeping a reference, and the
// returned ClassFile aliases neither this scratch nor the dClass.
type builder struct {
	code    []bytecode.Instruction
	decoded map[*classfile.CodeAttr][]bytecode.Instruction
	scratch strip.Scratch
}

// build converts a decoded class into a canonical classfile. It reads
// only d and the immutable cache entries d points to.
func (w *builder) build(d *dClass) (*classfile.ClassFile, error) {
	w.code = w.code[:0]
	b := classfile.NewEmptyBuilder(uint16(d.flags))
	b.SetThisClass(d.this.name)
	if d.flags&flagHasSuper != 0 {
		b.SetSuperClass(d.super.name)
	}
	b.CF.MinorVersion = d.minor
	b.CF.MajorVersion = d.major
	for _, e := range d.ifaces {
		b.AddInterface(e.name)
	}
	if len(d.inner) > 0 {
		ic := &classfile.InnerClassesAttr{}
		ic.NameIndex = b.Utf8("InnerClasses")
		for _, e := range d.inner {
			entry := classfile.InnerClass{
				Inner:       b.Class(e.inner.name),
				AccessFlags: e.access,
			}
			if e.outer != nil {
				entry.Outer = b.Class(e.outer.name)
			}
			if e.hasName {
				entry.InnerName = b.Utf8(e.name)
			}
			ic.Entries = append(ic.Entries, entry)
		}
		b.CF.Attrs = append(b.CF.Attrs, ic)
	}
	addFlagAttrs(b, &b.CF.Attrs, d.flags)

	for _, f := range d.fields {
		member := b.AddField(uint16(f.flags), f.name, ir.KeyToType(f.typ.key).String())
		if f.hasConst {
			b.AttachConstantValue(member, internConst(b, &f.cv))
		}
		addFlagAttrs(b, &member.Attrs, f.flags)
	}

	if w.decoded == nil {
		w.decoded = make(map[*classfile.CodeAttr][]bytecode.Instruction)
	} else {
		clear(w.decoded)
	}
	for i := range d.methods {
		m := &d.methods[i]
		member := b.AddMethod(uint16(m.flags), m.name, ir.SignatureToDescriptor(m.sig))
		if m.hasCode {
			attr := &classfile.CodeAttr{
				MaxStack:  m.code.maxStack,
				MaxLocals: m.code.maxLocals,
			}
			start := len(w.code)
			for k := range m.code.insns {
				w.code = append(w.code, resolveOperand(b, d, &m.code.insns[k]))
			}
			end := len(w.code)
			for _, h := range m.code.handlers {
				eh := classfile.ExceptionHandler{
					StartPC:   uint16(h.start),
					EndPC:     uint16(h.end),
					HandlerPC: uint16(h.handler),
				}
				if h.catch != nil {
					eh.CatchType = b.Class(h.catch.name)
				}
				attr.Handlers = append(attr.Handlers, eh)
			}
			b.AttachCode(member, attr)
			w.decoded[attr] = w.code[start:end:end]
		}
		if len(m.exceptions) > 0 {
			names := make([]string, len(m.exceptions))
			for k, e := range m.exceptions {
				names[k] = e.name
			}
			b.AttachExceptions(member, names)
		}
		addFlagAttrs(b, &member.Attrs, m.flags)
	}

	cf, err := b.Build()
	if err != nil {
		return nil, err
	}
	if err := strip.Renumber(cf, w.decoded, &w.scratch); err != nil {
		return nil, err
	}
	return cf, nil
}

// addFlagAttrs materializes the Synthetic/Deprecated flag bits as
// attributes (the strip normalization fixes their order).
func addFlagAttrs(b *classfile.Builder, attrs *[]classfile.Attribute, flags uint64) {
	b.AttachMarks(attrs, flags&flagSynthetic != 0, flags&flagDeprecated != 0)
}

// internConst interns a constant value and returns its pool index.
func internConst(b *classfile.Builder, c *dConst) uint16 {
	switch c.kind {
	case classfile.KindInteger:
		return b.Int(c.i)
	case classfile.KindFloat:
		return b.Float(c.f)
	case classfile.KindLong:
		return b.Long(c.l)
	case classfile.KindDouble:
		return b.Double(c.d)
	case classfile.KindString:
		return b.String(c.s)
	}
	return 0
}

// resolveOperand interns a decoded instruction's symbolic operand and
// returns the instruction with its constant-pool index patched in.
func resolveOperand(b *classfile.Builder, d *dClass, di *dInsn) bytecode.Instruction {
	in := di.in
	switch {
	case di.ldc != 0:
		in.A = int(internConst(b, &d.consts[di.ldc-1]))
	case di.member != nil:
		m := &di.member.ref
		switch m.Kind {
		case classfile.KindFieldref:
			in.A = int(b.Fieldref(di.member.owner, m.Name, m.Desc))
		case classfile.KindInterfaceMethodref:
			in.A = int(b.InterfaceMethodref(di.member.owner, m.Name, m.Desc))
		default:
			in.A = int(b.Methodref(di.member.owner, m.Name, m.Desc))
		}
	case di.class != nil:
		in.A = int(b.Class(di.class.name))
	}
	return in
}
