package core

import (
	"fmt"
	"strconv"
	"unicode/utf8"

	"classpack/internal/bytecode"
	"classpack/internal/classfile"
	"classpack/internal/ir"
	"classpack/internal/par"
	"classpack/internal/refs"
	"classpack/internal/stackstate"
	"classpack/internal/streams"
)

// Canonical pool keys. Keys only need to be unique within their pool and
// identical in both directions. The append builders replicate
// the historical fmt verb output byte-for-byte: the keys are move-to-front
// identities, so any drift would change packed archives.

// appendClassKey appends the canonical key of k:
// "<dims>\x00<prim+1 as rune>\x00<pkg>\x00<simple>".
func appendClassKey(dst []byte, k ir.ClassKey) []byte {
	dst = strconv.AppendInt(dst, int64(k.Dims), 10)
	dst = append(dst, 0)
	dst = utf8.AppendRune(dst, rune(k.Prim)+1)
	dst = append(dst, 0)
	dst = append(dst, k.Pkg...)
	dst = append(dst, 0)
	return append(dst, k.Simple...)
}

// appendMemberKey appends the canonical key of m:
// "<ownerKey>\x01<name>\x01<desc>".
func appendMemberKey(dst []byte, m ir.MemberRef) []byte {
	dst = appendClassKey(dst, m.Owner)
	dst = append(dst, 1)
	dst = append(dst, m.Name...)
	dst = append(dst, 1)
	return append(dst, m.Desc...)
}

func classKeyStr(k ir.ClassKey) string { return string(appendClassKey(nil, k)) }

func memberKeyStr(m ir.MemberRef) string { return string(appendMemberKey(nil, m)) }

// keyCache memoizes pool keys for one walk, which meets the same
// classes and members many times. The comparable IR structs (ClassKey,
// MemberRef) key directly.
type keyCache struct {
	classKeys  map[ir.ClassKey]string
	memberKeys map[ir.MemberRef]string
	kbuf       []byte // scratch for key building
}

func newKeyCache() *keyCache {
	return &keyCache{
		classKeys:  make(map[ir.ClassKey]string),
		memberKeys: make(map[ir.MemberRef]string),
	}
}

func (c *keyCache) classKey(k ir.ClassKey) string {
	if s, ok := c.classKeys[k]; ok {
		return s
	}
	c.kbuf = appendClassKey(c.kbuf[:0], k)
	s := string(c.kbuf)
	c.classKeys[k] = s
	return s
}

func (c *keyCache) memberKey(m ir.MemberRef) string {
	if s, ok := c.memberKeys[m]; ok {
		return s
	}
	c.kbuf = appendMemberKey(c.kbuf[:0], m)
	s := string(c.kbuf)
	c.memberKeys[m] = s
	return s
}

// descs memoizes descriptor parses for one pass over an archive, which
// meets the same descriptors many times. The packer and the decoder both
// take a member's stack facts from it, so their stack simulations read
// the same facts by construction. Entries never change once made.
type descs struct {
	methods map[string]*methodDesc
	fields  map[string]*fieldDesc
}

// methodDesc is a parsed method descriptor: the factored signature, its
// pool key and argument-slot count, and the facts of a call to it.
type methodDesc struct {
	sig      ir.Signature
	key      string
	argSlots int
	info     stackstate.OpInfo
}

// fieldDesc is a parsed field descriptor: the type's class key and the
// facts of an access to it.
type fieldDesc struct {
	key  ir.ClassKey
	info stackstate.OpInfo
}

// memberDesc is a member reference's parsed descriptor: field for a
// Fieldref, method otherwise.
type memberDesc struct {
	field  *fieldDesc
	method *methodDesc
}

func newDescs() descs {
	return descs{methods: make(map[string]*methodDesc), fields: make(map[string]*fieldDesc)}
}

func (c *descs) method(desc string) (*methodDesc, error) {
	if d, ok := c.methods[desc]; ok {
		return d, nil
	}
	sig, err := ir.DescriptorToSignature(desc)
	if err != nil {
		return nil, err
	}
	d := &methodDesc{sig: sig, key: sig.SigString(), argSlots: sig.ArgSlots()}
	d.info.HasMethod, d.info.Ret = true, ir.KeyToType(sig[0])
	d.info.Params = make([]classfile.Type, 0, len(sig)-1)
	for _, k := range sig[1:] {
		d.info.Params = append(d.info.Params, ir.KeyToType(k))
	}
	c.methods[desc] = d
	return d, nil
}

func (c *descs) field(desc string) (*fieldDesc, error) {
	if d, ok := c.fields[desc]; ok {
		return d, nil
	}
	t, err := classfile.ParseFieldDescriptor(desc)
	if err != nil {
		return nil, err
	}
	k := ir.TypeToKey(t)
	d := &fieldDesc{key: k, info: stackstate.OpInfo{HasField: true, Field: ir.KeyToType(k)}}
	c.fields[desc] = d
	return d, nil
}

// member parses m's descriptor as its kind requires.
func (c *descs) member(m ir.MemberRef) (d memberDesc, err error) {
	if m.Kind == classfile.KindFieldref {
		d.field, err = c.field(m.Desc)
	} else {
		d.method, err = c.method(m.Desc)
	}
	return d, err
}

// info returns the facts of an instruction that uses the member.
func (d memberDesc) info() stackstate.OpInfo {
	if d.method != nil {
		return d.method.info
	}
	return d.field.info
}

// opUse is how an instruction uses a member reference. Uses select the
// member's pool: instance vs static fields, and virtual, special, static
// and interface methods, are kept apart (§5.1).
type opUse int

const (
	useGetfield opUse = iota
	useGetstatic
	useVirtual
	useSpecial
	useStatic
	useInterface
)

// memberUses gives each use its pool and the constant kind it takes,
// which is the kind the decoder rebuilds.
var memberUses = [...]struct {
	pool poolID
	kind classfile.ConstKind
}{
	useGetfield:  {poolFieldInstance, classfile.KindFieldref},
	useGetstatic: {poolFieldStatic, classfile.KindFieldref},
	useVirtual:   {poolMethodVirtual, classfile.KindMethodref},
	useSpecial:   {poolMethodSpecial, classfile.KindMethodref},
	useStatic:    {poolMethodStatic, classfile.KindMethodref},
	useInterface: {poolMethodInterface, classfile.KindInterfaceMethodref},
}

// useOf returns how op uses its member operand, and false for opcodes
// without one.
func useOf(op bytecode.Op) (opUse, bool) {
	switch op {
	case bytecode.Getfield, bytecode.Putfield:
		return useGetfield, true
	case bytecode.Getstatic, bytecode.Putstatic:
		return useGetstatic, true
	case bytecode.Invokevirtual:
		return useVirtual, true
	case bytecode.Invokespecial:
		return useSpecial, true
	case bytecode.Invokestatic:
		return useStatic, true
	case bytecode.Invokeinterface:
		return useInterface, true
	}
	return 0, false
}

// packer walks the classes once. It writes every non-reference stream
// as it goes and records each reference in its pool's record;
// finishRefs then codes the records into the ref streams.
type packer struct {
	opts    Options
	w       *streams.Writer
	streams [numStreams]*streams.Stream // each made on first use; see st
	pools   [numPools]poolRecord
	keys    *keyCache

	descs descs

	// Per-method scratch reused across the whole walk.
	insns []bytecode.Instruction
	hoffs []int
	sim   *stackstate.Sim
}

// poolRecord is what the walk keeps of one pool's references: every key
// in first-occurrence order with its total count, and one event per
// reference. The reference encoders of §5.1.5 need each key's total
// count before its first reference is coded, so the events are coded
// only once the walk has seen them all.
type poolRecord struct {
	index     map[string]int32 // key -> its position in keys
	keys      []string
	counts    []int32
	preloaded int // keys[:preloaded] are the preload table's, in table order
	events    []refEvent
}

// refEvent is one reference: the key's index in its pool's record and
// the stack-state context, a ContextID below stackstate.NumContexts. A
// reference is the key's first occurrence exactly when its index equals
// the number of keys defined before it, so no flag is stored.
type refEvent struct {
	key uint32
	ctx uint8
}

// walk runs the packer over cfs, leaving every stream but the ref
// streams written and every pool's references recorded, and returns
// what use makes of the packer. The packer's stream writer is closed on
// every way out, errors and panics included, so no coder goroutine of
// it outlives walk.
func walk[T any](cfs []*classfile.ClassFile, opts Options, use func(*packer) (T, error)) (T, error) {
	p := &packer{opts: opts, w: streams.NewWriter(opts.Compress, opts.Concurrency), keys: newKeyCache(), descs: newDescs()}
	defer p.w.Close()
	for i := range p.pools {
		p.pools[i].index = make(map[string]int32)
	}
	if opts.Preload {
		preloadPacker(p)
	}
	if err := p.archive(cfs); err != nil {
		var zero T
		return zero, err
	}
	return use(p)
}

// st returns stream id. Its first use hands its name to the writer,
// which adds it to the container, so the container holds exactly the
// streams the walk reaches, even those it writes nothing to.
func (p *packer) st(id streamID) *streams.Stream {
	if p.streams[id] == nil {
		p.streams[id] = p.w.Stream(id.String())
	}
	return p.streams[id]
}

// ref records one reference event; def is invoked exactly when the
// object's definition must follow (first occurrence in its pool).
func (p *packer) ref(pool poolID, ctx int, key string, def func()) {
	r := &p.pools[pool]
	i, seen := r.index[key]
	if !seen {
		i = r.add(key)
	}
	r.counts[i]++
	r.events = append(r.events, refEvent{key: uint32(i), ctx: uint8(ctx)})
	if !seen {
		def()
	}
}

// add indexes a key not yet in the record.
func (r *poolRecord) add(key string) int32 {
	i := int32(len(r.keys))
	r.index[key] = i
	r.keys = append(r.keys, key)
	r.counts = append(r.counts, 0)
	return i
}

// finishRefs codes every pool's recorded events into its ref stream.
// Pools share nothing, so they code on up to Options.Concurrency
// workers; each stream is written once, on the calling goroutine.
func (p *packer) finishRefs() error {
	var pools []poolID
	for id := range p.pools {
		if len(p.pools[id].events) > 0 {
			pools = append(pools, poolID(id))
		}
	}
	coded := make([][]byte, len(pools))
	if err := par.Do(p.opts.Concurrency, len(pools), func(i int) error {
		var err error
		coded[i], err = p.pools[pools[i]].encode(p.opts.Scheme)
		if err != nil {
			return fmt.Errorf("core: %s %w", pools[i].stream(), err)
		}
		return nil
	}); err != nil {
		return err
	}
	for i, id := range pools {
		p.st(id.stream()).Write(coded[i])
	}
	return nil
}

// encode codes the record's events with a fresh encoder of the scheme,
// built from the record's final counts and preloaded as the decoder's
// pool is. The encoder must report a first occurrence exactly where the
// walk defined the object; anywhere else the definition streams and the
// ref stream would disagree and the archive would not decode.
func (r *poolRecord) encode(scheme refs.Scheme) ([]byte, error) {
	counts := make(map[string]int, len(r.keys))
	for i, c := range r.counts {
		if c > 0 {
			counts[r.keys[i]] = int(c)
		}
	}
	enc := refs.NewEncoder(scheme, counts)
	for _, key := range r.keys[:r.preloaded] {
		//classpack:vet-allow nopanic codec tables are built from Preloadable implementations only
		enc.(refs.Preloadable).Preload(key)
	}
	buf := make([]byte, 0, len(r.events)+len(r.events)/2)
	defined := uint32(r.preloaded)
	for i, ev := range r.events {
		var isNew bool
		buf, isNew = enc.Encode(buf, refs.Event{Ctx: int(ev.ctx), Key: r.keys[ev.key]})
		if first := ev.key == defined; isNew != first {
			return nil, fmt.Errorf("event %d: encoder reports first occurrence %v, walk %v", i, isNew, first)
		}
		if isNew {
			defined++
		}
	}
	return buf, nil
}

// strRef encodes a reference to string s of category cat; a new string
// is defined in the category's length and character streams (§8).
func (p *packer) strRef(cat strCat, s string) {
	p.ref(strPools[cat], 0, s, func() {
		p.st(sStrLen + streamID(cat)).Uint(uint64(len(s)))
		p.st(sStrChr + streamID(cat)).WriteString(s)
	})
}

// classRef encodes a reference to a class/primitive/array type; new types
// define their dims/primitive shape and factored name (§4).
func (p *packer) classRef(k ir.ClassKey) {
	p.ref(poolClass, 0, p.keys.classKey(k), func() {
		d := p.st(sClassDef)
		d.Uint(uint64(k.Dims))
		d.Byte(k.Prim)
		if k.IsClass() {
			p.strRef(catPkg, k.Pkg)
			p.strRef(catCls, k.Simple)
		}
	})
}

// sigRef encodes a reference to a method signature; new signatures define
// their return and parameter types as class references (§4).
func (p *packer) sigRef(d *methodDesc) {
	p.ref(poolSig, 0, d.key, func() {
		p.st(sMeta).Uint(uint64(len(d.sig)))
		for _, k := range d.sig {
			p.classRef(k)
		}
	})
}

// memberRef encodes op's member operand m in the pool its use selects;
// new members define owner, name, and type. It returns m's parsed
// descriptor. A member of another constant kind than the use takes is
// refused, because the decoder would rebuild it as that kind.
func (p *packer) memberRef(op bytecode.Op, m ir.MemberRef, ctx int) (memberDesc, error) {
	use, ok := useOf(op)
	if !ok {
		return memberDesc{}, fmt.Errorf("unexpected constant-pool instruction %s", op)
	}
	u := memberUses[use]
	if m.Kind != u.kind {
		return memberDesc{}, fmt.Errorf("%s operand is %v, want %v", op, m.Kind, u.kind)
	}
	d, err := p.descs.member(m)
	if err != nil {
		return memberDesc{}, err
	}
	p.ref(u.pool, ctx, p.keys.memberKey(m), func() {
		p.classRef(m.Owner)
		if d.field != nil {
			p.strRef(catFname, m.Name)
			p.classRef(d.field.key)
			return
		}
		p.strRef(catMname, m.Name)
		p.sigRef(d.method)
	})
	return d, nil
}
