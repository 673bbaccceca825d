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

// keyCache memoizes pool keys and descriptor parses for one walk, which
// meets the same classes, members and descriptors many times. The
// comparable IR structs (ClassKey, MemberRef) key directly.
type keyCache struct {
	classKeys  map[ir.ClassKey]string
	memberKeys map[ir.MemberRef]string
	sigs       map[string]sigEntry    // method descriptor -> signature + pool key
	fieldKeys  map[string]ir.ClassKey // field descriptor -> type key
	kbuf       []byte                 // scratch for key building
}

// sigEntry is a parsed method descriptor: the factored signature and
// its canonical pool key.
type sigEntry struct {
	sig ir.Signature
	key string
}

func newKeyCache() *keyCache {
	return &keyCache{
		classKeys:  make(map[ir.ClassKey]string),
		memberKeys: make(map[ir.MemberRef]string),
		sigs:       make(map[string]sigEntry),
		fieldKeys:  make(map[string]ir.ClassKey),
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

// sigEntry parses a method descriptor once, memoizing the signature and
// its pool key.
func (c *keyCache) sigEntry(desc string) (sigEntry, error) {
	if e, ok := c.sigs[desc]; ok {
		return e, nil
	}
	sig, err := ir.DescriptorToSignature(desc)
	if err != nil {
		return sigEntry{}, err
	}
	e := sigEntry{sig: sig, key: sig.SigString()}
	c.sigs[desc] = e
	return e, nil
}

// fieldKey parses a field descriptor once, memoizing the type key.
func (c *keyCache) fieldKey(desc string) (ir.ClassKey, error) {
	if k, ok := c.fieldKeys[desc]; ok {
		return k, nil
	}
	t, err := classfile.ParseFieldDescriptor(desc)
	if err != nil {
		return ir.ClassKey{}, err
	}
	k := ir.TypeToKey(t)
	c.fieldKeys[desc] = k
	return k, nil
}

// memberPool maps a member reference and its use site to its pool:
// instance vs static fields, and virtual/special/static/interface methods
// are kept apart (§5.1).
func memberPool(m ir.MemberRef, op opUse) poolID {
	switch op {
	case useGetfield:
		return poolFieldInstance
	case useGetstatic:
		return poolFieldStatic
	case useVirtual:
		return poolMethodVirtual
	case useSpecial:
		return poolMethodSpecial
	case useStatic:
		return poolMethodStatic
	case useInterface:
		return poolMethodInterface
	}
	//classpack:vet-allow nopanic use kinds come from internal op tables, never raw decoded ints
	panic("core: bad member use")
}

type opUse int

const (
	useGetfield opUse = iota
	useGetstatic
	useVirtual
	useSpecial
	useStatic
	useInterface
)

// packer walks the classes once. It writes every non-reference stream
// as it goes and records each reference in its pool's record;
// finishRefs then codes the records into the ref streams.
type packer struct {
	opts  Options
	w     *streams.Writer
	pools [numPools]poolRecord
	keys  *keyCache

	// Per-method scratch reused across the whole walk.
	insns []bytecode.Instruction
	hoffs []int
	sim   *stackstate.Sim
	res   *stackstate.ClassFileResolver
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
// streams written and every pool's references recorded.
func walk(cfs []*classfile.ClassFile, opts Options) (*packer, error) {
	p := &packer{opts: opts, w: streams.NewWriter(), keys: newKeyCache()}
	for i := range p.pools {
		p.pools[i].index = make(map[string]int32)
	}
	if opts.Preload {
		preloadPacker(p)
	}
	if err := p.archive(cfs); err != nil {
		return nil, err
	}
	return p, nil
}

// st returns a named stream.
func (p *packer) st(name string) *streams.Stream { return p.w.Stream(name) }

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
			return fmt.Errorf("core: %s %w", refStream(pools[i]), err)
		}
		return nil
	}); err != nil {
		return err
	}
	for i, id := range pools {
		p.st(refStream(id)).Write(coded[i])
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

// strDef emits a string definition into the category's length and
// character streams (§8).
func (p *packer) strDef(cat strCat, s string) {
	p.st(strLenName[cat]).Uint(uint64(len(s)))
	if _, err := p.st(strChrName[cat]).WriteString(s); err != nil {
		//classpack:vet-allow nopanic stream writes land in a bytes.Buffer and cannot fail
		panic(err)
	}
}

// pkgRef encodes a reference to a package name.
func (p *packer) pkgRef(s string) {
	p.ref(poolPackage, 0, s, func() { p.strDef(catPkg, s) })
}

// simpleRef encodes a reference to a simple class name.
func (p *packer) simpleRef(s string) {
	p.ref(poolSimple, 0, s, func() { p.strDef(catCls, s) })
}

// methodNameRef encodes a reference to a method name; a single pool is
// shared across all method kinds (§5.1.6).
func (p *packer) methodNameRef(s string) {
	p.ref(poolMethodName, 0, s, func() { p.strDef(catMname, s) })
}

// fieldNameRef encodes a reference to a field name.
func (p *packer) fieldNameRef(s string) {
	p.ref(poolFieldName, 0, s, func() { p.strDef(catFname, s) })
}

// stringConstRef encodes a reference to a string constant.
func (p *packer) stringConstRef(s string) {
	p.ref(poolString, 0, s, func() { p.strDef(catStr, s) })
}

// classRef encodes a reference to a class/primitive/array type; new types
// define their dims/primitive shape and factored name (§4).
func (p *packer) classRef(k ir.ClassKey) {
	p.ref(poolClass, 0, p.keys.classKey(k), func() {
		d := p.st(sClassDef)
		d.Uint(uint64(k.Dims))
		if err := d.WriteByte(k.Prim); err != nil {
			//classpack:vet-allow nopanic stream writes land in a bytes.Buffer and cannot fail
			panic(err)
		}
		if k.IsClass() {
			p.pkgRef(k.Pkg)
			p.simpleRef(k.Simple)
		}
	})
}

// sigRef encodes a reference to a method signature; new signatures define
// their return and parameter types as class references (§4).
func (p *packer) sigRef(e sigEntry) {
	p.ref(poolSig, 0, e.key, func() {
		p.st(sMeta).Uint(uint64(len(e.sig)))
		for _, k := range e.sig {
			p.classRef(k)
		}
	})
}

// memberRef encodes a field or method reference in the pool selected by
// its use; new members define owner, name, and type.
func (p *packer) memberRef(m ir.MemberRef, use opUse, ctx int) error {
	pool := memberPool(m, use)
	var defErr error
	p.ref(pool, ctx, p.keys.memberKey(m), func() {
		p.classRef(m.Owner)
		if m.Kind == classfile.KindFieldref {
			p.fieldNameRef(m.Name)
			t, err := p.keys.fieldKey(m.Desc)
			if err != nil {
				defErr = err
				return
			}
			p.classRef(t)
			return
		}
		p.methodNameRef(m.Name)
		e, err := p.keys.sigEntry(m.Desc)
		if err != nil {
			defErr = err
			return
		}
		p.sigRef(e)
	})
	return defErr
}
