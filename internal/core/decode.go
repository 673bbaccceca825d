package core

import (
	"bytes"
	"fmt"

	"classpack/internal/classfile"
	"classpack/internal/corrupt"
	"classpack/internal/ir"
	"classpack/internal/par"
	"classpack/internal/refs"
	"classpack/internal/stackstate"
	"classpack/internal/streams"
)

// Section names of the fixed archive header, and of an archive read
// whole from a stream or reader, in corrupt errors.
const (
	sHeader    = "header"
	sContainer = "container"
)

// DefaultMaxClassCount is the class-count cap applied when UnpackOpts
// does not choose one.
const DefaultMaxClassCount = 1 << 20

// UnpackOpts are the decode-side knobs. Coding choices travel in the
// archive header, so decoding needs no scheme configuration — only
// resource bounds for untrusted input and a worker count.
type UnpackOpts struct {
	// Concurrency bounds the workers for the up-front stream
	// decompression and for building decoded classes (0 = all cores,
	// 1 = serial, with no goroutines in the class loop).
	Concurrency int
	// MaxDecodedBytes caps the total decoded size of all wire streams
	// (0 = streams.DefaultMaxDecodedBytes). The cap is enforced before
	// inflation, so a small archive claiming a huge payload fails in
	// O(header) work with an error wrapping corrupt.ErrTooLarge.
	MaxDecodedBytes int64
	// MaxClassCount caps the number of classes materialized
	// (0 = DefaultMaxClassCount).
	MaxClassCount int
}

// Unpack decodes a packed archive back into classfiles using all cores
// for stream decompression. Decompression is deterministic: the result
// is byte-for-byte the stripped input of Pack regardless of worker
// count.
func Unpack(data []byte) ([]*classfile.ClassFile, error) {
	var out []*classfile.ClassFile
	err := UnpackStreamOpts(data, UnpackOpts{}, func(cf *classfile.ClassFile) error {
		out = append(out, cf)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// UnpackStreamOpts decodes the archive, invoking visit as each class
// becomes complete — the wire format is sequential (§2), so an eager
// class loader (§11) can define classes as they arrive instead of
// caching the archive. Stream decompression fans out over o.Concurrency
// workers first. Reading the wire streams stays on the calling
// goroutine, because reference pools are stateful, but each decoded
// class is built on those workers while the decoder reads the next
// ones. visit runs on the calling goroutine in archive order, and the
// classes and errors are the same at every worker count. A visit error
// aborts decoding and stays in the returned error's chain for
// errors.Is; any failure caused by the archive bytes is a
// *corrupt.Error or wraps one.
func UnpackStreamOpts(data []byte, o UnpackOpts, visit func(*classfile.ClassFile) error) error {
	opts, err := header(data)
	if err != nil {
		return err
	}
	// The version byte picks the container layout: v1 has no integrity
	// data, v2 verifies per-stream and trailer CRC32Cs before decoding,
	// v3 is a sequence of checked chunks plus a trailing class index.
	if data[4] == Version3 {
		return unpackChunks(&chunkWalker{data: data, pos: 6}, opts, o, visit)
	}
	_, err = DecodeChunk(opts, data[6:], data[4] != Version1, o, nil, func(ord int, cf *classfile.ClassFile) error {
		return visit(cf)
	})
	return err
}

// header validates the 6-byte archive header and returns the coding
// options it declares. The version byte must name a known layout and the
// scheme must be decodable; data[4] remains the caller's version switch.
func header(data []byte) (Options, error) {
	if len(data) < 6 || !bytes.Equal(data[:4], Magic[:]) {
		return Options{}, corrupt.Errorf(sHeader, 0, "not a packed archive")
	}
	if data[4] != Version1 && data[4] != Version2 && data[4] != Version3 {
		return Options{}, corrupt.Errorf(sHeader, 4, "unsupported version %d", data[4])
	}
	opts := decodeOptions(data[5])
	if !opts.Scheme.Decodable() {
		return Options{}, corrupt.Errorf(sHeader, 5, "archive uses undecodable scheme %v", opts.Scheme)
	}
	return opts, nil
}

// ParseHeader validates the fixed 6-byte archive header and returns the
// container version and the coding options it declares. It is the entry
// point for random-access readers, which read the header and the
// trailing index (ReadIndexAt) without touching the body.
func ParseHeader(hdr []byte) (version byte, opts Options, err error) {
	opts, err = header(hdr)
	if err != nil {
		return 0, Options{}, err
	}
	return hdr[4], opts, nil
}

// unpacker is the decode stage of one container body: it reads the wire
// streams in order and holds the reference models, so it runs on one
// goroutine. What it leaves per class (a dClass) is built on the worker
// pool; see decodeClasses.
type unpacker struct {
	opts Options
	decs [numPools]refs.Decoder

	// Stream handles, resolved once rather than looked up by name for
	// every operand.
	st [numStreams]*streams.RStream

	// Reference caches, keyed by the reference models' keys. Entries are
	// created by the decode stage and never changed afterwards, so the
	// build workers read them through a dClass without locking.
	classKeys map[string]*classEntry
	sigs      map[string]ir.Signature
	members   [numPools]map[string]*memberEntry

	// Derived-value caches and scratch of the decode stage, reused across
	// every class in the body. References repeat heavily (that is the
	// whole premise of the format), so each derived form is computed
	// once per distinct input rather than once per use site.
	descs descs
	sim   *stackstate.Sim
	hoffs []int
}

// classEntry is a decoded class reference: its key and the internal
// name build interns for it, derived once when the reference is defined.
type classEntry struct {
	key  ir.ClassKey
	name string
}

// memberEntry is a decoded field or method reference with what decoding
// and build derive from it: the owner's internal name, and the parsed
// descriptor, which holds the facts the stack simulation consumes.
type memberEntry struct {
	ref   ir.MemberRef
	owner string
	desc  memberDesc
}

func newUnpacker(opts Options, r *streams.Reader) *unpacker {
	u := &unpacker{
		opts:      opts,
		classKeys: make(map[string]*classEntry),
		sigs:      make(map[string]ir.Signature),
		descs:     newDescs(),
	}
	for id := range u.st {
		u.st[id] = r.Stream(streamID(id).String())
	}
	for i := range u.decs {
		u.decs[i], _ = refs.NewDecoder(opts.Scheme)
		u.members[i] = make(map[string]*memberEntry)
	}
	if opts.Preload {
		preloadUnpacker(u)
	}
	return u
}

// decodeClasses is the class loop of every container body: it reads the
// declared class count, holds it to the class cap, then decodes the
// classes in order, builds those need selects (see DecodeChunk) and
// hands each built one to visit with its ordinal. It returns the
// declared count, or -1 when the count was unreadable or over the cap.
// A decode or build failure comes back as a corrupt error naming the
// class it hit; a visit error stops the loop and comes back as it is.
//
// Decoding stays on the calling goroutine, because the reference models
// are stateful. Building, which reads only its own dClass and the
// immutable cache entries it points to, runs on o.Concurrency workers
// while the decoder reads ahead. visit is called on the calling
// goroutine, in ordinal order, and the outcome is the serial loop's at
// every worker count.
func (u *unpacker) decodeClasses(o UnpackOpts, need []bool, visit func(ord int, cf *classfile.ClassFile) error) (int, error) {
	count, err := u.st[sMeta].Uint()
	if err != nil {
		return -1, fmt.Errorf("core: class count: %w", err)
	}
	if maxClasses := EffectiveMaxClasses(o); count > uint64(maxClasses) {
		return -1, corrupt.TooLarge(sMeta.String(), -1, "class count %d exceeds cap %d", count, maxClasses)
	}
	n := int(count)
	workers := par.Workers(o.Concurrency, n)
	slots := make([]dClass, workers+1)
	builders := make([]builder, workers)
	err = par.Pipeline(o.Concurrency, n,
		func(slot, i int) error {
			d := &slots[slot]
			d.ord = i
			return classError(i, u.class(d))
		},
		func(worker, slot int) error {
			d := &slots[slot]
			if !builds(need, d.ord) {
				return nil
			}
			cf, err := builders[worker].build(d)
			d.cf = cf
			return classError(d.ord, err)
		},
		func(slot, i int) error {
			if !builds(need, i) {
				return nil
			}
			cf := slots[slot].cf
			slots[slot].cf = nil
			return visit(i, cf)
		})
	return n, err
}

// builds reports whether need selects ordinal i (see DecodeChunk).
func builds(need []bool, i int) bool { return need == nil || i < len(need) && need[i] }

// classError places a failure to decode or build class i, nil for none.
func classError(i int, err error) error {
	if err == nil {
		return nil
	}
	err = fmt.Errorf("core: unpack class %d: %w", i, err)
	if _, ok := corrupt.As(err); !ok {
		// Failures that no one stream carries, such as a built class
		// whose constant pool overflows, are charged to int.meta, as
		// salvage charges them.
		err = corrupt.New(sMeta.String(), -1, err)
	}
	return err
}

// decodeRef decodes one reference from pool's stream. The reference
// decoders read it as a plain varint.ByteReader, so a varint or range
// code inside one that does not parse comes back as a plain error; it is
// damage to that stream.
func (u *unpacker) decodeRef(pool poolID, ctx int) (key string, isNew, transient bool, err error) {
	s := u.st[pool.stream()]
	key, isNew, transient, err = u.decs[pool].Decode(s, ctx)
	if err != nil {
		// A refs decoder knows what is wrong but not which stream it
		// reads, so its own errors name the stream "refs".
		ce, ok := corrupt.As(err)
		switch {
		case !ok:
			err = corrupt.New(s.Name(), -1, err)
		case ce.Stream != s.Name():
			err = corrupt.New(s.Name(), ce.Offset, ce.Cause)
		}
	}
	return key, isNew, transient, err
}

// strRef decodes a reference to a string of category cat. The defined
// string is an owned copy (string(raw)), never an alias of the decoded
// stream buffer, so pool entries cannot pin stream memory.
func (u *unpacker) strRef(cat strCat) (string, error) {
	pool := strPools[cat]
	key, isNew, transient, err := u.decodeRef(pool, 0)
	if err != nil {
		return "", err
	}
	if !isNew {
		return key, nil
	}
	n, err := u.st[sStrLen+streamID(cat)].Uint()
	if err != nil {
		return "", err
	}
	raw, err := u.st[sStrChr+streamID(cat)].Raw(int(n))
	if err != nil {
		return "", err
	}
	s := string(raw)
	u.decs[pool].Define(0, s, transient)
	return s, nil
}

// classRef decodes a class/primitive/array type reference.
func (u *unpacker) classRef() (*classEntry, error) {
	key, isNew, transient, err := u.decodeRef(poolClass, 0)
	if err != nil {
		return nil, err
	}
	if !isNew {
		e, ok := u.classKeys[key]
		if !ok {
			return nil, corrupt.Errorf(poolClass.stream().String(), -1, "unknown class key %q", key)
		}
		return e, nil
	}
	dims, err := u.st[sClassDef].Uint()
	if err != nil {
		return nil, err
	}
	// The JVM caps array dimensions at 255; anything larger is corrupt
	// and would otherwise size a strings.Repeat allocation.
	if dims > 255 {
		return nil, corrupt.Errorf(sClassDef.String(), -1, "array dimensions %d out of range", dims)
	}
	prim, err := u.st[sClassDef].ReadByte()
	if err != nil {
		return nil, err
	}
	k := ir.ClassKey{Dims: int(dims), Prim: prim}
	if prim == 0 {
		if k.Pkg, err = u.strRef(catPkg); err != nil {
			return nil, err
		}
		if k.Simple, err = u.strRef(catCls); err != nil {
			return nil, err
		}
	}
	ck := classKeyStr(k)
	e, err := u.defineClass(ck, k)
	if err != nil {
		return nil, err
	}
	u.decs[poolClass].Define(0, ck, transient)
	return e, nil
}

// defineClass makes k the class that model key ck names and returns its
// cache entry. A key defined again (a transient one, or a key that two
// crafted classes share) replaces the entry; workers holding the old one
// are unaffected, because entries never change. A class name with an
// empty segment, which the packer refuses (classfile.CheckClassName), is
// damage charged to the class reference stream, which holds the new
// reference.
func (u *unpacker) defineClass(ck string, k ir.ClassKey) (*classEntry, error) {
	if e, ok := u.classKeys[ck]; ok && e.key == k {
		return e, nil
	}
	if k.IsClass() {
		if err := classfile.CheckClassName(classfile.JoinClassName(k.Pkg, k.Simple)); err != nil {
			return nil, corrupt.New(poolClass.stream().String(), -1, err)
		}
	}
	e := &classEntry{key: k, name: ir.KeyToClassName(k)}
	u.classKeys[ck] = e
	return e, nil
}

// sigRef decodes a signature reference.
func (u *unpacker) sigRef() (ir.Signature, error) {
	key, isNew, transient, err := u.decodeRef(poolSig, 0)
	if err != nil {
		return nil, err
	}
	if !isNew {
		sig, ok := u.sigs[key]
		if !ok {
			return nil, corrupt.Errorf(poolSig.stream().String(), -1, "unknown signature key %q", key)
		}
		return sig, nil
	}
	n, err := u.st[sMeta].Uint()
	if err != nil {
		return nil, err
	}
	if n == 0 || n > 1<<16 {
		return nil, corrupt.Errorf(sMeta.String(), -1, "signature with %d entries", n)
	}
	sig := make(ir.Signature, n)
	for i := range sig {
		e, err := u.classRef()
		if err != nil {
			return nil, err
		}
		sig[i] = e.key
	}
	sk := sig.SigString()
	u.sigs[sk] = sig
	u.decs[poolSig].Define(0, sk, transient)
	return sig, nil
}

// memberRef decodes a field or method reference from the pool implied by
// the instruction's use.
func (u *unpacker) memberRef(use opUse, ctx int) (*memberEntry, error) {
	pool, kind := memberUses[use].pool, memberUses[use].kind
	key, isNew, transient, err := u.decodeRef(pool, ctx)
	if err != nil {
		return nil, err
	}
	if !isNew {
		e, ok := u.members[pool][key]
		if !ok {
			return nil, corrupt.Errorf(pool.stream().String(), -1, "unknown member key %q", key)
		}
		return e, nil
	}
	m := ir.MemberRef{Kind: kind}
	owner, err := u.classRef()
	if err != nil {
		return nil, err
	}
	m.Owner = owner.key
	if kind == classfile.KindFieldref {
		if m.Name, err = u.strRef(catFname); err != nil {
			return nil, err
		}
		t, err := u.classRef()
		if err != nil {
			return nil, err
		}
		m.Desc = ir.KeyToType(t.key).String()
	} else {
		if m.Name, err = u.strRef(catMname); err != nil {
			return nil, err
		}
		sig, err := u.sigRef()
		if err != nil {
			return nil, err
		}
		m.Desc = ir.SignatureToDescriptor(sig)
	}
	mk := memberKeyStr(m)
	e, err := u.defineMember(pool, mk, m)
	if err != nil {
		return nil, err
	}
	u.decs[pool].Define(ctx, mk, transient)
	return e, nil
}

// defineMember is defineClass for member reference m in pool. Creating
// an entry parses m's descriptor, which fails for a descriptor that the
// decoded keys spell but that does not parse back: damage charged to
// pool's stream, which holds the new reference.
func (u *unpacker) defineMember(pool poolID, mk string, m ir.MemberRef) (*memberEntry, error) {
	if e, ok := u.members[pool][mk]; ok && e.ref == m {
		return e, nil
	}
	d, err := u.descs.member(m)
	if err != nil {
		return nil, corrupt.New(pool.stream().String(), -1, err)
	}
	e := &memberEntry{ref: m, owner: ir.KeyToClassName(m.Owner), desc: d}
	u.members[pool][mk] = e
	return e, nil
}
