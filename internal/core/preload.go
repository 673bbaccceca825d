package core

import (
	"classpack/internal/classfile"
	"classpack/internal/ir"
	"classpack/internal/refs"
)

// The §14 extension: "assume a standard set of preloaded references to
// frequently used package names, classes, method references and so on."
// When Options.Preload is set (recorded in the archive header), encoder
// and decoder seed their pools with the identical table below before any
// class is coded, so the most common JDK names never ship on the wire.
//
// The table is part of the format: entries may only ever be appended, and
// both sides must process them in the listed order. Most-frequent entries
// come last, landing nearest the front of the move-to-front queues.

var preloadPackages = []string{
	"java/awt", "java/util", "java/io", "java/lang",
}

var preloadSimpleNames = []string{
	"Component", "Graphics", "Math", "Integer", "Hashtable", "Vector",
	"Enumeration", "IOException", "RuntimeException", "Exception",
	"Runnable", "StringBuffer", "PrintStream", "System", "String", "Object",
}

var preloadMethodNames = []string{
	"main", "run", "size", "get", "put", "valueOf", "length", "equals",
	"hashCode", "toString", "println", "append", "<init>",
}

var preloadFieldNames = []string{
	"err", "out",
}

var preloadClassNames = []string{
	"java/awt/Component", "java/util/Hashtable", "java/util/Vector",
	"java/io/IOException", "java/lang/RuntimeException", "java/lang/Exception",
	"java/lang/Runnable", "java/lang/Math", "java/lang/Integer",
	"java/lang/StringBuffer", "java/io/PrintStream", "java/lang/System",
	"java/lang/String", "java/lang/Object",
}

var preloadDescriptors = []string{
	"(II)I", "(Ljava/lang/Object;)Z", "()Z", "()Ljava/lang/String;",
	"(Ljava/lang/String;)V", "()I", "(I)V", "()V",
}

// preloadMember pairs a member reference with the use whose pool it
// preloads; the use also gives the member's constant kind.
type preloadMember struct {
	use  opUse
	cls  string
	name string
	desc string
}

var preloadMembers = []preloadMember{
	{useGetfield, "java/lang/System", "err", "Ljava/io/PrintStream;"},
	{useGetstatic, "java/lang/System", "err", "Ljava/io/PrintStream;"},
	{useGetstatic, "java/lang/System", "out", "Ljava/io/PrintStream;"},
	{useStatic, "java/lang/String", "valueOf", "(I)Ljava/lang/String;"},
	{useStatic, "java/lang/Math", "max", "(II)I"},
	{useInterface, "java/lang/Runnable", "run", "()V"},
	{useVirtual, "java/lang/Object", "toString", "()Ljava/lang/String;"},
	{useVirtual, "java/lang/StringBuffer", "toString", "()Ljava/lang/String;"},
	{useVirtual, "java/lang/StringBuffer", "append",
		"(Ljava/lang/String;)Ljava/lang/StringBuffer;"},
	{useVirtual, "java/io/PrintStream", "println", "(I)V"},
	{useVirtual, "java/io/PrintStream", "println", "(Ljava/lang/String;)V"},
	{useSpecial, "java/lang/StringBuffer", "<init>", "()V"},
	{useSpecial, "java/lang/Object", "<init>", "()V"},
}

// preloadClassKeys resolves the class-name table once.
func preloadClassKeys() []ir.ClassKey {
	keys := make([]ir.ClassKey, 0, len(preloadClassNames))
	for _, name := range preloadClassNames {
		k, err := ir.ClassNameToKey(name)
		if err != nil {
			//classpack:vet-allow nopanic preload tables are compile-time constants; any test run catches a bad entry
			panic("core: bad preload class " + name)
		}
		keys = append(keys, k)
	}
	return keys
}

// preloadSignatures resolves the descriptor table once.
func preloadSignatures() []ir.Signature {
	sigs := make([]ir.Signature, 0, len(preloadDescriptors))
	for _, d := range preloadDescriptors {
		sig, err := ir.DescriptorToSignature(d)
		if err != nil {
			//classpack:vet-allow nopanic preload tables are compile-time constants; any test run catches a bad entry
			panic("core: bad preload descriptor " + d)
		}
		sigs = append(sigs, sig)
	}
	return sigs
}

// forEachPreload walks the full table in canonical order, calling visit
// with the pool and canonical key of every entry.
func forEachPreload(visit func(pool poolID, key string)) {
	for _, p := range preloadPackages {
		visit(poolPackage, p)
	}
	for _, s := range preloadSimpleNames {
		visit(poolSimple, s)
	}
	for _, m := range preloadMethodNames {
		visit(poolMethodName, m)
	}
	for _, f := range preloadFieldNames {
		visit(poolFieldName, f)
	}
	for _, k := range preloadClassKeys() {
		visit(poolClass, classKeyStr(k))
	}
	for _, sig := range preloadSignatures() {
		visit(poolSig, sig.SigString())
	}
	for _, m := range preloadMembers {
		ref := preloadMemberRef(m)
		visit(memberUses[m.use].pool, memberKeyStr(ref))
	}
}

func preloadMemberRef(m preloadMember) ir.MemberRef {
	kind := memberUses[m.use].kind
	owner, err := ir.ClassNameToKey(m.cls)
	if err == nil && kind == classfile.KindFieldref {
		_, err = classfile.ParseFieldDescriptor(m.desc)
	} else if err == nil {
		_, err = ir.DescriptorToSignature(m.desc)
	}
	if err != nil {
		//classpack:vet-allow nopanic preload tables are compile-time constants; any test run catches a bad entry
		panic("core: bad preload member " + m.cls + "." + m.name + m.desc)
	}
	return ir.MemberRef{Kind: kind, Owner: owner, Name: m.name, Desc: m.desc}
}

// preloadPacker enters the table into the packer's pool records first,
// in table order, as already defined.
func preloadPacker(p *packer) {
	forEachPreload(func(pool poolID, key string) {
		p.pools[pool].add(key)
		p.pools[pool].preloaded++
	})
}

// preloadUnpacker seeds the decoder pools and object tables.
func preloadUnpacker(u *unpacker) {
	forEachPreload(func(pool poolID, key string) {
		//classpack:vet-allow nopanic codec tables are built from Preloadable implementations only
		u.decs[pool].(refs.Preloadable).Preload(key)
	})
	for _, k := range preloadClassKeys() {
		_, _ = u.defineClass(classKeyStr(k), k)
	}
	for _, sig := range preloadSignatures() {
		u.sigs[sig.SigString()] = sig
	}
	for _, m := range preloadMembers {
		// preloadMemberRef has parsed the descriptor, the one step of
		// defining a member that can fail.
		ref := preloadMemberRef(m)
		_, _ = u.defineMember(memberUses[m.use].pool, memberKeyStr(ref), ref)
	}
}
