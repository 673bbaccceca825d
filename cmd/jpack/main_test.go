package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"classpack"
	"classpack/internal/archive"
	"classpack/internal/bytecode"
	"classpack/internal/classfile"
	"classpack/internal/minijava"
	"classpack/internal/streams"
	"classpack/internal/synth"
)

// writeClasses compiles a small program into a temp dir and returns the
// .class paths plus a jar containing them and one non-class member.
func writeClasses(t *testing.T) (classPaths []string, jarPath string) {
	t.Helper()
	dir := t.TempDir()
	cfs, err := minijava.Compile(`
class Main { public static void main(String[] a) { System.out.println(new W().twice(21)); } }
class W { public int twice(int x) { return x + x; } }
`, minijava.CompileOptions{SourceFile: "W.java"})
	if err != nil {
		t.Fatal(err)
	}
	var members []archive.File
	for _, cf := range cfs {
		data, err := classfile.Write(cf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, cf.ThisClassName()+".class")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		classPaths = append(classPaths, path)
		members = append(members, archive.File{Name: cf.ThisClassName() + ".class", Data: data})
	}
	members = append(members, archive.File{Name: "res/logo.png", Data: []byte{9, 9}})
	jar, err := archive.WriteJar(members)
	if err != nil {
		t.Fatal(err)
	}
	jarPath = filepath.Join(dir, "app.jar")
	if err := os.WriteFile(jarPath, jar, 0o644); err != nil {
		t.Fatal(err)
	}
	return classPaths, jarPath
}

func TestPackUnpackVerifyFlow(t *testing.T) {
	classes, _ := writeClasses(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "app.cjp")

	if err := cmdPack(append([]string{"-o", out}, classes...)); err != nil {
		t.Fatalf("pack: %v", err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatal(err)
	}
	unDir := filepath.Join(dir, "un")
	if err := cmdUnpack([]string{"-d", unDir, out}); err != nil {
		t.Fatalf("unpack: %v", err)
	}
	mainClass := filepath.Join(unDir, "Main.class")
	if err := cmdVerify([]string{mainClass, filepath.Join(unDir, "W.class")}); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if err := cmdDump([]string{"-pool", "-code", mainClass}); err != nil {
		t.Fatalf("dump: %v", err)
	}
	if err := cmdStats(classes); err != nil {
		t.Fatalf("stats: %v", err)
	}
}

func TestPackFromJarAndUnpackToJar(t *testing.T) {
	_, jar := writeClasses(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "app.cjp")
	if err := cmdPack([]string{"-o", out, "-preload", jar}); err != nil {
		t.Fatalf("pack jar: %v", err)
	}
	outJar := filepath.Join(dir, "rebuilt.jar")
	if err := cmdUnpack([]string{"-jar", outJar, out}); err != nil {
		t.Fatalf("unpack to jar: %v", err)
	}
	data, err := os.ReadFile(outJar)
	if err != nil {
		t.Fatal(err)
	}
	members, err := archive.ReadJar(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 2 {
		t.Fatalf("rebuilt jar has %d members, want 2", len(members))
	}
}

func TestUnpackSalvageCommand(t *testing.T) {
	classes, _ := writeClasses(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "app.cjp")
	if err := cmdPack(append([]string{"-o", out}, classes...)); err != nil {
		t.Fatalf("pack: %v", err)
	}

	// A pristine archive salvages with exit 0 and the full class set.
	unDir := filepath.Join(dir, "clean")
	if err := cmdUnpack([]string{"-salvage", "-d", unDir, out}); err != nil {
		t.Fatalf("salvage of pristine archive: %v", err)
	}
	if _, err := os.Stat(filepath.Join(unDir, "Main.class")); err != nil {
		t.Fatal(err)
	}

	// Damage the archive near the end: salvage must fail (classes were
	// lost) but a plain unpack must fail harder (nothing at all).
	packed, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	packed[len(packed)-12] ^= 0x10
	damaged := filepath.Join(dir, "damaged.cjp")
	if err := os.WriteFile(damaged, packed, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdUnpack([]string{damaged}); err == nil {
		t.Fatal("plain unpack of damaged archive succeeded")
	}
	salvJar := filepath.Join(dir, "salvaged.jar")
	if err := cmdUnpack([]string{"-salvage", "-jar", salvJar, damaged}); err == nil {
		t.Fatal("salvage of lossy archive exited 0, want failure reporting lost classes")
	}
	if _, err := os.Stat(salvJar); err != nil {
		t.Fatalf("salvage did not write the recovered jar: %v", err)
	}
}

// TestUnpackSalvageMetaDamage flips one byte of int.meta's payload in a
// version-2 archive. The class count is then unreadable, so salvage
// charges no class to the damage, yet none comes back: like jpackd,
// which answers 206, salvage must exit nonzero, after writing what it
// recovered.
func TestUnpackSalvageMetaDamage(t *testing.T) {
	p, err := synth.ProfileByName("Hanoi_jax")
	if err != nil {
		t.Fatal(err)
	}
	cfs, err := synth.GenerateStripped(p, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([][]byte, len(cfs))
	for i, cf := range cfs {
		if raw[i], err = classfile.Write(cf); err != nil {
			t.Fatal(err)
		}
	}
	packed, err := classpack.Pack(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	secs, err := streams.Sections(packed[6:], true)
	if err != nil {
		t.Fatal(err)
	}
	flipped := false
	for _, sec := range secs {
		if sec.Name == "int.meta" {
			packed[6+sec.Off+sec.Len/2] ^= 0x01
			flipped = true
		}
	}
	if !flipped {
		t.Fatal("archive has no int.meta stream")
	}
	dir := t.TempDir()
	damaged := filepath.Join(dir, "meta.cjp")
	if err := os.WriteFile(damaged, packed, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := classpack.Salvage(packed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost != 0 || len(res.Damage) == 0 {
		t.Fatalf("salvage reports %d lost and %d damage regions; the case needs 0 lost and some damage",
			res.Lost, len(res.Damage))
	}
	salvJar := filepath.Join(dir, "salvaged.jar")
	if err := cmdUnpack([]string{"-salvage", "-jar", salvJar, damaged}); err == nil {
		t.Fatal("salvage of an archive with damaged int.meta exited 0")
	}
	if _, err := os.Stat(salvJar); err != nil {
		t.Fatalf("salvage did not write the recovered jar: %v", err)
	}
}

func TestVerifyJarAndMaxFailures(t *testing.T) {
	_, jarPath := writeClasses(t)
	// Jar operands are expanded: both class members verify, the resource
	// member is skipped.
	if err := cmdVerify([]string{jarPath}); err != nil {
		t.Fatalf("verify jar: %v", err)
	}
	// Two invalid classes with -max-failures 1: still exit nonzero.
	dir := t.TempDir()
	var bads []string
	for i := 0; i < 2; i++ {
		path := filepath.Join(dir, "bad"+string(rune('0'+i))+".class")
		if err := os.WriteFile(path, []byte{0xde, 0xad}, 0o644); err != nil {
			t.Fatal(err)
		}
		bads = append(bads, path)
	}
	if err := cmdVerify(append([]string{"-max-failures", "1"}, bads...)); err == nil {
		t.Fatal("verify of invalid classes exited 0")
	}
	if err := cmdVerify(append([]string{"-max-failures", "bogus"}, bads...)); err == nil {
		t.Fatal("bogus -max-failures accepted")
	}
}

// writeClass writes to dir, as name.class, the class p/V as fill builds
// it, and returns its path.
func writeClass(t *testing.T, dir, name string, fill func(b *classfile.Builder)) string {
	t.Helper()
	b := classfile.NewBuilder("p/V", "java/lang/Object", classfile.AccPublic|classfile.AccSuper)
	fill(b)
	cf, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	data, err := classfile.Write(cf)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name+".class")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeHandlerInsideInstruction writes to dir a class whose method guards
// nop, bipush 5, pop, return with a handler that starts at pc 2, inside
// the bipush, and returns its path. JVMS §4.7.3 forbids that, and pack
// and every verify mode refuse it.
func writeHandlerInsideInstruction(t *testing.T, dir string) string {
	t.Helper()
	return writeClass(t, dir, "V", func(b *classfile.Builder) {
		m := b.AddMethod(classfile.AccPublic|classfile.AccStatic, "m", "()V")
		code := []byte{byte(bytecode.Nop), byte(bytecode.Bipush), 5, byte(bytecode.Pop), byte(bytecode.Return), byte(bytecode.Athrow)}
		b.AttachCode(m, &classfile.CodeAttr{MaxStack: 2, MaxLocals: 1, Code: code,
			Handlers: []classfile.ExceptionHandler{{StartPC: 2, EndPC: 4, HandlerPC: 5}}})
	})
}

// writeRefusedClasses writes to dir classes that pack and every verify
// mode refuse beyond their operands and handlers, and returns their
// paths: a lookupswitch whose keys descend, an int field with a String
// ConstantValue, version-52 classes holding a Signature and a
// StackMapTable, attributes the JVM reads, a method holding a
// ConstantValue or two Exceptions, which the packed format cannot carry,
// and a field whose type names a class with an empty segment, "/pA",
// which would unpack as "pA".
func writeRefusedClasses(t *testing.T, dir string) []string {
	t.Helper()
	modern := func(name string, inCode bool) string {
		return writeClass(t, dir, name, func(b *classfile.Builder) {
			b.CF.MajorVersion, b.CF.MinorVersion = 52, 0
			attr := &classfile.UnknownAttr{Name: name, Data: []byte{0, 0}}
			attr.NameIndex = b.Utf8(name)
			code := &classfile.CodeAttr{MaxStack: 1, Code: []byte{byte(bytecode.Return)}}
			if inCode {
				code.Attrs = append(code.Attrs, attr)
			} else {
				b.CF.Attrs = append(b.CF.Attrs, attr)
			}
			b.AttachCode(b.AddMethod(classfile.AccPublic|classfile.AccStatic, "m", "()V"), code)
		})
	}
	return []string{
		writeClass(t, dir, "Switch", func(b *classfile.Builder) {
			// iconst_0; lookupswitch, padded to pc 4, default and the
			// pairs 5 and 0 all to pc 28; return.
			code := []byte{byte(bytecode.Iconst0), byte(bytecode.Lookupswitch), 0, 0, 0, 0, 0, 27, 0, 0, 0, 2,
				0, 0, 0, 5, 0, 0, 0, 27, 0, 0, 0, 0, 0, 0, 0, 27, byte(bytecode.Return)}
			b.AttachCode(b.AddMethod(classfile.AccPublic|classfile.AccStatic, "m", "()V"),
				&classfile.CodeAttr{MaxStack: 1, Code: code})
		}),
		writeClass(t, dir, "Constant", func(b *classfile.Builder) {
			b.AttachConstantValue(b.AddField(classfile.AccStatic|classfile.AccFinal, "f", "I"), b.String("s"))
		}),
		modern("Signature", false),
		modern("StackMapTable", true),
		writeClass(t, dir, "MethodConstant", func(b *classfile.Builder) {
			b.AttachConstantValue(b.AddMethod(classfile.AccPublic|classfile.AccAbstract, "m", "()V"), b.Int(7))
		}),
		writeClass(t, dir, "TwoExceptions", func(b *classfile.Builder) {
			m := b.AddMethod(classfile.AccPublic|classfile.AccAbstract, "m", "()V")
			b.AttachExceptions(m, []string{"java/io/IOException"})
			b.AttachExceptions(m, []string{"java/lang/Exception"})
		}),
		writeClass(t, dir, "EmptySegment", func(b *classfile.Builder) {
			b.AddField(classfile.AccStatic, "f", "L/pA;")
		}),
	}
}

func TestStripCommand(t *testing.T) {
	classes, _ := writeClasses(t)
	out := filepath.Join(t.TempDir(), "stripped.class")
	if err := cmdStrip([]string{"-o", out, classes[0]}); err != nil {
		t.Fatalf("strip: %v", err)
	}
	orig, _ := os.ReadFile(classes[0])
	stripped, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(stripped) >= len(orig) {
		t.Fatalf("strip did not shrink: %d -> %d", len(orig), len(stripped))
	}
}

func TestSchemeFlags(t *testing.T) {
	classes, _ := writeClasses(t)
	dir := t.TempDir()
	for _, scheme := range []string{"simple", "basic", "mtf", "mtf-transients", "mtf-context", "mtf-full"} {
		out := filepath.Join(dir, scheme+".cjp")
		if err := cmdPack(append([]string{"-o", out, "-scheme", scheme, "-no-stackstate"}, classes...)); err != nil {
			t.Fatalf("scheme %s: %v", scheme, err)
		}
	}
	if err := cmdPack(append([]string{"-scheme", "bogus"}, classes...)); err == nil {
		t.Fatal("bogus scheme accepted")
	}
}

func TestConcurrencyFlag(t *testing.T) {
	classes, _ := writeClasses(t)
	dir := t.TempDir()
	// Archives packed at -j 1, -j 4, and -j 0 (all cores) must be
	// byte-identical, and each must unpack at any -j.
	var want []byte
	for _, j := range []string{"1", "4", "0"} {
		out := filepath.Join(dir, "j"+j+".cjp")
		if err := cmdPack(append([]string{"-o", out, "-j", j}, classes...)); err != nil {
			t.Fatalf("pack -j %s: %v", j, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = data
		} else if string(data) != string(want) {
			t.Fatalf("pack -j %s produced a different archive", j)
		}
		unDir := filepath.Join(dir, "un"+j)
		if err := cmdUnpack([]string{"-d", unDir, "-j", j, out}); err != nil {
			t.Fatalf("unpack -j %s: %v", j, err)
		}
		if err := cmdVerify([]string{"-deep", "-j", j, filepath.Join(unDir, "Main.class")}); err != nil {
			t.Fatalf("verify -j %s: %v", j, err)
		}
	}
}

func TestConcurrencyFlagErrors(t *testing.T) {
	classes, _ := writeClasses(t)
	for _, j := range []string{"-1", "x", ""} {
		if err := cmdPack(append([]string{"-j", j}, classes...)); err == nil {
			t.Errorf("pack -j %q accepted", j)
		}
	}
	if err := cmdUnpack([]string{"-j", "nope", "whatever.cjp"}); err == nil {
		t.Error("unpack -j nope accepted")
	}
}

func TestFlagErrors(t *testing.T) {
	if err := cmdPack([]string{"-o"}); err == nil {
		t.Error("dangling flag accepted")
	}
	if err := cmdPack([]string{"-wat", "x"}); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := cmdPack(nil); err == nil {
		t.Error("pack with no inputs accepted")
	}
	if err := cmdUnpack([]string{"a", "b"}); err == nil {
		t.Error("unpack with two archives accepted")
	}
	if err := cmdVerify([]string{filepath.Join(t.TempDir(), "missing.class")}); err == nil {
		t.Error("verify of missing file accepted")
	}
}

func TestVerifyBytecodeCommand(t *testing.T) {
	classes, jarPath := writeClasses(t)
	// Per-method verdicts over class and jar operands.
	if err := cmdVerify(append([]string{"-bytecode"}, classes...)); err != nil {
		t.Fatalf("verify -bytecode classes: %v", err)
	}
	if err := cmdVerify([]string{"-bytecode", jarPath}); err != nil {
		t.Fatalf("verify -bytecode jar: %v", err)
	}
	// Packed archives are expanded and their classes verified.
	out := filepath.Join(t.TempDir(), "app.cjp")
	if err := cmdPack(append([]string{"-o", out}, classes...)); err != nil {
		t.Fatalf("pack: %v", err)
	}
	if err := cmdVerify([]string{"-bytecode", out}); err != nil {
		t.Fatalf("verify -bytecode archive: %v", err)
	}
	if err := cmdVerify([]string{out}); err != nil {
		t.Fatalf("verify archive (structural): %v", err)
	}

	// A method body that underflows the stack fails with method context.
	data, err := os.ReadFile(classes[0])
	if err != nil {
		t.Fatal(err)
	}
	cf, err := classfile.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	for mi := range cf.Methods {
		if code := classfile.CodeOf(&cf.Methods[mi]); code != nil && len(code.Code) > 0 {
			code.Code = []byte{0x60, 0xb1} // iadd on an empty stack; return
			break
		}
	}
	bad, err := classfile.Write(cf)
	if err != nil {
		t.Fatal(err)
	}
	badPath := filepath.Join(t.TempDir(), "Bad.class")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{"-bytecode", badPath}); err == nil {
		t.Fatal("verify -bytecode accepted a stack underflow")
	}
}

func TestChunkPackLsExtract(t *testing.T) {
	classes, _ := writeClasses(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "app.cjp")
	if err := cmdPack(append([]string{"-o", out, "-chunk", "1"}, classes...)); err != nil {
		t.Fatalf("pack -chunk: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if data[4] != 3 {
		t.Fatalf("pack -chunk 1 wrote version %d, want 3", data[4])
	}

	if err := cmdLs([]string{out}); err != nil {
		t.Fatalf("ls: %v", err)
	}

	// Extract one class by exact name; compare against a full unpack.
	unDir := filepath.Join(dir, "full")
	if err := cmdUnpack([]string{"-d", unDir, out}); err != nil {
		t.Fatalf("unpack: %v", err)
	}
	exDir := filepath.Join(dir, "one")
	if err := cmdExtract([]string{"-d", exDir, out, "Main"}); err != nil {
		t.Fatalf("extract: %v", err)
	}
	got, err := os.ReadFile(filepath.Join(exDir, "Main.class"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(unDir, "Main.class"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("extracted Main.class differs from full unpack")
	}
	if _, err := os.Stat(filepath.Join(exDir, "W.class")); err == nil {
		t.Fatal("extract Main also wrote W.class")
	}

	// Glob pattern into a jar.
	outJar := filepath.Join(dir, "subset.jar")
	if err := cmdExtract([]string{"-jar", outJar, out, "*"}); err != nil {
		t.Fatalf("extract glob: %v", err)
	}
	jar, err := os.ReadFile(outJar)
	if err != nil {
		t.Fatal(err)
	}
	members, err := archive.ReadJar(jar)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 2 {
		t.Fatalf("extracted jar has %d members, want 2", len(members))
	}
	// Every class, in archive order: the jar unpack -jar builds.
	fullJar := filepath.Join(dir, "full.jar")
	if err := cmdUnpack([]string{"-jar", fullJar, out}); err != nil {
		t.Fatalf("unpack -jar: %v", err)
	}
	if want, err := os.ReadFile(fullJar); err != nil || string(jar) != string(want) {
		t.Fatalf("extract -jar of every class differs from unpack -jar (err %v)", err)
	}

	// No match is a failure; a malformed pattern is a usage error.
	if err := cmdExtract([]string{"-d", exDir, out, "no/such/*"}); err == nil {
		t.Fatal("extract accepted a pattern matching nothing")
	}
	err = cmdExtract([]string{"-d", exDir, out, "a[/b"})
	if err == nil {
		t.Fatal("extract accepted a malformed pattern")
	}
	var ue usageError
	if !errorsAs(err, &ue) {
		t.Fatalf("malformed pattern error %v is not a usage error", err)
	}

	// ls on a monolithic (version-2) archive still lists names.
	v2 := filepath.Join(dir, "v2.cjp")
	if err := cmdPack(append([]string{"-o", v2}, classes...)); err != nil {
		t.Fatal(err)
	}
	if err := cmdLs([]string{v2}); err != nil {
		t.Fatalf("ls v2: %v", err)
	}
	if err := cmdExtract([]string{"-d", filepath.Join(dir, "v2x"), v2, "W"}); err != nil {
		t.Fatalf("extract v2: %v", err)
	}
}

// errorsAs keeps the test import list stable.
func errorsAs(err error, target *usageError) bool {
	for err != nil {
		if ue, ok := err.(usageError); ok {
			*target = ue
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestDeltaSmoke is the end-to-end delta workflow the `make delta-smoke`
// target runs: pack two versions of a synthetic corpus that differ in
// ~5% of their classes, diff them, apply the patch to the old archive,
// and require (a) the rebuilt archive is byte-identical to the new one
// and (b) the patch is under 25% of the full new archive.
func TestDeltaSmoke(t *testing.T) {
	p, err := synth.ProfileByName("rt")
	if err != nil {
		t.Fatal(err)
	}
	cfs, err := synth.GenerateStripped(p, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	oldRaw := make([][]byte, len(cfs))
	for i, cf := range cfs {
		if oldRaw[i], err = classfile.Write(cf); err != nil {
			t.Fatal(err)
		}
	}
	newRaw, changed, err := synth.MutateClasses(oldRaw, 0.05, 5)
	if err != nil {
		t.Fatal(err)
	}
	if changed == 0 || changed*4 > len(oldRaw) {
		t.Fatalf("version bump changed %d of %d classes", changed, len(oldRaw))
	}
	dir := t.TempDir()
	writeJar := func(name string, raw [][]byte) string {
		var members []archive.File
		for i, data := range raw {
			members = append(members, archive.File{Name: fmt.Sprintf("c%04d.class", i), Data: data})
		}
		jar, err := archive.WriteJar(members)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, jar, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldJar := writeJar("old.jar", oldRaw)
	newJar := writeJar("new.jar", newRaw)

	oldCjp := filepath.Join(dir, "old.cjp")
	newCjp := filepath.Join(dir, "new.cjp")
	patchPath := filepath.Join(dir, "patch.cjpd")
	rebuilt := filepath.Join(dir, "rebuilt.cjp")
	for _, args := range [][]string{
		{"pack", "-o", oldCjp, "-chunk", "16", oldJar},
		{"pack", "-o", newCjp, "-chunk", "16", newJar},
		{"delta", "-o", patchPath, oldCjp, newCjp},
		{"apply", "-o", rebuilt, oldCjp, patchPath},
	} {
		if code := run(args); code != exitOK {
			t.Fatalf("run(%q) exited %d", args, code)
		}
	}

	newArc, err := os.ReadFile(newCjp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(rebuilt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newArc) {
		t.Fatal("applied archive differs from the packed new archive")
	}
	patch, err := os.ReadFile(patchPath)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(len(patch)) / float64(len(newArc)); ratio >= 0.25 {
		t.Fatalf("patch is %.1f%% of the full archive, want < 25%% (patch %d, archive %d)",
			100*ratio, len(patch), len(newArc))
	}
	t.Logf("delta smoke: %d classes (%d changed), archive %d bytes, patch %d bytes (%.1f%%)",
		len(newRaw), changed, len(newArc), len(patch),
		100*float64(len(patch))/float64(len(newArc)))

	// Failure modes: applying the patch to the wrong base exits 1, and
	// a corrupted patch is rejected, also with exit 1.
	if code := run([]string{"apply", "-o", filepath.Join(dir, "bad.cjp"), newCjp, patchPath}); code != exitFailure {
		t.Fatalf("apply to wrong base exited %d, want %d", code, exitFailure)
	}
	patch[len(patch)/2] ^= 0x40
	badPatch := filepath.Join(dir, "bad.cjpd")
	if err := os.WriteFile(badPatch, patch, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"apply", "-o", filepath.Join(dir, "bad.cjp"), oldCjp, badPatch}); code != exitFailure {
		t.Fatalf("apply of corrupt patch exited %d, want %d", code, exitFailure)
	}
}
