package classpack

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"classpack/internal/archive"
	"classpack/internal/bytecode"
	"classpack/internal/classfile"
	"classpack/internal/minijava"
	"classpack/internal/synth"
)

// sample returns raw (unstripped) classfile bytes from a generated corpus.
func sample(t testing.TB) [][]byte {
	t.Helper()
	p, err := synth.ProfileByName("Hanoi")
	if err != nil {
		t.Fatal(err)
	}
	cfs, err := synth.Generate(p, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	files := make([][]byte, len(cfs))
	for i, cf := range cfs {
		if files[i], err = classfile.Write(cf); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

func TestPackUnpackEqualsStrip(t *testing.T) {
	files := sample(t)
	packed, err := Pack(files, nil)
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	out, err := Unpack(packed)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if len(out) != len(files) {
		t.Fatalf("got %d files, want %d", len(out), len(files))
	}
	for i, f := range out {
		want, err := Strip(files[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f.Data, want) {
			t.Fatalf("file %d (%s): Unpack(Pack(x)) != Strip(x)", i, f.Name)
		}
		if err := Verify(f.Data); err != nil {
			t.Fatalf("file %d: %v", i, err)
		}
		if len(f.Name) < 7 || f.Name[len(f.Name)-6:] != ".class" {
			t.Fatalf("file %d: bad name %q", i, f.Name)
		}
	}
}

func TestPackCompresses(t *testing.T) {
	files := sample(t)
	packed, err := Pack(files, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, f := range files {
		total += len(f)
	}
	if len(packed)*2 >= total {
		t.Fatalf("packed %d bytes of %d raw: less than 2x", len(packed), total)
	}
}

func TestCustomOptions(t *testing.T) {
	files := sample(t)
	opts := Options{Scheme: SchemeBasic, StackState: false, Compress: true}
	packed, err := Pack(files, &opts)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Unpack(packed)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(files) {
		t.Fatal("class count mismatch")
	}
}

func TestJarRoundTrip(t *testing.T) {
	files := sample(t)
	var members []archive.File
	for i, data := range files {
		cf, err := classfile.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		_ = i
		members = append(members, archive.File{Name: cf.ThisClassName() + ".class", Data: data})
	}
	members = append(members, archive.File{Name: "logo.png", Data: []byte{1, 2, 3}})
	jar, err := archive.WriteJar(members)
	if err != nil {
		t.Fatal(err)
	}
	packed, skipped, err := PackJar(jar, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 1 || skipped[0] != "logo.png" {
		t.Fatalf("skipped = %v", skipped)
	}
	outJar, err := UnpackToJar(packed)
	if err != nil {
		t.Fatal(err)
	}
	outMembers, err := archive.ReadJar(outJar)
	if err != nil {
		t.Fatal(err)
	}
	if len(outMembers) != len(files) {
		t.Fatalf("jar has %d members, want %d", len(outMembers), len(files))
	}
	for _, m := range outMembers {
		if err := Verify(m.Data); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
	}
}

func TestPackStats(t *testing.T) {
	files := sample(t)
	s, err := PackStats(files, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Strings <= 0 || s.Opcodes <= 0 || s.Ints <= 0 || s.Refs <= 0 {
		t.Fatalf("empty stat categories: %+v", s)
	}
}

func TestErrors(t *testing.T) {
	if _, err := Pack([][]byte{{1, 2, 3}}, nil); err == nil {
		t.Error("Pack of junk succeeded")
	}
	if _, err := Unpack([]byte("not an archive")); err == nil {
		t.Error("Unpack of junk succeeded")
	}
	if _, err := Strip([]byte("junk")); err == nil {
		t.Error("Strip of junk succeeded")
	}
	if err := Verify([]byte("junk")); err == nil {
		t.Error("Verify of junk succeeded")
	}
	bad := Options{Scheme: 2 /* Freq: not decodable */, StackState: true, Compress: true}
	_, err := Pack(sample(t), &bad)
	if err == nil {
		t.Fatal("Pack with undecodable scheme succeeded")
	}
	if _, statsErr := PackStats(sample(t), &bad); statsErr == nil || statsErr.Error() != err.Error() {
		t.Errorf("PackStats with undecodable scheme: error %v, want Pack's %q", statsErr, err)
	}
}

func TestStripIdempotent(t *testing.T) {
	files := sample(t)
	once, err := Strip(files[0])
	if err != nil {
		t.Fatal(err)
	}
	twice, err := Strip(once)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(once, twice) {
		t.Fatal("Strip not idempotent")
	}
	if len(once) >= len(files[0]) {
		t.Fatalf("Strip did not shrink: %d -> %d", len(files[0]), len(once))
	}
}

func TestUnpackEachStreamsInOrder(t *testing.T) {
	files := sample(t)
	packed, err := Pack(files, nil)
	if err != nil {
		t.Fatal(err)
	}
	all, err := Unpack(packed)
	if err != nil {
		t.Fatal(err)
	}
	var seen []string
	err = UnpackStream(bytes.NewReader(packed), func(f File) error {
		seen = append(seen, f.Name)
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(all) {
		t.Fatalf("streamed %d classes, want %d", len(seen), len(all))
	}
	for i := range all {
		if seen[i] != all[i].Name {
			t.Fatalf("order diverged at %d: %s vs %s", i, seen[i], all[i].Name)
		}
	}
	// An aborting visitor stops the stream.
	calls := 0
	sentinel := fmt.Errorf("stop")
	err = UnpackStream(bytes.NewReader(packed), func(File) error {
		calls++
		return sentinel
	}, nil)
	if err != sentinel || calls != 1 {
		t.Fatalf("abort: err=%v calls=%d", err, calls)
	}
}

func TestOrderForEagerLoading(t *testing.T) {
	cfs, err := minijava.Compile(`
class Main { public static void main(String[] a) { System.out.println(1); } }
class C extends B { public int f() { return 3; } }
class B extends A { public int f() { return 2; } }
class A { public int f() { return 1; } }
`, minijava.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var files [][]byte
	for _, cf := range cfs {
		data, werr := classfile.Write(cf)
		if werr != nil {
			t.Fatal(werr)
		}
		files = append(files, data)
	}
	ordered, err := OrderForEagerLoading(files)
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, data := range ordered {
		cf, perr := classfile.Parse(data)
		if perr != nil {
			t.Fatal(perr)
		}
		pos[cf.ThisClassName()] = i
	}
	if !(pos["A"] < pos["B"] && pos["B"] < pos["C"]) {
		t.Fatalf("order violates superclass-first: %v", pos)
	}
	// Packing the ordered set still round-trips.
	packed, err := Pack(ordered, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unpack(packed); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyDeep(t *testing.T) {
	files := sample(t)
	for _, data := range files {
		if err := VerifyDeep(data); err != nil {
			t.Fatal(err)
		}
	}
	// A class with broken bytecode passes Verify but not VerifyDeep.
	cf, err := classfile.Parse(files[0])
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
	if err := Verify(bad); err != nil {
		t.Fatalf("structural verify rejected: %v", err)
	}
	if err := VerifyDeep(bad); err == nil {
		t.Fatal("VerifyDeep accepted stack underflow")
	}
}

// TestVerifyRefusesBadOperands: Verify holds each method's code to the
// rule Strip and Pack apply, so a class it accepts is not refused by
// them for its bytecode. The class is otherwise valid.
func TestVerifyRefusesBadOperands(t *testing.T) {
	files := sample(t)
	// mangle rewrites the first two-byte constant-pool operand in the
	// sample or, with a nil operand, replaces its method's code with one
	// cut off mid-instruction.
	mangle := func(operand func(cf *classfile.ClassFile) int) []byte {
		for _, data := range files {
			cf, err := classfile.Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			for mi := range cf.Methods {
				code := classfile.CodeOf(&cf.Methods[mi])
				if code == nil {
					continue
				}
				insns, err := bytecode.Decode(code.Code)
				if err != nil {
					t.Fatal(err)
				}
				for k := range insns {
					if bytecode.FormatOf(insns[k].Op) != bytecode.FmtCP2 {
						continue
					}
					if operand == nil {
						code.Code, code.Handlers = []byte{byte(bytecode.Sipush), 0}, nil
					} else {
						insns[k].A = operand(cf)
						if code.Code, err = bytecode.Encode(insns); err != nil {
							t.Fatal(err)
						}
					}
					out, err := classfile.Write(cf)
					if err != nil {
						t.Fatal(err)
					}
					return out
				}
			}
		}
		t.Fatal("no two-byte constant-pool operand in the sample")
		return nil
	}
	first := func(kind classfile.ConstKind) func(cf *classfile.ClassFile) int {
		return func(cf *classfile.ClassFile) int {
			for i := range cf.Pool {
				if cf.Pool[i].Kind == kind {
					return i
				}
			}
			t.Fatalf("no %v in the sample", kind)
			return 0
		}
	}
	cases := []struct {
		name    string
		operand func(cf *classfile.ClassFile) int
		want    string
	}{
		{"past the pool", func(cf *classfile.ClassFile) int { return len(cf.Pool) }, "out of range"},
		{"names a Utf8", first(classfile.KindUtf8), "is Utf8"},
		{"names a NameAndType", first(classfile.KindNameAndType), "is NameAndType"},
		{"code cut mid-instruction", nil, "truncated"},
	}
	for _, c := range cases {
		bad := mangle(c.operand)
		if err := Verify(bad); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Verify returned %v, want an error containing %q", c.name, err, c.want)
		}
		if _, err := Strip(bad); err == nil {
			t.Errorf("%s: Strip accepted the class", c.name)
		}
	}
}

// breakBytecode rewrites the first non-empty method body of a class to
// iadd-on-empty-stack followed by return: structurally valid, rejected
// by the dataflow verifier at pc 0.
func breakBytecode(t *testing.T, data []byte) []byte {
	t.Helper()
	cf, err := classfile.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	for mi := range cf.Methods {
		if code := classfile.CodeOf(&cf.Methods[mi]); code != nil && len(code.Code) > 0 {
			code.Code = []byte{0x60, 0xb1} // iadd; return
			break
		}
	}
	bad, err := classfile.Write(cf)
	if err != nil {
		t.Fatal(err)
	}
	return bad
}

func TestVerifyBytecode(t *testing.T) {
	files := sample(t)
	verdicts, err := VerifyBytecode(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) == 0 {
		t.Fatal("no method verdicts for a class with methods")
	}
	for _, v := range verdicts {
		if !v.OK || v.Err != "" {
			t.Fatalf("valid class got failing verdict: %+v", v)
		}
		if v.Class == "" || v.Method == "" || v.Desc == "" {
			t.Fatalf("verdict missing method identity: %+v", v)
		}
	}

	bad := breakBytecode(t, files[0])
	verdicts, err = VerifyBytecode(bad)
	if err != nil {
		t.Fatalf("per-method verify failed structurally: %v", err)
	}
	failures := 0
	for _, v := range verdicts {
		if v.OK {
			continue
		}
		failures++
		if v.PC < 0 || v.Op == "" || v.Err == "" {
			t.Fatalf("failing verdict lacks pc/op context: %+v", v)
		}
	}
	if failures != 1 {
		t.Fatalf("%d failing verdicts, want exactly the broken method", failures)
	}

	// File-level damage is the error, not a verdict.
	if _, err := VerifyBytecode([]byte{0xde, 0xad}); err == nil {
		t.Fatal("VerifyBytecode accepted garbage")
	}
}
