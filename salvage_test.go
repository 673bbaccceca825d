package classpack

import (
	"strings"
	"testing"

	"classpack/internal/classfile"
	"classpack/internal/encoding/varint"
	"classpack/internal/streams"
	"classpack/internal/synth"
)

// salvageClasses returns a few decoded synthetic classes for driving
// the reserialization path directly.
func salvageClasses(t *testing.T, n int) []*classfile.ClassFile {
	t.Helper()
	p, err := synth.ProfileByName("209_db")
	if err != nil {
		t.Fatal(err)
	}
	cfs, err := synth.GenerateStripped(p, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfs) < n {
		t.Fatalf("profile produced %d classes, need %d", len(cfs), n)
	}
	return cfs[:n]
}

// TestReserializeSkipsUnwritableClass drives the per-class
// reserialization step with one class that cannot be written back (an
// empty constant pool is unrepresentable in the class-file format). The
// broken class must be skipped alone, reported as classfile damage, and
// its neighbors must survive.
func TestReserializeSkipsUnwritableClass(t *testing.T) {
	good := salvageClasses(t, 2)
	broken := &classfile.ClassFile{} // empty Pool: classfile.Write fails
	classes := []*classfile.ClassFile{good[0], broken, good[1]}

	res := &SalvageResult{TotalClasses: len(classes)}
	reserializeInto(res, classes, 1)

	if res.Recovered != 2 || len(res.Files) != 2 {
		t.Fatalf("recovered %d files (%d counted), want 2", len(res.Files), res.Recovered)
	}
	if res.Lost != 1 {
		t.Fatalf("lost = %d, want 1", res.Lost)
	}
	for i, want := range []*classfile.ClassFile{good[0], good[1]} {
		raw, err := classfile.Write(want)
		if err != nil {
			t.Fatal(err)
		}
		if string(res.Files[i].Data) != string(raw) {
			t.Fatalf("file %d not byte-identical to direct Write", i)
		}
		if res.Files[i].Name != want.ThisClassName()+".class" {
			t.Fatalf("file %d named %q", i, res.Files[i].Name)
		}
	}
	if len(res.Damage) != 1 {
		t.Fatalf("damage = %v, want one classfile region", res.Damage)
	}
	d := res.Damage[0]
	if d.Stream != "classfile" || d.Offset != -1 || d.ClassesLost != 1 {
		t.Fatalf("damage region = %+v", d)
	}
	if !strings.Contains(d.Cause, "reserialize class") {
		t.Fatalf("damage cause %q", d.Cause)
	}
}

// TestReserializeAllUnwritable: when every decoded class fails to write
// back, the result is empty but the accounting still balances.
func TestReserializeAllUnwritable(t *testing.T) {
	classes := []*classfile.ClassFile{{}, {}}
	res := &SalvageResult{TotalClasses: 2}
	reserializeInto(res, classes, 2)
	if res.Recovered != 0 || res.Lost != 2 || len(res.Files) != 0 {
		t.Fatalf("recovered=%d lost=%d files=%d", res.Recovered, res.Lost, len(res.Files))
	}
	if len(res.Damage) != 2 {
		t.Fatalf("damage = %v, want two regions", res.Damage)
	}
}

// TestSalvageRejectsNonArchives: the hard-error return is reserved for
// inputs that are not packed archives at all.
func TestSalvageRejectsNonArchives(t *testing.T) {
	for _, data := range [][]byte{nil, {}, []byte("CJP1"), []byte("not an archive"), {0xca, 0xfe, 0xba, 0xbe}} {
		if res, err := Salvage(data, nil); err == nil {
			t.Fatalf("Salvage(%q) = %+v, want error", data, res)
		}
	}
	if _, err := Salvage([]byte("CJP1\x02\x00"), &Options{Concurrency: -2}); err == nil {
		t.Fatal("Salvage accepted invalid concurrency")
	}
}

// TestSalvageOverCapArchive: an archive whose directory declares more
// classes than MaxClassCount is rejected by the class-count cap before
// decoding, not salvaged into a bomb.
func TestSalvageOverCapArchive(t *testing.T) {
	packed, _ := chaosCorpus(t) // >= 50 classes
	opts := DefaultOptions()
	opts.MaxClassCount = 3
	res, err := Salvage(packed, &opts)
	if err != nil {
		// Rejecting outright is acceptable: the cap is a resource guard.
		return
	}
	if res.Recovered > 3 {
		t.Fatalf("salvage decoded %d classes past MaxClassCount 3", res.Recovered)
	}
}

// TestSalvageResultJar: the recovered files round-trip through the jar
// writer the same way a clean unpack does.
func TestSalvageResultJar(t *testing.T) {
	packed, clean := chaosCorpus(t)
	res, err := Salvage(packed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost != 0 || len(res.Files) != len(clean) {
		t.Fatalf("pristine salvage lost %d of %d", res.Lost, res.TotalClasses)
	}
	jar, err := res.Jar()
	if err != nil {
		t.Fatal(err)
	}
	want, err := UnpackToJar(packed)
	if err != nil {
		t.Fatal(err)
	}
	if string(jar) != string(want) {
		t.Fatal("salvage jar differs from UnpackToJar on a pristine archive")
	}
}

// rewriteStream re-serializes a version-2 archive with the raw bytes of
// one stream passed through edit, recomputing every checksum, so that
// only the decoders can notice the change.
func rewriteStream(t *testing.T, packed []byte, name string, edit func([]byte) []byte) []byte {
	t.Helper()
	body := packed[6:]
	secs, err := streams.Sections(body, true)
	if err != nil {
		t.Fatal(err)
	}
	r, err := streams.NewCheckedReaderLimit(body, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := streams.NewWriter(true, 1)
	for _, s := range secs {
		st := r.Stream(s.Name)
		raw, err := st.Raw(st.Remaining())
		if err != nil {
			t.Fatal(err)
		}
		if s.Name == name {
			raw = edit(raw)
		}
		_, _ = w.Stream(s.Name).Write(raw)
	}
	out, err := w.FinishChecked()
	if err != nil {
		t.Fatal(err)
	}
	return append(packed[:6:6], out...)
}

// TestDamagedRefStreamIsNamed sets the first reference of ref.class to
// a move-to-front position past every queue, with the checksums intact,
// so the reference decoder itself refuses it. UnpackOpts' CorruptError
// and Salvage's damage report must both name ref.class, the stream that
// holds the damage, not the decoder's own name for it.
func TestDamagedRefStreamIsNamed(t *testing.T) {
	var files [][]byte
	for _, cf := range salvageClasses(t, 2) {
		data, err := classfile.Write(cf)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, data)
	}
	packed, err := Pack(files, nil)
	if err != nil {
		t.Fatal(err)
	}
	damaged := rewriteStream(t, packed, "ref.class", func(raw []byte) []byte {
		_, n, err := varint.Uint(raw)
		if err != nil {
			t.Fatal(err)
		}
		return append(varint.AppendUint(nil, 1<<20), raw[n:]...)
	})
	_, err = UnpackOpts(damaged, nil)
	if ce, ok := AsCorrupt(err); !ok || ce.Stream != "ref.class" {
		t.Fatalf("UnpackOpts = %v, want a CorruptError on ref.class", err)
	}
	res, err := Salvage(damaged, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Damage) != 1 || res.Damage[0].Stream != "ref.class" {
		t.Fatalf("Salvage damage = %+v, want one region on ref.class", res.Damage)
	}
}
