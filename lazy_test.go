package classpack

import (
	"bytes"
	"errors"
	"io"
	"path"
	"runtime"
	"slices"
	"strings"
	"testing"

	"classpack/internal/bench"
	"classpack/internal/classfile"
	"classpack/internal/synth"
)

// packV3Sample packs the sample corpus into a v3 archive with small
// chunks.
func packV3Sample(t *testing.T, chunk int) ([][]byte, []byte) {
	t.Helper()
	files := sample(t)
	packed, err := Pack(files, &Options{Scheme: SchemeMTFFull, StackState: true, Compress: true, ChunkClasses: chunk})
	if err != nil {
		t.Fatal(err)
	}
	return files, packed
}

// TestExtractClassEqualsUnpack pins the ISSUE acceptance: ExtractClass
// output is byte-equal to the full-unpack output for every class in the
// bench corpus.
func TestExtractClassEqualsUnpack(t *testing.T) {
	c, err := bench.Load("213_javac", benchScale)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([][]byte, len(c.Unstripped))
	for i, f := range c.Unstripped {
		raw[i] = f.Data
	}
	opts := DefaultOptions()
	opts.ChunkClasses = 8
	packed, err := Pack(raw, &opts)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Unpack(packed)
	if err != nil {
		t.Fatal(err)
	}
	a, err := OpenArchiveBytes(packed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Version() != 3 {
		t.Fatalf("version = %d, want 3", a.Version())
	}
	if a.NumClasses() != len(full) {
		t.Fatalf("NumClasses = %d, want %d", a.NumClasses(), len(full))
	}
	for _, f := range full {
		got, err := a.ExtractClass(f.Name)
		if err != nil {
			t.Fatalf("ExtractClass(%q): %v", f.Name, err)
		}
		if !bytes.Equal(got, f.Data) {
			t.Fatalf("ExtractClass(%q) differs from full unpack", f.Name)
		}
	}
}

// TestOpenArchiveLazyReads pins the O(chunk) property on a ≥500-class
// archive: extracting one class reads and decodes only a small fraction
// of what a full decode does, and allocates proportionally.
func TestOpenArchiveLazyReads(t *testing.T) {
	if testing.Short() {
		t.Skip("large synth archive skipped in -short mode")
	}
	p, err := synth.ProfileByName("rt")
	if err != nil {
		t.Fatal(err)
	}
	cfs, err := synth.GenerateStripped(p, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfs) < 500 {
		t.Fatalf("corpus has %d classes, want >= 500", len(cfs))
	}
	raw := make([][]byte, len(cfs))
	for i, cf := range cfs {
		if raw[i], err = classfile.Write(cf); err != nil {
			t.Fatal(err)
		}
	}
	opts := DefaultOptions()
	opts.ChunkClasses = 16
	opts.Concurrency = 1
	packed, err := Pack(raw, &opts)
	if err != nil {
		t.Fatal(err)
	}

	// One extraction from a fresh archive.
	one, err := OpenArchiveBytes(packed, &opts)
	if err != nil {
		t.Fatal(err)
	}
	// Extraction goes by ordinal: the synth corpus carries a few
	// duplicate class names, which by-name extraction refuses.
	names := one.ClassNames()
	singleAlloc := allocBytes(t, func() {
		if _, err := one.ExtractOrdinals([]int{len(names) / 2}); err != nil {
			t.Fatal(err)
		}
	})
	singleRead, singleDecoded := one.BytesRead(), one.DecodedBytes()

	// A full extraction from another fresh archive, for scale.
	all, err := OpenArchiveBytes(packed, &opts)
	if err != nil {
		t.Fatal(err)
	}
	fullAlloc := allocBytes(t, func() {
		for g := range names {
			if _, err := all.ExtractOrdinals([]int{g}); err != nil {
				t.Fatal(err)
			}
		}
	})
	fullRead, fullDecoded := all.BytesRead(), all.DecodedBytes()

	if singleRead*5 > int64(len(packed)) {
		t.Errorf("single extract read %d of %d archive bytes (>1/5)", singleRead, len(packed))
	}
	if singleDecoded*10 > fullDecoded {
		t.Errorf("single extract decoded %d of %d total bytes (>1/10)", singleDecoded, fullDecoded)
	}
	if singleRead*10 > fullRead {
		t.Errorf("single extract read %d bytes, full extraction %d (>1/10)", singleRead, fullRead)
	}
	if singleAlloc*5 > fullAlloc {
		t.Errorf("single extract allocated %d bytes, full extraction %d (>1/5)", singleAlloc, fullAlloc)
	}
}

// TestDuplicateClassNames pins the ambiguity fix: when an archive holds
// two classes with the same name but different bytes, by-name extraction
// refuses with ErrAmbiguousClass instead of silently serving whichever
// occurrence was indexed last, while ordinal-based extraction still
// reaches every occurrence and matches a full Unpack.
func TestDuplicateClassNames(t *testing.T) {
	raw := sample(t)
	var dup []byte
	for _, f := range raw {
		if m, ok, err := synth.MutateClass(f); err != nil {
			t.Fatal(err)
		} else if ok {
			dup = m
			raw = [][]byte{f, raw[len(raw)-1], m}
			break
		}
	}
	if dup == nil {
		t.Fatal("no mutable class in corpus")
	}
	for _, chunk := range []int{0, 1} { // version 2 and version 3
		opts := DefaultOptions()
		opts.ChunkClasses = chunk
		packed, err := Pack(raw, &opts)
		if err != nil {
			t.Fatal(err)
		}
		full, err := Unpack(packed)
		if err != nil {
			t.Fatal(err)
		}
		if full[0].Name != full[2].Name || bytes.Equal(full[0].Data, full[2].Data) {
			t.Fatal("corpus construction broken: want same name, different bytes")
		}
		a, err := OpenArchiveBytes(packed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.ExtractClass(full[0].Name); !errors.Is(err, ErrAmbiguousClass) {
			t.Fatalf("chunk=%d: ExtractClass(dup) = %v, want ErrAmbiguousClass", chunk, err)
		}
		if _, err := a.ExtractClasses([]string{full[1].Name, full[0].Name}); !errors.Is(err, ErrAmbiguousClass) {
			t.Fatalf("chunk=%d: ExtractClasses(dup) = %v, want ErrAmbiguousClass", chunk, err)
		}
		// The unambiguous class still extracts by name.
		got, err := a.ExtractClass(full[1].Name)
		if err != nil {
			t.Fatalf("chunk=%d: ExtractClass(unique): %v", chunk, err)
		}
		if !bytes.Equal(got, full[1].Data) {
			t.Fatalf("chunk=%d: unique class bytes differ", chunk)
		}
		// Ordinal selection surfaces every occurrence.
		ords, err := a.SelectOrdinals(full[0].Name)
		if err != nil {
			t.Fatal(err)
		}
		if len(ords) != 2 || ords[0] != 0 || ords[1] != 2 {
			t.Fatalf("chunk=%d: SelectOrdinals(dup) = %v, want [0 2]", chunk, ords)
		}
		files, err := a.ExtractOrdinals([]int{0, 1, 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := range files {
			if files[i].Name != full[i].Name || !bytes.Equal(files[i].Data, full[i].Data) {
				t.Fatalf("chunk=%d: ordinal %d differs from full unpack", chunk, i)
			}
		}
		if _, err := a.ExtractOrdinals([]int{3}); err == nil {
			t.Fatalf("chunk=%d: ExtractOrdinals accepted an out-of-range ordinal", chunk)
		}
	}
}

// allocBytes measures the heap bytes allocated while running f.
func allocBytes(t *testing.T, f func()) int64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

func TestOpenArchiveV2Eager(t *testing.T) {
	files := sample(t)
	packed, err := Pack(files, nil) // ChunkClasses 0 → version 2
	if err != nil {
		t.Fatal(err)
	}
	full, err := Unpack(packed)
	if err != nil {
		t.Fatal(err)
	}
	a, err := OpenArchiveBytes(packed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Version() != 2 {
		t.Fatalf("version = %d, want 2", a.Version())
	}
	if a.Chunks() != nil || a.ChunkClasses() != 0 {
		t.Fatal("version-2 archive reported chunks")
	}
	for _, f := range full {
		got, err := a.ExtractClass(f.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, f.Data) {
			t.Fatalf("ExtractClass(%q) differs from full unpack", f.Name)
		}
	}
}

func TestExtractClasses(t *testing.T) {
	_, packed := packV3Sample(t, 2)
	a, err := OpenArchiveBytes(packed, nil)
	if err != nil {
		t.Fatal(err)
	}
	names := a.ClassNames()
	if len(names) < 4 {
		t.Fatalf("corpus too small: %d classes", len(names))
	}
	// Request out of archive order, spanning chunks, with a ".class"
	// suffix mixed in.
	req := []string{names[len(names)-1], names[0] + ".class", names[len(names)/2]}
	out, err := a.ExtractClasses(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(req) {
		t.Fatalf("got %d files, want %d", len(out), len(req))
	}
	for i, f := range out {
		wantName := req[i]
		if !bytes.HasSuffix([]byte(wantName), []byte(".class")) {
			wantName += ".class"
		}
		if f.Name != wantName {
			t.Fatalf("file %d: name %q, want %q", i, f.Name, wantName)
		}
		want, err := a.ExtractClass(req[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f.Data, want) {
			t.Fatalf("file %d (%s): ExtractClasses differs from ExtractClass", i, f.Name)
		}
	}
	if _, err := a.ExtractClasses([]string{"no/such/Class"}); !errors.Is(err, ErrClassNotFound) {
		t.Fatalf("missing class: err = %v, want ErrClassNotFound", err)
	}
	if _, err := a.ExtractClass("no/such/Class"); !errors.Is(err, ErrClassNotFound) {
		t.Fatalf("missing class: err = %v, want ErrClassNotFound", err)
	}
}

func TestSelect(t *testing.T) {
	_, packed := packV3Sample(t, 4)
	a, err := OpenArchiveBytes(packed, nil)
	if err != nil {
		t.Fatal(err)
	}
	names := a.ClassNames()
	// Every class, via a glob over its own package.
	all, err := a.Select("*/*", "*", "*/*/*", "*/*/*/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(names) {
		t.Fatalf("globs matched %d of %d classes", len(all), len(names))
	}
	// Exact name, with and without suffix.
	for _, pat := range []string{names[0], names[0] + ".class"} {
		got, err := a.Select(pat)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != names[0] {
			t.Fatalf("Select(%q) = %v, want [%s]", pat, got, names[0])
		}
	}
	// No match is empty, not an error.
	got, err := a.Select("no/such/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("Select(no/such/*) = %v, want empty", got)
	}
	// A malformed pattern is an error.
	if _, err := a.Select("a[/b"); err == nil {
		t.Fatal("Select accepted a malformed pattern")
	}
}

// TestSelectOrdinalsMatchesScan holds SelectOrdinals to a scan of every
// class name against every pattern, over an archive with duplicate
// names: archive order, one ordinal per occurrence, and one listing for
// a class that several patterns name.
func TestSelectOrdinalsMatchesScan(t *testing.T) {
	raw := sample(t)
	// Two classes occur twice with different bytes, and one twice
	// with the same bytes.
	var dups []string
	for _, f := range raw[:len(raw)-1] {
		m, ok, err := synth.MutateClass(f)
		if err != nil {
			t.Fatal(err)
		}
		if ok && len(dups) < 2 {
			raw = append(raw, m)
			dups = append(dups, classNameOf(t, f))
		}
	}
	if len(dups) < 2 {
		t.Fatal("fewer than two mutable classes in the sample")
	}
	same := classNameOf(t, raw[len(raw)/2])
	raw = append(raw, raw[len(raw)/2])
	for _, chunk := range []int{0, 3} { // version 2 and version 3
		opts := DefaultOptions()
		opts.ChunkClasses = chunk
		packed, err := Pack(raw, &opts)
		if err != nil {
			t.Fatal(err)
		}
		a, err := OpenArchiveBytes(packed, nil)
		if err != nil {
			t.Fatal(err)
		}
		names := a.ClassNames()
		for _, n := range append(dups, same) {
			if c := len(scanOrdinals(names, []string{n})); c != 2 {
				t.Fatalf("chunk=%d: %s occurs %d times, want 2", chunk, n, c)
			}
		}
		// first and last are the first and last names the archive holds
		// once, so a list of them alone needs no scan.
		var once []string
		for _, n := range names {
			if len(scanOrdinals(names, []string{n})) == 1 {
				once = append(once, n)
			}
		}
		first, last := once[0], once[len(once)-1]
		pkg := first[:strings.LastIndexByte(first, '/')+1]
		for _, pats := range [][]string{
			nil,
			{first},
			{first + ".class"},
			{last, first},
			{first, first + ".class", first},
			{last, "no/such/Class", first, last + ".class"},
			{dups[0]},
			{dups[1] + ".class", last},
			{dups[0], dups[1], dups[0]},
			{same},
			{"no/such/Class"},
			{"no/such/Class", last, "Other.class"},
			{pkg + "*"},
			{pkg + "*", first, dups[0]},
			{"*", last},
			{"no/such/*", same + ".class"},
			{"[a-z]*/*", dups[1]},
		} {
			got, err := a.SelectOrdinals(pats...)
			if err != nil {
				t.Fatalf("chunk=%d: SelectOrdinals(%q): %v", chunk, pats, err)
			}
			if want := scanOrdinals(names, pats); !slices.Equal(got, want) {
				t.Fatalf("chunk=%d: SelectOrdinals(%q) = %v, a scan finds %v", chunk, pats, got, want)
			}
		}
	}
}

// scanOrdinals is SelectOrdinals by brute force: each name against each
// pattern.
func scanOrdinals(names, patterns []string) []int {
	var out []int
	for i, n := range names {
		for _, p := range patterns {
			match := strings.TrimSuffix(p, ".class") == n
			if strings.ContainsAny(p, "*?[\\") {
				match, _ = path.Match(p, n)
			}
			if match {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

func classNameOf(t *testing.T, data []byte) string {
	t.Helper()
	cf, err := classfile.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	return cf.ThisClassName()
}

func TestPackStreamPublic(t *testing.T) {
	files := sample(t)
	opts := DefaultOptions()
	opts.ChunkClasses = 4
	packed, err := Pack(files, &opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	i := 0
	err = PackStream(&buf, func() ([]byte, error) {
		if i == len(files) {
			return nil, io.EOF
		}
		f := files[i]
		i++
		return f, nil
	}, &opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), packed) {
		t.Fatalf("PackStream output (%d bytes) != Pack output (%d bytes)", buf.Len(), len(packed))
	}
}

func TestUnpackStreamPublic(t *testing.T) {
	files := sample(t)
	for _, chunk := range []int{0, 3} { // version 2 and version 3
		opts := DefaultOptions()
		opts.ChunkClasses = chunk
		packed, err := Pack(files, &opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Unpack(packed)
		if err != nil {
			t.Fatal(err)
		}
		var got []File
		err = UnpackStream(bytes.NewReader(packed), func(f File) error {
			got = append(got, f)
			return nil
		}, nil)
		if err != nil {
			t.Fatalf("chunk=%d: UnpackStream: %v", chunk, err)
		}
		if len(got) != len(want) {
			t.Fatalf("chunk=%d: got %d files, want %d", chunk, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || !bytes.Equal(got[i].Data, want[i].Data) {
				t.Fatalf("chunk=%d: file %d differs", chunk, i)
			}
		}
	}
}

func TestV3RoundTripAllConcurrency(t *testing.T) {
	files := sample(t)
	opts := DefaultOptions()
	opts.ChunkClasses = 4
	var first []byte
	for _, j := range []int{1, 2, 8, 0} {
		opts.Concurrency = j
		packed, err := Pack(files, &opts)
		if err != nil {
			t.Fatalf("j=%d: %v", j, err)
		}
		if first == nil {
			first = packed
		} else if !bytes.Equal(first, packed) {
			t.Fatalf("j=%d produced different v3 bytes", j)
		}
		out, err := UnpackOpts(packed, &Options{Concurrency: j})
		if err != nil {
			t.Fatalf("j=%d: unpack: %v", j, err)
		}
		for i, f := range out {
			want, err := Strip(files[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(f.Data, want) {
				t.Fatalf("j=%d: file %d differs from Strip", j, i)
			}
		}
	}
}
