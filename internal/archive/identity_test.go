package archive_test

import (
	"archive/zip"
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"runtime"
	"testing"

	"classpack/internal/archive"
	"classpack/internal/bench"
)

// referenceZip builds a zip the way archive/zip does on its own: one
// CreateHeader and one Write per member, DEFLATE at BestCompression
// registered as the compressor. WriteJarN and WriteStored must produce
// exactly these bytes.
func referenceZip(t *testing.T, files []archive.File, method uint16) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	zw.RegisterCompressor(zip.Deflate, func(w io.Writer) (io.WriteCloser, error) {
		return flate.NewWriter(w, flate.BestCompression)
	})
	for _, f := range files {
		w, err := zw.CreateHeader(&zip.FileHeader{Name: f.Name, Method: method})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(f.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestJarMatchesArchiveZip pins the parallel jar writer to archive/zip's
// own output on two corpora at 1, 2 and NumCPU workers, plus the header
// corner cases: a name that needs the UTF-8 flag, a directory entry and
// an empty member.
func TestJarMatchesArchiveZip(t *testing.T) {
	edge := []archive.File{
		{Name: "café/Ünïcode$Ω.class", Data: []byte("not really a class, but compressible compressible")},
		{Name: "META-INF/", Data: nil},
		{Name: "empty.class", Data: []byte{}},
		{Name: `back\slash~.txt`, Data: []byte("x")},
	}
	cases := map[string][]archive.File{"edge": edge}
	for _, name := range []string{"tools", "202_jess"} {
		c, err := bench.Load(name, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		cases[name] = append(append([]archive.File(nil), c.StrippedFiles...), edge...)
	}
	levels := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		levels = append(levels, n)
	}
	for name, files := range cases {
		want := referenceZip(t, files, zip.Deflate)
		for _, j := range levels {
			t.Run(fmt.Sprintf("%s/j=%d", name, j), func(t *testing.T) {
				got, err := archive.WriteJarN(files, j)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("jar of %d members differs from archive/zip's (%d vs %d bytes)",
						len(files), len(got), len(want))
				}
			})
		}
		got, err := archive.WriteStored(files)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, referenceZip(t, files, zip.Store)) {
			t.Fatalf("%s: stored zip differs from archive/zip's", name)
		}
	}
}

// TestJarRejectsDirectoryBody keeps archive/zip's rule that a directory
// entry carries no data.
func TestJarRejectsDirectoryBody(t *testing.T) {
	files := []archive.File{{Name: "dir/", Data: []byte("body")}}
	if _, err := archive.WriteJarN(files, 1); err == nil {
		t.Fatal("WriteJarN accepted a directory entry with a body")
	}
}

// TestAssembleJarMatchesWriteJar assembles jars from members whose
// bodies DeflateBody made one at a time, out of order: the bytes equal
// WriteJar's, including for a name that needs the UTF-8 flag and an
// empty member.
func TestAssembleJarMatchesWriteJar(t *testing.T) {
	c, err := bench.Load("tools", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	files := append([]archive.File{
		{Name: "café/Ünïcode$Ω.class", Data: []byte("not really a class, but compressible compressible")},
		{Name: "empty.class", Data: []byte{}},
	}, c.StrippedFiles...)
	bodies := make([]archive.Body, len(files))
	for i := len(files) - 1; i >= 0; i-- {
		if bodies[i], err = archive.DeflateBody(files[i].Data); err != nil {
			t.Fatal(err)
		}
	}
	got, err := archive.AssembleJar(files, bodies)
	if err != nil {
		t.Fatal(err)
	}
	want, err := archive.WriteJar(files)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("assembled jar of %d members differs from WriteJar's (%d vs %d bytes)", len(files), len(got), len(want))
	}
}
