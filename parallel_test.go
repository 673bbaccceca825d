package classpack

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
)

// concurrencyLevels is the ladder the determinism tests sweep: the
// serial path, a fixed small pool, an oversubscribed pool, and
// whatever this machine calls "all cores".
func concurrencyLevels() []int {
	levels := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		levels = append(levels, n)
	}
	return levels
}

// TestPackDeterministicAcrossConcurrency packs one corpus at every
// worker count and requires byte-identical archives: parallelism is a
// local performance knob, never a format input.
func TestPackDeterministicAcrossConcurrency(t *testing.T) {
	files := sample(t)
	var want []byte
	for _, j := range concurrencyLevels() {
		opts := DefaultOptions()
		opts.Concurrency = j
		packed, err := Pack(files, &opts)
		if err != nil {
			t.Fatalf("Concurrency=%d: %v", j, err)
		}
		if want == nil {
			want = packed
			continue
		}
		if !bytes.Equal(packed, want) {
			t.Fatalf("Concurrency=%d: archive differs from serial archive (%d vs %d bytes)",
				j, len(packed), len(want))
		}
	}
}

// TestUnpackDeterministicAcrossConcurrency unpacks one archive at every
// worker count and requires Unpack(Pack(x)) == Strip(x) file-for-file
// at each level.
func TestUnpackDeterministicAcrossConcurrency(t *testing.T) {
	files := sample(t)
	packed, err := Pack(files, nil)
	if err != nil {
		t.Fatal(err)
	}
	stripped := make([][]byte, len(files))
	for i, data := range files {
		if stripped[i], err = Strip(data); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range concurrencyLevels() {
		out, err := UnpackOpts(packed, &Options{Concurrency: j})
		if err != nil {
			t.Fatalf("UnpackOpts(j=%d): %v", j, err)
		}
		if len(out) != len(files) {
			t.Fatalf("UnpackOpts(j=%d): %d files, want %d", j, len(out), len(files))
		}
		for i, f := range out {
			if !bytes.Equal(f.Data, stripped[i]) {
				t.Fatalf("UnpackOpts(j=%d): file %d (%s) differs from Strip(x)", j, i, f.Name)
			}
		}
	}
}

// TestPackStatsDeterministicAcrossConcurrency covers the measurement
// path, whose trial codings also fan out.
func TestPackStatsDeterministicAcrossConcurrency(t *testing.T) {
	files := sample(t)
	var want Stats
	for _, j := range concurrencyLevels() {
		opts := DefaultOptions()
		opts.Concurrency = j
		s, err := PackStats(files, &opts)
		if err != nil {
			t.Fatalf("Concurrency=%d: %v", j, err)
		}
		if j == 1 {
			want = s
		} else if s != want {
			t.Fatalf("Concurrency=%d: stats %+v differ from serial %+v", j, s, want)
		}
	}
}

// TestPackParallelErrorMatchesSerial pins the error contract: the
// parallel pipeline reports the same (lowest-index) failure the serial
// loop would.
func TestPackParallelErrorMatchesSerial(t *testing.T) {
	files := sample(t)
	if len(files) < 3 {
		t.Skip("corpus too small")
	}
	files[2] = []byte{0xde, 0xad}
	files[len(files)-1] = []byte{0xbe, 0xef}
	var serialErr error
	for _, j := range concurrencyLevels() {
		opts := DefaultOptions()
		opts.Concurrency = j
		_, err := Pack(files, &opts)
		if err == nil {
			t.Fatalf("Concurrency=%d: corrupt input accepted", j)
		}
		if j == 1 {
			serialErr = err
		} else if err.Error() != serialErr.Error() {
			t.Fatalf("Concurrency=%d: error %q, serial error %q", j, err, serialErr)
		}
	}
}

// TestVerifyAll checks the parallel verifier fan-out keeps per-file
// error slots aligned with its input.
func TestVerifyAll(t *testing.T) {
	files := sample(t)
	files = append(files, []byte{1, 2, 3})
	for _, j := range []int{1, 4} {
		errs := VerifyAll(files, false, j)
		if len(errs) != len(files) {
			t.Fatalf("j=%d: %d error slots for %d files", j, len(errs), len(files))
		}
		for i, err := range errs[:len(errs)-1] {
			if err != nil {
				t.Fatalf("j=%d: valid file %d rejected: %v", j, i, err)
			}
		}
		if errs[len(errs)-1] == nil {
			t.Fatalf("j=%d: corrupt file accepted", j)
		}
	}
	deep := VerifyAll(files[:1], true, 0)
	if deep[0] != nil {
		t.Fatalf("deep verify rejected valid file: %v", deep[0])
	}
}

// TestUnpackToJarNDeterministic covers the jar rebuild path at several
// worker counts.
func TestUnpackToJarNDeterministic(t *testing.T) {
	files := sample(t)
	packed, err := Pack(files, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, j := range []int{1, 3, 0} {
		jar, err := UnpackToJarOpts(packed, &Options{Concurrency: j})
		if err != nil {
			t.Fatalf("j=%d: %v", j, err)
		}
		if want == nil {
			want = jar
		} else if !bytes.Equal(jar, want) {
			t.Fatalf("j=%d: jar differs across concurrency", j)
		}
	}
}

// TestConcurrentPackUnpackSharedInput stresses whole-API thread safety:
// many goroutines pack and unpack the same shared input slice at once.
// Run with -race to make this a hygiene check.
func TestConcurrentPackUnpackSharedInput(t *testing.T) {
	files := sample(t)
	packed, err := Pack(files, nil)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	done := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			opts := DefaultOptions()
			opts.Concurrency = 1 + g%3
			p, err := Pack(files, &opts)
			if err != nil {
				done <- err
				return
			}
			if !bytes.Equal(p, packed) {
				done <- fmt.Errorf("goroutine %d: archive differs", g)
				return
			}
			if _, err := UnpackOpts(p, &Options{Concurrency: 1 + g%3}); err != nil {
				done <- err
				return
			}
			done <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
