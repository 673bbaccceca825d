package classpack

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"classpack/internal/classfile"
	"classpack/internal/faultinject"
	"classpack/internal/synth"
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

// mutantOutcome is everything a caller can observe of decoding one
// damaged archive.
type mutantOutcome struct {
	UnpackErr     string
	UnpackCorrupt bool
	Files         int      // files UnpackOpts returned
	Visited       []string // classes UnpackStream visited, in order
	StreamErr     string
	Salvage       SalvageResult
	Recovered     []string // names of the classes Salvage recovered
}

func decodeMutant(data []byte, j int) mutantOutcome {
	var o mutantOutcome
	opts := &Options{Concurrency: j}
	files, err := UnpackOpts(data, opts)
	o.Files = len(files)
	if err != nil {
		o.UnpackErr = err.Error()
		_, o.UnpackCorrupt = AsCorrupt(err)
	}
	err = UnpackStream(bytes.NewReader(data), func(f File) error {
		o.Visited = append(o.Visited, f.Name)
		return nil
	}, opts)
	if err != nil {
		o.StreamErr = err.Error()
	}
	if res, err := Salvage(data, opts); err != nil {
		o.Salvage.Damage = []DamageRegion{{Cause: err.Error()}}
	} else {
		for _, f := range res.Files {
			o.Recovered = append(o.Recovered, f.Name)
		}
		o.Salvage = *res
		o.Salvage.Files, o.Salvage.concurrency = nil, 0
	}
	return o
}

// TestMutantOutcomesMatchAcrossWorkers decodes faultinject mutants of
// version-1, version-2 and version-3 (2 classes per chunk) archives at
// one worker, two and NumCPU. Building classes on workers while the
// decoder reads ahead must not change what a caller sees: the error
// text and its corrupt-ness, the classes visited before it, and
// Salvage's totals and damage regions.
func TestMutantOutcomesMatchAcrossWorkers(t *testing.T) {
	// 16 classes: enough to keep every pipeline slot busy, and v1
	// mutants fail in the middle of the class loop.
	p, err := synth.ProfileByName("202_jess")
	if err != nil {
		t.Fatal(err)
	}
	cfs, err := synth.Generate(p, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	files := make([][]byte, len(cfs))
	for i, cf := range cfs {
		if files[i], err = classfile.Write(cf); err != nil {
			t.Fatal(err)
		}
	}
	v2, err := Pack(files, nil)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Unpack(v2)
	if err != nil {
		t.Fatal(err)
	}
	chunked := DefaultOptions()
	chunked.ChunkClasses = 2
	v3, err := Pack(files, &chunked)
	if err != nil {
		t.Fatal(err)
	}
	archives := []struct {
		name string
		data []byte
	}{{"v1", packLegacy(t, clean)}, {"v2", v2}, {"v3", v3}}
	levels := []int{2}
	if n := runtime.NumCPU(); n > 2 {
		levels = append(levels, n)
	}
	for _, a := range archives {
		plan := faultinject.NewPlan(int64(len(a.data)))
		for k := 0; k < 16; k++ {
			fault := plan.Next(len(a.data))
			mutant := fault.Apply(a.data)
			want := decodeMutant(mutant, 1)
			for _, j := range levels {
				if got := decodeMutant(mutant, j); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s: at -j %d\n%+v\nat -j 1\n%+v", a.name, fault.Name(), j, got, want)
				}
			}
		}
	}
}
