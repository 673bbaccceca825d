package classpack

import (
	"fmt"
	"runtime"
	"testing"

	"classpack/internal/archive"
	"classpack/internal/bench"
	"classpack/internal/classfile"
	"classpack/internal/core"
	"classpack/internal/refs"
	"classpack/internal/strip"
	"classpack/internal/synth"
)

// benchScale keeps `go test -bench=.` tractable; cmd/benchtables runs the
// full paper-scale corpora (-scale 1.0).
const benchScale = 0.05

// Tables 1–8 and Figure 2: one benchmark per experiment. Each regenerates
// the complete table over all 19 corpora (corpora are cached per process,
// so iterations time the measurement itself).

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table1(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table2(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table3(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table4(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table5(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table6(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table7(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table8(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure2(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCorpus loads the stripped javac-like corpus once.
func benchCorpus(b *testing.B) []*classfile.ClassFile {
	b.Helper()
	c, err := bench.Load("213_javac", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	return c.Stripped
}

// Throughput benchmarks for the compressor and decompressor (Table 7's
// underlying measurement, reported per byte of wire format).

func BenchmarkPack(b *testing.B) {
	cfs := benchCorpus(b)
	packed, err := core.Pack(cfs, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(packed)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Pack(cfs, core.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnpack(b *testing.B) {
	cfs := benchCorpus(b)
	packed, err := core.Pack(cfs, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(packed)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Unpack(packed); err != nil {
			b.Fatal(err)
		}
	}
}

// benchThroughputInput loads the javac-like corpus at scale as raw
// stripped file bytes — the whole-pipeline input the public API
// consumes — plus their total size for b.SetBytes.
func benchThroughputInput(b *testing.B, scale float64) ([][]byte, int64) {
	b.Helper()
	c, err := bench.Load("213_javac", scale)
	if err != nil {
		b.Fatal(err)
	}
	files := make([][]byte, len(c.StrippedFiles))
	var total int64
	for i, f := range c.StrippedFiles {
		files[i] = f.Data
		total += int64(len(f.Data))
	}
	return files, total
}

// benchJobLevels reports the worker counts the throughput benchmarks
// sweep: the serial baseline and all cores (when they differ).
func benchJobLevels() []int {
	if n := runtime.NumCPU(); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// BenchmarkPackThroughput measures end-to-end pack MB/s (parse + strip +
// encode + compress) over class-file input bytes, at -j 1 and -j
// NumCPU, tracking the parallel pipeline's speedup in BENCH_*.json.
func BenchmarkPackThroughput(b *testing.B) {
	files, total := benchThroughputInput(b, benchScale)
	for _, j := range benchJobLevels() {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			opts := DefaultOptions()
			opts.Concurrency = j
			b.SetBytes(total)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Pack(files, &opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUnpackThroughput measures end-to-end unpack MB/s (decompress
// + decode + reserialize) over reproduced class-file bytes, at -j 1 and
// -j NumCPU.
func BenchmarkUnpackThroughput(b *testing.B) {
	benchUnpackThroughput(b, func(packed []byte, j int) error {
		_, err := UnpackOpts(packed, &Options{Concurrency: j})
		return err
	})
}

// BenchmarkUnpackToJarThroughput measures end-to-end unpack-to-jar MB/s
// (the above plus per-member DEFLATE and zip assembly) at -j 1 and
// -j NumCPU: the work of the classpack-bench codec workload's unpack.
func BenchmarkUnpackToJarThroughput(b *testing.B) {
	benchUnpackThroughput(b, func(packed []byte, j int) error {
		_, err := UnpackToJarOpts(packed, &Options{Concurrency: j})
		return err
	})
}

// benchUnpackThroughput runs unpack on the packed javac-like corpus at
// each job level, reporting MB/s of reproduced class-file bytes.
func benchUnpackThroughput(b *testing.B, unpack func(packed []byte, j int) error) {
	files, total := benchThroughputInput(b, benchScale)
	packed, err := Pack(files, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, j := range benchJobLevels() {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			b.SetBytes(total)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := unpack(packed, j); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtractClassInOrder opens a version-3 archive without a
// shared chunk cache and extracts every class by name in archive order:
// the library loop that the Archive's private chunk cache serves. The
// corpus is full scale so the archive spans several chunks.
func BenchmarkExtractClassInOrder(b *testing.B) {
	files, total := benchThroughputInput(b, 1)
	opts := DefaultOptions()
	opts.ChunkClasses = 64
	packed, err := Pack(files, &opts)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := OpenArchiveBytes(packed, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range a.ClassNames() {
			if _, err := a.ExtractClass(name); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkApplyDelta applies the patches of a chain of 16 releases of
// 202_jess at scale 1.0, each from the one before by synth.MutateClasses
// at 5%, packed at -chunk 64: the releases and the client half of an
// update of classpack-bench's serve-write workload, which has jpackd
// pack at that chunk size. The patches are made before the timer
// starts; each op applies the next one, with default options, as that
// workload's client does.
//
//	go test -run NONE -bench ApplyDelta -benchmem .
func BenchmarkApplyDelta(b *testing.B) {
	const releases = 16
	p, err := synth.ProfileByName("202_jess")
	if err != nil {
		b.Fatal(err)
	}
	cfs, err := synth.GenerateStripped(p, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	files := make([][]byte, len(cfs))
	for i, cf := range cfs {
		if files[i], err = classfile.Write(cf); err != nil {
			b.Fatal(err)
		}
	}
	opts := DefaultOptions()
	opts.ChunkClasses = 64
	arcs := make([][]byte, releases)
	for k := range arcs {
		if k > 0 {
			if files, _, err = synth.MutateClasses(files, 0.05, int64(k)); err != nil {
				b.Fatal(err)
			}
		}
		if arcs[k], err = Pack(files, &opts); err != nil {
			b.Fatal(err)
		}
	}
	patches := make([][]byte, releases-1)
	for k := range patches {
		if patches[k], err = Diff(arcs[k], arcs[k+1], nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(patches)
		if _, err := ApplyDelta(arcs[k], patches[k], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benchmarks for the design decisions DESIGN.md calls out: each
// reports the packed size through the custom "bytes" metric so the cost
// of turning a feature off is visible next to its speed.

func benchPackOption(b *testing.B, opts core.Options) {
	cfs := benchCorpus(b)
	packed, err := core.Pack(cfs, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Pack(cfs, opts); err != nil {
			b.Fatal(err)
		}
	}
	// Reported after the loop: ResetTimer clears metrics recorded earlier.
	b.ReportMetric(float64(len(packed)), "packed-bytes")
}

func BenchmarkAblationDefault(b *testing.B) {
	benchPackOption(b, core.DefaultOptions())
}

func BenchmarkAblationNoStackState(b *testing.B) {
	benchPackOption(b, core.Options{Scheme: refs.MTFFull, StackState: false, Compress: true})
}

func BenchmarkAblationNoTransients(b *testing.B) {
	benchPackOption(b, core.Options{Scheme: refs.MTFContext, StackState: true, Compress: true})
}

func BenchmarkAblationNoContext(b *testing.B) {
	benchPackOption(b, core.Options{Scheme: refs.MTFTransients, StackState: true, Compress: true})
}

func BenchmarkAblationBasicScheme(b *testing.B) {
	benchPackOption(b, core.Options{Scheme: refs.Basic, StackState: true, Compress: true})
}

func BenchmarkAblationNoCompress(b *testing.B) {
	benchPackOption(b, core.Options{Scheme: refs.MTFFull, StackState: true, Compress: false})
}

// BenchmarkArithVsFlate reproduces the §5 coder comparison on virtual
// method reference indices.
func BenchmarkArithVsFlate(b *testing.B) {
	fl, ar, err := bench.ArithVsFlate(benchScale, "213_javac")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(fl), "flate-bytes")
	b.ReportMetric(float64(ar), "arith-bytes")
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.ArithVsFlate(benchScale, "213_javac"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseWrite parses and rewrites every class of tools at scale
// 1.0, as distributed (debug attributes included, the input of the
// codec workload's pack) and stripped (the classes Unpack rebuilds), so
// it times the class-file reader and writer alone.
func BenchmarkParseWrite(b *testing.B) {
	c, err := bench.Load("tools", 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, set := range []struct {
		name  string
		files []archive.File
	}{{"distributed", c.Unstripped}, {"stripped", c.StrippedFiles}} {
		b.Run(set.name, func(b *testing.B) {
			var total int64
			for _, f := range set.files {
				total += int64(len(f.Data))
			}
			b.SetBytes(total)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, f := range set.files {
					cf, err := classfile.Parse(f.Data)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := classfile.Write(cf); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkStrip measures the §2 canonicalization alone.
func BenchmarkStrip(b *testing.B) {
	p, err := synth.ProfileByName("213_javac")
	if err != nil {
		b.Fatal(err)
	}
	cfs, err := synth.Generate(p, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	raw := make([][]byte, len(cfs))
	total := 0
	for i, cf := range cfs {
		if raw[i], err = classfile.Write(cf); err != nil {
			b.Fatal(err)
		}
		total += len(raw[i])
	}
	b.SetBytes(int64(total))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, data := range raw {
			cf, err := classfile.Parse(data)
			if err != nil {
				b.Fatal(err)
			}
			if err := strip.Apply(cf, strip.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAblationPreload(b *testing.B) {
	opts := core.DefaultOptions()
	opts.Preload = true
	benchPackOption(b, opts)
}
