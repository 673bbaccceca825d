package classpack

import (
	"fmt"
	"runtime"
	"testing"

	"classpack/internal/bench"
)

// Allocation regression tests. The codec's hot paths went through an
// allocation campaign (zero-copy parsing, per-worker arenas, decoder
// caches); these tests pin generous ceilings — several times above the
// measured values — so a future change that reintroduces a per-item
// allocation in a per-file or per-instruction loop trips the test, while
// ordinary drift (map growth heuristics, runtime changes) does not.
//
// Measured at the time of writing (213_javac corpus at benchScale):
// pack ≈ 4.0k allocs, unpack ≈ 5.1k allocs; before the campaign the same
// corpus cost ≈ 28k and ≈ 16k respectively.
//
// The bytes ceiling uses the corpus at bytesScale, where per-method
// costs outweigh the fixed per-archive ones (stream buffers, inflaters):
// unpack ≈ 8.9 MB, against ≈ 25.8 MB before the decoder reused its
// instruction arenas across classes. Once the decoder's instructions
// pointed to their operands instead of holding them, a serial unpack
// measured ≈ 7.8 MB (version 3: ≈ 19.0 MB) and one with two build
// workers ≈ 9.0 MB (≈ 20.8 MB). Pack at bytesScale, which walks the
// classes once and records each reference, measured 7.5–7.9 MB serial
// and 7.7–8.3 MB with two workers; with the former counting pass both
// measured ≈ 7.0 MB.

const (
	packAllocCeiling   = 8000  // measured ~4.0k; ceiling ≈ 2x
	unpackAllocCeiling = 11000 // measured ~5.1k; ceiling ≈ 2x

	bytesScale         = 0.3
	packBytesCeiling   = 15 << 20 // measured ~7.7 MB (-j 2: ~8.0 MB); ceiling ≈ 2x
	unpackBytesCeiling = 18 << 20 // measured ~8.9 MB; ceiling ≈ 2x

	// Version 3 at 2 classes per chunk: the corpus spans 3 chunks at
	// benchScale (6 classes) and 16 at bytesScale (32 classes), so these
	// pin what the container walk, the index check and each chunk's own
	// stream reader and reference models cost on top of the classes.
	unpackV3AllocCeiling = 15500    // measured ~7.65k; ceiling ≈ 2x
	unpackV3BytesCeiling = 56 << 20 // measured ~28.0 MB; ceiling ≈ 2x
)

// allocCorpus loads 213_javac at scale and packs it with the default
// options, as version 3 with that many classes per chunk when
// chunkClasses is positive.
func allocCorpus(t *testing.T, scale float64, chunkClasses int) ([][]byte, []byte) {
	t.Helper()
	c, err := bench.Load("213_javac", scale)
	if err != nil {
		t.Fatal(err)
	}
	files := make([][]byte, len(c.StrippedFiles))
	for i, f := range c.StrippedFiles {
		files[i] = f.Data
	}
	opts := DefaultOptions()
	opts.ChunkClasses = chunkClasses
	packed, err := Pack(files, &opts)
	if err != nil {
		t.Fatal(err)
	}
	return files, packed
}

// unpackRows are the layouts the unpack allocation tests measure: the
// monolithic version 2 and version 3 at 2 classes per chunk, each
// serial and with two build workers under the same ceiling. The -j 2
// rows hold the pipeline's slots and per-worker scratch to what the
// serial decoder allocates.
var unpackRows = []struct {
	name         string
	chunkClasses int
	concurrency  int
	allocs       float64 // ceiling at benchScale
	bytes        float64 // ceiling at bytesScale
}{
	{"v2", 0, 1, unpackAllocCeiling, unpackBytesCeiling},
	{"v3", 2, 1, unpackV3AllocCeiling, unpackV3BytesCeiling},
	{"v2-j2", 0, 2, unpackAllocCeiling, unpackBytesCeiling},
	{"v3-j2", 2, 2, unpackV3AllocCeiling, unpackV3BytesCeiling},
}

func TestPackAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement on full corpus")
	}
	files, _ := allocCorpus(t, benchScale, 0)
	opts := DefaultOptions()
	opts.Concurrency = 1 // serial: no per-worker goroutine noise
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Pack(files, &opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("pack: %.0f allocs per run (%d files)", allocs, len(files))
	if allocs > packAllocCeiling {
		t.Errorf("Pack allocated %.0f times per run, ceiling %d", allocs, packAllocCeiling)
	}
}

func TestUnpackAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement on full corpus")
	}
	for _, row := range unpackRows {
		t.Run(row.name, func(t *testing.T) {
			_, packed := allocCorpus(t, benchScale, row.chunkClasses)
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := UnpackOpts(packed, &Options{Concurrency: row.concurrency}); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("unpack: %.0f allocs per run (%d packed bytes)", allocs, len(packed))
			if allocs > row.allocs {
				t.Errorf("Unpack allocated %.0f times per run, ceiling %.0f", allocs, row.allocs)
			}
		})
	}
}

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool

// TestPackAllocBytes pins the heap bytes one pack allocates, serial and
// with two workers coding the reference pools and trial-coding streams.
func TestPackAllocBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement on full corpus")
	}
	if raceEnabled {
		// The race detector makes sync.Pool drop a quarter of the
		// values put back, so Pack reallocates pooled DEFLATE
		// compressors and the bytes measure the detector, not Pack.
		t.Skip("heap bytes are not Pack's under the race detector")
	}
	files, _ := allocCorpus(t, bytesScale, 0)
	for _, j := range []int{1, 2} {
		t.Run(fmt.Sprintf("j%d", j), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Concurrency = j
			bytes := bytesPerRun(5, func() {
				if _, err := Pack(files, &opts); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("pack: %.0f bytes allocated per run (%d files)", bytes, len(files))
			if bytes > packBytesCeiling {
				t.Errorf("Pack allocated %.0f bytes per run, ceiling %d", bytes, packBytesCeiling)
			}
		})
	}
}

// TestUnpackAllocBytes pins the heap bytes one unpack allocates.
// Allocation counts miss a slice that grows per method, because each
// growth is one allocation however large; bytes catch it.
func TestUnpackAllocBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement on full corpus")
	}
	for _, row := range unpackRows {
		t.Run(row.name, func(t *testing.T) {
			_, packed := allocCorpus(t, bytesScale, row.chunkClasses)
			bytes := bytesPerRun(5, func() {
				if _, err := UnpackOpts(packed, &Options{Concurrency: row.concurrency}); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("unpack: %.0f bytes allocated per run (%d packed bytes)", bytes, len(packed))
			if bytes > row.bytes {
				t.Errorf("Unpack allocated %.0f bytes per run, ceiling %.0f", bytes, row.bytes)
			}
		})
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes
// one call of f allocates, measured after a warm-up call with
// GOMAXPROCS set to 1.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
