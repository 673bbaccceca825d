package classpack

import (
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
// instruction arenas across classes.

const (
	packAllocCeiling   = 8000  // measured ~4.0k; ceiling ≈ 2x
	unpackAllocCeiling = 11000 // measured ~5.1k; ceiling ≈ 2x

	bytesScale         = 0.3
	unpackBytesCeiling = 18 << 20 // measured ~8.9 MB; ceiling ≈ 2x
)

func allocCorpus(t *testing.T, scale float64) ([][]byte, []byte) {
	t.Helper()
	c, err := bench.Load("213_javac", scale)
	if err != nil {
		t.Fatal(err)
	}
	files := make([][]byte, len(c.StrippedFiles))
	for i, f := range c.StrippedFiles {
		files[i] = f.Data
	}
	packed, err := Pack(files, nil)
	if err != nil {
		t.Fatal(err)
	}
	return files, packed
}

func TestPackAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement on full corpus")
	}
	files, _ := allocCorpus(t, benchScale)
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
	_, packed := allocCorpus(t, benchScale)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := UnpackN(packed, 1); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("unpack: %.0f allocs per run (%d packed bytes)", allocs, len(packed))
	if allocs > unpackAllocCeiling {
		t.Errorf("Unpack allocated %.0f times per run, ceiling %d", allocs, unpackAllocCeiling)
	}
}

// TestUnpackAllocBytes pins the heap bytes one serial unpack allocates.
// Allocation counts miss a slice that grows per method, because each
// growth is one allocation however large; bytes catch it.
func TestUnpackAllocBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement on full corpus")
	}
	_, packed := allocCorpus(t, bytesScale)
	bytes := bytesPerRun(5, func() {
		if _, err := UnpackN(packed, 1); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("unpack: %.0f bytes allocated per run (%d packed bytes)", bytes, len(packed))
	if bytes > unpackBytesCeiling {
		t.Errorf("Unpack allocated %.0f bytes per run, ceiling %d", bytes, unpackBytesCeiling)
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
