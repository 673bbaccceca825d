package classpack

import (
	"bytes"
	"testing"

	"classpack/internal/bench"
	"classpack/internal/core"
)

// packLegacy packs already-canonicalized class bytes into a version-1
// (checksum-free) archive, the layout every pre-integrity release wrote.
func packLegacy(t testing.TB, files []File) []byte {
	t.Helper()
	raw := make([][]byte, len(files))
	for i, f := range files {
		raw[i] = f.Data
	}
	cfs, err := parseAndStrip(raw, 0)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := core.PackVersion(cfs, (*Options)(nil).core(), core.Version1)
	if err != nil {
		t.Fatal(err)
	}
	return packed
}

// TestLegacyVersion1RoundTrip pins backward compatibility: a version-1
// archive (no per-stream checksums, no trailer) must still unpack
// byte-identically through the same Unpack entry point, dispatching on
// the header's version byte.
func TestLegacyVersion1RoundTrip(t *testing.T) {
	files := sample(t)
	stripped := make([][]byte, len(files))
	var err error
	for i, f := range files {
		if stripped[i], err = Strip(f); err != nil {
			t.Fatal(err)
		}
	}
	current, err := Pack(files, nil)
	if err != nil {
		t.Fatal(err)
	}
	if current[4] != core.Version2 {
		t.Fatalf("Pack emits version %d, want %d", current[4], core.Version2)
	}
	clean, err := Unpack(current)
	if err != nil {
		t.Fatal(err)
	}
	legacy := packLegacy(t, clean)
	if legacy[4] != core.Version1 {
		t.Fatalf("legacy archive has version %d, want %d", legacy[4], core.Version1)
	}
	if len(legacy) >= len(current) {
		t.Fatalf("legacy archive (%d bytes) not smaller than checked archive (%d bytes)",
			len(legacy), len(current))
	}
	out, err := Unpack(legacy)
	if err != nil {
		t.Fatalf("Unpack(version-1 archive): %v", err)
	}
	if len(out) != len(stripped) {
		t.Fatalf("legacy unpack: %d files, want %d", len(out), len(stripped))
	}
	for i, f := range out {
		if !bytes.Equal(f.Data, stripped[i]) {
			t.Fatalf("legacy unpack: file %d (%s) differs from Strip(x)", i, f.Name)
		}
	}
}

// TestCheckedArchiveDeterministicAcrossConcurrency pins that the
// version-2 layout — checksums included — is byte-identical at every
// worker count, and that each worker count round-trips.
func TestCheckedArchiveDeterministicAcrossConcurrency(t *testing.T) {
	files := sample(t)
	var want []byte
	for _, j := range concurrencyLevels() {
		opts := DefaultOptions()
		opts.Concurrency = j
		packed, err := Pack(files, &opts)
		if err != nil {
			t.Fatalf("Concurrency=%d: %v", j, err)
		}
		if packed[4] != core.Version2 {
			t.Fatalf("Concurrency=%d: version %d, want %d", j, packed[4], core.Version2)
		}
		if want == nil {
			want = packed
		} else if !bytes.Equal(packed, want) {
			t.Fatalf("Concurrency=%d: checked archive differs from serial archive", j)
		}
		if _, err := UnpackOpts(packed, &Options{Concurrency: j}); err != nil {
			t.Fatalf("UnpackOpts(j=%d) of checked archive: %v", j, err)
		}
	}
}

// TestChecksumOverhead pins the acceptance bound: the integrity layer
// (4 bytes per stream + 4-byte trailer) must cost at most 0.5% of the
// packed size on a bench-scale corpus.
func TestChecksumOverhead(t *testing.T) {
	_, clean := chaosCorpus(t)
	raw := make([][]byte, len(clean))
	for i, f := range clean {
		raw[i] = f.Data
	}
	cfs, err := parseAndStrip(raw, 0)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := core.PackVersion(cfs, (*Options)(nil).core(), core.Version1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := core.PackVersion(cfs, (*Options)(nil).core(), core.Version2)
	if err != nil {
		t.Fatal(err)
	}
	overhead := len(v2) - len(v1)
	if overhead <= 0 {
		t.Fatalf("checked archive not larger: v1 %d, v2 %d", len(v1), len(v2))
	}
	if 200*overhead > len(v1) {
		t.Fatalf("checksum overhead %d bytes is more than 0.5%% of %d packed bytes",
			overhead, len(v1))
	}
}

// maxChunkedOverhead bounds how much larger a version-3 archive at the
// default 64 classes per chunk may be than the version-2 archive of the
// same classes. Each chunk resets the reference models and carries its
// own container. Measured at scale 1.0: 4.5% on 202_jess and 4.9% on
// 213_javac, the figures of BENCH_2026-08-08_aa3a827_ratio.json. The
// bound leaves room for drift, not for chunks that cost markedly more.
const maxChunkedOverhead = 0.06

// TestChunkedOverhead pins the size cost of the version-3 layout
// against maxChunkedOverhead.
func TestChunkedOverhead(t *testing.T) {
	for _, name := range []string{"202_jess", "213_javac"} {
		c, err := bench.Load(name, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		raw := make([][]byte, len(c.StrippedFiles))
		for i, f := range c.StrippedFiles {
			raw[i] = f.Data
		}
		opts := DefaultOptions()
		v2, err := Pack(raw, &opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.ChunkClasses = core.DefaultChunkClasses
		v3, err := Pack(raw, &opts)
		if err != nil {
			t.Fatal(err)
		}
		overhead := float64(len(v3)-len(v2)) / float64(len(v2))
		t.Logf("%s: v2 %d bytes, v3 at %d classes per chunk %d bytes (+%.2f%%)",
			name, len(v2), core.DefaultChunkClasses, len(v3), 100*overhead)
		if overhead > maxChunkedOverhead {
			t.Errorf("%s: version 3 is %.2f%% larger than version 2, bound %.0f%%",
				name, 100*overhead, 100*maxChunkedOverhead)
		}
	}
}
