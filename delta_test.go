package classpack

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"

	"classpack/internal/classfile"
	"classpack/internal/faultinject"
	"classpack/internal/synth"
)

// bumpedSample returns the sample corpus and a deterministically
// mutated "next release" of it: ~rate of the classes differ by one
// bytecode constant, and one extra class is appended.
func bumpedSample(t *testing.T, rate float64) (v1, v2 [][]byte) {
	t.Helper()
	v1 = sample(t)
	mut, changed, err := synth.MutateClasses(v1, rate, 7)
	if err != nil {
		t.Fatal(err)
	}
	if changed == 0 {
		t.Fatal("version bump mutated nothing")
	}
	// The "release" also adds a class: a mutated twin of the first
	// mutable corpus member (different bytes than any old class).
	for _, f := range v1 {
		extra, ok, err := synth.MutateClass(f)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			return v1, append(mut, extra)
		}
	}
	t.Fatal("no corpus class is mutable")
	return nil, nil
}

// TestDeltaRoundTrip pins the tentpole acceptance:
// ApplyDelta(old, Diff(old, new)) == new byte-for-byte, across v2→v3,
// v3→v3 and v3→v2 pairs, at several chunk sizes, and at every worker
// count — with the patch bytes themselves identical at every -j, with
// no shared chunk cache, with a cold one and with one warmed by a Diff
// of the same pair.
func TestDeltaRoundTrip(t *testing.T) {
	oldFiles, newFiles := bumpedSample(t, 0.10)
	cases := []struct{ oldChunk, newChunk int }{
		{0, 8},  // v2 -> v3
		{8, 8},  // v3 -> v3, same chunking
		{4, 16}, // v3 -> v3, re-chunked
		{8, 0},  // v3 -> v2
	}
	for _, tc := range cases {
		oldOpts, newOpts := DefaultOptions(), DefaultOptions()
		oldOpts.ChunkClasses, newOpts.ChunkClasses = tc.oldChunk, tc.newChunk
		oldArc, err := Pack(oldFiles, &oldOpts)
		if err != nil {
			t.Fatal(err)
		}
		newArc, err := Pack(newFiles, &newOpts)
		if err != nil {
			t.Fatal(err)
		}
		var first []byte
		// A warm cache already holds what a Diff of this pair keeps.
		warm := NewChunkCache(1 << 20)
		if _, err := Diff(oldArc, newArc, &Options{ChunkCache: warm}); err != nil {
			t.Fatal(err)
		}
		for _, j := range []int{1, 2, 0} {
			for k, cache := range []*ChunkCache{nil, NewChunkCache(1 << 20), warm} {
				opts := &Options{Concurrency: j, ChunkCache: cache}
				patch, err := Diff(oldArc, newArc, opts)
				if err != nil {
					t.Fatalf("chunks %d->%d j=%d cache %d: Diff: %v", tc.oldChunk, tc.newChunk, j, k, err)
				}
				if first == nil {
					first = patch
				} else if !bytes.Equal(first, patch) {
					t.Fatalf("chunks %d->%d: j=%d cache %d produced different patch bytes", tc.oldChunk, tc.newChunk, j, k)
				}
				got, err := ApplyDelta(oldArc, patch, opts)
				if err != nil {
					t.Fatalf("chunks %d->%d j=%d cache %d: ApplyDelta: %v", tc.oldChunk, tc.newChunk, j, k, err)
				}
				if !bytes.Equal(got, newArc) {
					t.Fatalf("chunks %d->%d j=%d cache %d: reconstruction is not byte-identical", tc.oldChunk, tc.newChunk, j, k)
				}
			}
		}
		sum, err := DescribeDelta(first, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sum.NewClasses != len(newFiles) || sum.PayloadClasses == 0 ||
			sum.CopiedClasses+sum.PayloadClasses != sum.NewClasses {
			t.Fatalf("chunks %d->%d: summary %+v inconsistent", tc.oldChunk, tc.newChunk, sum)
		}
		if len(first) >= len(newArc) {
			t.Errorf("chunks %d->%d: patch (%d bytes) is no smaller than the archive (%d bytes)",
				tc.oldChunk, tc.newChunk, len(first), len(newArc))
		}
	}
}

// TestDeltaIdenticalArchives pins the degenerate case: diffing an
// archive against itself yields a payload-free patch a fraction of the
// archive's size, and — for chunked archives — decodes nothing on
// either side (unchanged chunks match by body hash alone).
func TestDeltaIdenticalArchives(t *testing.T) {
	opts := DefaultOptions()
	opts.ChunkClasses = 8
	arc, err := Pack(sample(t), &opts)
	if err != nil {
		t.Fatal(err)
	}
	oldA, err := OpenArchiveBytes(arc, nil)
	if err != nil {
		t.Fatal(err)
	}
	newA, err := OpenArchiveBytes(arc, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := diffArchives(oldA, newA, arc, arc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := oldA.DecodedBytes() + newA.DecodedBytes(); got != 0 {
		t.Errorf("identical diff decoded %d bytes, want 0", got)
	}
	if p.PayloadClasses() != 0 || len(p.Payload) != 0 {
		t.Errorf("identical diff carries a payload: %d classes, %d bytes",
			p.PayloadClasses(), len(p.Payload))
	}
	patch := p.Encode()
	if len(patch)*4 > len(arc) {
		t.Errorf("identity patch is %d bytes for a %d-byte archive", len(patch), len(arc))
	}
	got, err := ApplyDelta(arc, patch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, arc) {
		t.Fatal("identity patch did not reproduce the archive")
	}
}

// TestDeltaTouchesOnlyChangedChunks pins the lazy-diff property on a
// version bump over a corpus large enough to span many chunks: the
// diff decodes strictly less than a full extraction of both archives
// would, because unchanged chunks match by body hash alone.
func TestDeltaTouchesOnlyChangedChunks(t *testing.T) {
	p, err := synth.ProfileByName("rt")
	if err != nil {
		t.Fatal(err)
	}
	cfs, err := synth.GenerateStripped(p, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	oldFiles := make([][]byte, len(cfs))
	for i, cf := range cfs {
		if oldFiles[i], err = classfile.Write(cf); err != nil {
			t.Fatal(err)
		}
	}
	newFiles, changed, err := synth.MutateClasses(oldFiles, 0.05, 11)
	if err != nil {
		t.Fatal(err)
	}
	if changed == 0 || changed*4 > len(oldFiles) {
		t.Fatalf("version bump changed %d of %d classes", changed, len(oldFiles))
	}
	opts := DefaultOptions()
	opts.ChunkClasses = 4
	oldArc, err := Pack(oldFiles, &opts)
	if err != nil {
		t.Fatal(err)
	}
	newArc, err := Pack(newFiles, &opts)
	if err != nil {
		t.Fatal(err)
	}
	fullDecoded := func(arc []byte) int64 {
		a, err := OpenArchiveBytes(arc, nil)
		if err != nil {
			t.Fatal(err)
		}
		ords := make([]int, a.NumClasses())
		for i := range ords {
			ords[i] = i
		}
		if _, err := a.ExtractOrdinals(ords); err != nil {
			t.Fatal(err)
		}
		return a.DecodedBytes()
	}
	full := fullDecoded(oldArc) + fullDecoded(newArc)
	oldA, err := OpenArchiveBytes(oldArc, nil)
	if err != nil {
		t.Fatal(err)
	}
	newA, err := OpenArchiveBytes(newArc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := diffArchives(oldA, newA, oldArc, newArc, nil); err != nil {
		t.Fatal(err)
	}
	diffed := oldA.DecodedBytes() + newA.DecodedBytes()
	if diffed >= full {
		t.Errorf("diff decoded %d bytes, full extraction %d — no chunk was skipped", diffed, full)
	}
}

// chainSample returns three releases of the sample corpus packed in
// chunks of 2 classes: the second changes classes 0 and 4, and the
// third changes classes 1 and 5, the other classes of those chunks.
func chainSample(t *testing.T) [3][]byte {
	t.Helper()
	v1 := sample(t)
	mutate := func(files [][]byte, idx ...int) [][]byte {
		out := append([][]byte(nil), files...)
		for _, i := range idx {
			m, ok, err := synth.MutateClass(out[i])
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("corpus construction broken: class %d is not mutable", i)
			}
			out[i] = m
		}
		return out
	}
	v2 := mutate(v1, 0, 4)
	v3 := mutate(v2, 1, 5)
	return [3][]byte{packChunked(t, v1, 2), packChunked(t, v2, 2), packChunked(t, v3, 2)}
}

// checkDigestsOnly fails unless every entry of cache holds only
// digests and the cache's Bytes is their cost.
func checkDigestsOnly(t *testing.T, cache *ChunkCache) {
	t.Helper()
	cache.mu.Lock()
	defer cache.mu.Unlock()
	var cost int64
	for el := cache.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*chunkEntry)
		if e.whole || e.digests == nil || e.cost != e.digests.cost() {
			t.Fatalf("entry holds classes %t, digests %t, cost %d; want digests alone", e.whole, e.digests != nil, e.cost)
		}
		cost += e.cost
	}
	if cache.stats.Bytes != cost {
		t.Fatalf("cache Bytes = %d, want the digests' cost %d", cache.stats.Bytes, cost)
	}
}

// TestDiffChainDecodesEachChunkOnce diffs a chain of three releases
// through one shared cache, as jpackd's /delta does on each update: the
// second diff's old archive is the first diff's new one, so it decodes
// none of its old side's chunks. A repeat of the second diff adds no
// miss and no cache bytes, the cache holds only digests throughout, and
// every patch equals a cacheless Diff's and applies.
func TestDiffChainDecodesEachChunkOnce(t *testing.T) {
	arcs := chainSample(t)
	cache := NewChunkCache(1 << 20)
	diff := func(from, to []byte) (oldA, newA *Archive) {
		t.Helper()
		oldA, newA = openShared(t, from, cache), openShared(t, to, cache)
		p, err := diffArchives(oldA, newA, from, to, sharedOpts(cache))
		if err != nil {
			t.Fatal(err)
		}
		want, err := Diff(from, to, nil)
		if err != nil {
			t.Fatal(err)
		}
		patch := p.Encode()
		if !bytes.Equal(patch, want) {
			t.Fatal("patch through the shared cache differs from a cacheless Diff's")
		}
		got, err := ApplyDelta(from, patch, nil)
		if err != nil || !bytes.Equal(got, to) {
			t.Fatalf("ApplyDelta: %v, identical %t", err, bytes.Equal(got, to))
		}
		checkDigestsOnly(t, cache)
		return oldA, newA
	}
	oldA, newA := diff(arcs[0], arcs[1])
	if oldA.ChunkDecodes() != 2 || newA.ChunkDecodes() != 2 {
		t.Fatalf("first diff decoded %d old and %d new chunks, want the 2 changed chunks of each",
			oldA.ChunkDecodes(), newA.ChunkDecodes())
	}
	oldA, newA = diff(arcs[1], arcs[2])
	if oldA.ChunkDecodes() != 0 || newA.ChunkDecodes() != 2 {
		t.Fatalf("chained diff decoded %d old and %d new chunks, want 0 and 2", oldA.ChunkDecodes(), newA.ChunkDecodes())
	}
	before := cache.Stats()
	oldA, _ = diff(arcs[1], arcs[2])
	after := cache.Stats()
	if oldA.ChunkDecodes() != 0 || after.Misses != before.Misses || after.Bytes != before.Bytes {
		t.Fatalf("repeated diff: %d old decodes, stats %+v after %+v; want no decode, miss or byte added",
			oldA.ChunkDecodes(), after, before)
	}
	if want := int64(6 * sha256.Size * 3); after.Bytes != want {
		t.Fatalf("cache Bytes = %d, want 6 chunks of 2 class digests and a names digest, %d", after.Bytes, want)
	}
}

// TestDeltaMismatch: a well-formed patch applied to the wrong base
// archive fails with ErrDeltaMismatch, not garbage output.
func TestDeltaMismatch(t *testing.T) {
	oldFiles, newFiles := bumpedSample(t, 0.10)
	opts := DefaultOptions()
	opts.ChunkClasses = 8
	oldArc, err := Pack(oldFiles, &opts)
	if err != nil {
		t.Fatal(err)
	}
	newArc, err := Pack(newFiles, &opts)
	if err != nil {
		t.Fatal(err)
	}
	patch, err := Diff(oldArc, newArc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyDelta(newArc, patch, nil); !errors.Is(err, ErrDeltaMismatch) {
		t.Fatalf("ApplyDelta(wrong base) = %v, want ErrDeltaMismatch", err)
	}
}

// TestDeltaCorruptPatch drives a deterministic fault-injection plan
// over a real patch: every mutant must either fail with a CorruptError
// (the whole-patch CRC catches any single corruption) or — if the fault
// landed outside the encoded bytes — reproduce the new archive exactly.
func TestDeltaCorruptPatch(t *testing.T) {
	oldFiles, newFiles := bumpedSample(t, 0.10)
	opts := DefaultOptions()
	opts.ChunkClasses = 8
	oldArc, err := Pack(oldFiles, &opts)
	if err != nil {
		t.Fatal(err)
	}
	newArc, err := Pack(newFiles, &opts)
	if err != nil {
		t.Fatal(err)
	}
	patch, err := Diff(oldArc, newArc, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := faultinject.NewPlan(42)
	for i := 0; i < 60; i++ {
		fault := plan.Next(len(patch))
		mutant := fault.Apply(bytes.Clone(patch))
		if bytes.Equal(mutant, patch) {
			continue
		}
		got, err := ApplyDelta(oldArc, mutant, nil)
		if err == nil {
			if !bytes.Equal(got, newArc) {
				t.Fatalf("fault %s: corrupt patch applied to wrong bytes", fault.Name())
			}
			continue
		}
		if _, ok := AsCorrupt(err); !ok && !errors.Is(err, ErrDeltaMismatch) {
			t.Fatalf("fault %s: error %v is neither CorruptError nor ErrDeltaMismatch", fault.Name(), err)
		}
	}
}

// TestDeltaCaps: patch decoding honors MaxClassCount (ops) and
// MaxDecodedBytes (payload), both wrapping ErrTooLarge.
func TestDeltaCaps(t *testing.T) {
	oldFiles, newFiles := bumpedSample(t, 0.10)
	opts := DefaultOptions()
	opts.ChunkClasses = 8
	oldArc, err := Pack(oldFiles, &opts)
	if err != nil {
		t.Fatal(err)
	}
	newArc, err := Pack(newFiles, &opts)
	if err != nil {
		t.Fatal(err)
	}
	patch, err := Diff(oldArc, newArc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyDelta(oldArc, patch, &Options{MaxClassCount: 2}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("MaxClassCount=2: %v, want ErrTooLarge", err)
	}
	if _, err := ApplyDelta(oldArc, patch, &Options{MaxDecodedBytes: 64}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("MaxDecodedBytes=64: %v, want ErrTooLarge", err)
	}
	if _, err := ApplyDelta(oldArc, patch, nil); err != nil {
		t.Fatalf("default caps must pass: %v", err)
	}
}

// TestDeltaVersion1Target: version-1 archives cannot be delta targets.
func TestDeltaVersion1Target(t *testing.T) {
	raw := sample(t)
	asFiles := make([]File, len(raw))
	for i, d := range raw {
		asFiles[i] = File{Data: d}
	}
	v1arc := packLegacy(t, asFiles)
	opts := DefaultOptions()
	opts.ChunkClasses = 8
	v3arc, err := Pack(sample(t), &opts)
	if err != nil {
		t.Fatal(err)
	}
	// v1 as the *old* side is fine.
	patch, err := Diff(v1arc, v3arc, nil)
	if err != nil {
		t.Fatalf("Diff(v1 -> v3): %v", err)
	}
	got, err := ApplyDelta(v1arc, patch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v3arc) {
		t.Fatal("v1->v3 reconstruction differs")
	}
	// v1 as the *new* side is rejected.
	if _, err := Diff(v3arc, v1arc, nil); err == nil {
		t.Fatal("Diff accepted a version-1 delta target")
	}
}
