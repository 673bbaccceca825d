package classpack

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"classpack/internal/classfile"
	"classpack/internal/faultinject"
	"classpack/internal/synth"
)

// bumpedSample returns the sample corpus and a deterministically
// mutated "next release" of it (see bump).
func bumpedSample(t *testing.T, rate float64) (v1, v2 [][]byte) {
	t.Helper()
	v1 = sample(t)
	return v1, bump(t, v1, rate)
}

// bump returns a deterministically mutated "next release" of files:
// ~rate of the classes differ by one bytecode constant, and one extra
// class is appended.
func bump(t *testing.T, files [][]byte, rate float64) [][]byte {
	t.Helper()
	mut, _, err := synth.MutateClasses(files, rate, 7)
	if err != nil {
		t.Fatal(err)
	}
	// The "release" also adds a class: a mutated twin of the first
	// mutable corpus member (different bytes than any old class).
	for _, f := range files {
		extra, ok, err := synth.MutateClass(f)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			return append(mut, extra)
		}
	}
	t.Fatal("no corpus class is mutable")
	return nil
}

// TestDeltaRoundTrip pins the tentpole acceptance:
// ApplyDelta(old, Diff(old, new)) == new byte-for-byte. ApplyDelta packs
// the classes it decodes without re-parsing them, so this is also the
// check that such a repack equals Pack's. It holds across v2→v3, v3→v3
// and v3→v2 pairs of the sample corpus, at several chunk sizes and every
// worker count; for each coding choice that make digests packs with; and
// for a release of every synth profile at -j 1. The patch bytes are the
// same at every -j, with no shared chunk cache, with a cold one, and
// with one warmed by a Diff of the same pair, through which Diff builds
// only the payload's classes of a changed chunk.
func TestDeltaRoundTrip(t *testing.T) {
	type row struct {
		name               string
		oldFiles, newFiles [][]byte
		oldOpts, newOpts   Options
		jobs               []int
	}
	var rows []row
	oldFiles, newFiles := bumpedSample(t, 0.10)
	for _, c := range []struct{ oldChunk, newChunk int }{
		{0, 8},  // v2 -> v3
		{8, 8},  // v3 -> v3, same chunking
		{4, 16}, // v3 -> v3, re-chunked
		{8, 0},  // v3 -> v2
	} {
		r := row{fmt.Sprintf("chunks %d->%d", c.oldChunk, c.newChunk), oldFiles, newFiles,
			DefaultOptions(), DefaultOptions(), []int{1, 2, 0}}
		r.oldOpts.ChunkClasses, r.newOpts.ChunkClasses = c.oldChunk, c.newChunk
		rows = append(rows, r)
	}
	coding := func(name string, edit func(o *Options)) {
		o := DefaultOptions()
		edit(&o)
		rows = append(rows, row{name, oldFiles, newFiles, o, o, []int{1}})
	}
	for _, s := range []Scheme{SchemeSimple, SchemeBasic, SchemeMTFBasic, SchemeMTFTransients, SchemeMTFContext} {
		coding(fmt.Sprintf("scheme=%v", s), func(o *Options) { o.Scheme = s })
	}
	coding("stackstate=off", func(o *Options) { o.StackState = false })
	coding("compress=off", func(o *Options) { o.Compress = false })
	coding("preload=on", func(o *Options) { o.Preload = true })
	for _, p := range synth.Profiles() {
		cfs, err := synth.Generate(p, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		files := make([][]byte, len(cfs))
		for i, cf := range cfs {
			if files[i], err = classfile.Write(cf); err != nil {
				t.Fatal(err)
			}
		}
		o := DefaultOptions()
		o.ChunkClasses = 4
		rows = append(rows, row{p.Name, files, bump(t, files, 0.10), o, o, []int{1}})
	}

	for _, r := range rows {
		oldArc, err := Pack(r.oldFiles, &r.oldOpts)
		if err != nil {
			t.Fatal(err)
		}
		newArc, err := Pack(r.newFiles, &r.newOpts)
		if err != nil {
			t.Fatal(err)
		}
		var first []byte
		// A warm cache already holds what a Diff of this pair keeps.
		warm := NewChunkCache(1 << 20)
		if _, err := Diff(oldArc, newArc, &Options{ChunkCache: warm}); err != nil {
			t.Fatal(err)
		}
		for _, j := range r.jobs {
			for k, cache := range []*ChunkCache{nil, NewChunkCache(1 << 20), warm} {
				opts := &Options{Concurrency: j, ChunkCache: cache}
				patch, err := Diff(oldArc, newArc, opts)
				if err != nil {
					t.Fatalf("%s j=%d cache %d: Diff: %v", r.name, j, k, err)
				}
				if first == nil {
					first = patch
				} else if !bytes.Equal(first, patch) {
					t.Fatalf("%s: j=%d cache %d produced different patch bytes", r.name, j, k)
				}
				got, err := ApplyDelta(oldArc, patch, opts)
				if err != nil {
					t.Fatalf("%s j=%d cache %d: ApplyDelta: %v", r.name, j, k, err)
				}
				if !bytes.Equal(got, newArc) {
					t.Fatalf("%s j=%d cache %d: reconstruction is not byte-identical", r.name, j, k)
				}
			}
		}
		sum, err := DescribeDelta(first, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sum.NewClasses != len(r.newFiles) || sum.PayloadClasses == 0 ||
			sum.CopiedClasses+sum.PayloadClasses != sum.NewClasses {
			t.Fatalf("%s: summary %+v inconsistent", r.name, sum)
		}
		// A patch that copies no class carries the whole archive.
		if sum.CopiedClasses > 0 && len(first) >= len(newArc) {
			t.Errorf("%s: patch (%d bytes) is no smaller than the archive (%d bytes)", r.name, len(first), len(newArc))
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
// miss and no cache bytes, and decodes its new side's two changed
// chunks, whose digests the cache holds, only to build the classes the
// payload carries: it charges the bytes of a full decode of them. The
// cache holds only digests throughout, and every patch equals a
// cacheless Diff's and applies.
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
	full := newA.DecodedBytes()
	before := cache.Stats()
	oldA, newA = diff(arcs[1], arcs[2])
	after := cache.Stats()
	if oldA.ChunkDecodes() != 0 || after.Misses != before.Misses || after.Bytes != before.Bytes {
		t.Fatalf("repeated diff: %d old decodes, stats %+v after %+v; want no decode, miss or byte added",
			oldA.ChunkDecodes(), after, before)
	}
	if newA.ChunkDecodes() != 2 || newA.DecodedBytes() != full {
		t.Fatalf("repeated diff decoded %d new chunks, %d bytes; want the 2 changed chunks, %d bytes as in full",
			newA.ChunkDecodes(), newA.DecodedBytes(), full)
	}
	if want := int64(6 * sha256.Size * 3); after.Bytes != want {
		t.Fatalf("cache Bytes = %d, want 6 chunks of 2 class digests and a names digest, %d", after.Bytes, want)
	}
}

// TestDiffRefusesDamagedFraming: Diff reads a version-3 archive's
// chunks by its index's byte ranges, so it must also check the chunks'
// length prefixes, which strict Unpack walks. An archive whose first
// prefix is damaged under an intact index is refused on either side of
// a Diff, with a CorruptError on the chunk framing, as Unpack refuses it.
func TestDiffRefusesDamagedFraming(t *testing.T) {
	oldArc, newArc, _, _ := diffReleases(t)
	damagedOld, damagedNew := damageFraming(t, oldArc), damageFraming(t, newArc)
	for _, tc := range []struct {
		name              string
		damaged, from, to []byte
	}{
		{"new", damagedNew, oldArc, damagedNew},
		{"old", damagedOld, damagedOld, newArc},
	} {
		if _, err := Unpack(tc.damaged); err == nil {
			t.Fatalf("%s: Unpack accepted the damaged archive", tc.name)
		}
		patch, err := Diff(tc.from, tc.to, nil)
		if err == nil {
			t.Fatalf("%s: Diff returned a %d-byte patch of a damaged archive", tc.name, len(patch))
		}
		if ce, ok := AsCorrupt(err); !ok || ce.Stream != "chunks" {
			t.Fatalf("%s: Diff error %v, want a CorruptError on chunks", tc.name, err)
		}
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
