package custom

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"classpack/internal/archive"
)

func roundTrip(t *testing.T, seqs [][]byte, maxNew int) ([][]int, []Pair) {
	t.Helper()
	rewritten, dict := Compress(seqs, 256, maxNew)
	back := Expand(rewritten, dict, 256)
	if len(back) != len(seqs) {
		t.Fatalf("got %d sequences, want %d", len(back), len(seqs))
	}
	for i := range seqs {
		if !bytes.Equal(back[i], seqs[i]) {
			t.Fatalf("sequence %d: expand(compress) != identity\n got %v\nwant %v",
				i, back[i], seqs[i])
		}
	}
	return rewritten, dict
}

func TestRoundTripSimplePatterns(t *testing.T) {
	seqs := [][]byte{
		bytes.Repeat([]byte{1, 2, 3}, 50),
		bytes.Repeat([]byte{1, 2, 9, 1, 2}, 30),
		{5},
		{},
	}
	rewritten, dict := roundTrip(t, seqs, 16)
	if len(dict) == 0 {
		t.Fatal("no custom opcodes introduced on a repetitive stream")
	}
	before, after := 0, 0
	for i := range seqs {
		before += len(seqs[i])
		after += len(rewritten[i])
	}
	if after >= before {
		t.Fatalf("symbol count grew: %d -> %d", before, after)
	}
}

func TestRoundTripSkipPatterns(t *testing.T) {
	// aload_0 (42), varying register, getfield-like (180): the classic
	// skip-pair pattern.
	var seq []byte
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		seq = append(seq, 42, byte(rng.Intn(8)), 180)
	}
	rewritten, dict := roundTrip(t, [][]byte{seq}, 8)
	hasSkip := false
	for _, p := range dict {
		if p.Skip {
			hasSkip = true
		}
	}
	if !hasSkip {
		t.Log("dict:", dict)
		t.Fatal("no skip pair selected for a skip-dominated stream")
	}
	if len(rewritten[0]) >= len(seq) {
		t.Fatal("skip rewriting did not shrink the stream")
	}
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		var seqs [][]byte
		for s := 0; s < 1+rng.Intn(5); s++ {
			// Skewed alphabet gives pairs to find.
			seq := make([]byte, rng.Intn(600))
			for i := range seq {
				seq[i] = byte(rng.Intn(12))
			}
			seqs = append(seqs, seq)
		}
		roundTrip(t, seqs, 20)
	}
}

func TestNestedPairs(t *testing.T) {
	// Force hierarchical pairs: (1 2) repeated then ((1 2) 3).
	seq := bytes.Repeat([]byte{1, 2, 3, 1, 2, 3, 1, 2, 4}, 40)
	_, dict := roundTrip(t, [][]byte{seq}, 10)
	nested := false
	for _, p := range dict {
		if p.First >= 256 || p.Second >= 256 {
			nested = true
		}
	}
	if !nested {
		t.Log("dict:", dict)
		t.Skip("greedy order did not nest this time; round trip already verified")
	}
}

func TestMaxNewRespected(t *testing.T) {
	seq := bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 100)
	_, dict := Compress([][]byte{seq}, 256, 3)
	if len(dict) > 3 {
		t.Fatalf("dict has %d entries, max 3", len(dict))
	}
}

func TestSerializeEscapes(t *testing.T) {
	seq := []int{0, 255, 256, 1000, 42}
	data := Serialize(seq)
	if len(data) <= len(seq) {
		t.Fatalf("escaped serialization too short: %d", len(data))
	}
	// Must remain DEFLATE-able (sanity for the Table 4 measurement).
	if archive.FlateSize(data) <= 0 {
		t.Fatal("FlateSize failed")
	}
}

func TestPaperObservationGzipGainIsSmall(t *testing.T) {
	// §7.2: custom opcodes shrink the symbol count a lot, but gzip of the
	// rewritten stream is only slightly better (or worse) than gzip of the
	// original. Verify the measurement machinery reproduces a bounded gap.
	rng := rand.New(rand.NewSource(33))
	var seqs [][]byte
	for s := 0; s < 40; s++ {
		seq := make([]byte, 400)
		for i := range seq {
			// Markov-ish stream: strong pair structure.
			if i > 0 && rng.Intn(3) > 0 {
				seq[i] = seq[i-1] + 1
			} else {
				seq[i] = byte(rng.Intn(40))
			}
		}
		seqs = append(seqs, seq)
	}
	rewritten, _ := Compress(seqs, 256, 64)
	var origCat, newCat []byte
	origSyms, newSyms := 0, 0
	for i := range seqs {
		origCat = append(origCat, seqs[i]...)
		newCat = append(newCat, Serialize(rewritten[i])...)
		origSyms += len(seqs[i])
		newSyms += len(rewritten[i])
	}
	if newSyms >= origSyms {
		t.Fatalf("symbol count did not shrink: %d -> %d", origSyms, newSyms)
	}
	origGz := archive.FlateSize(origCat)
	newGz := archive.FlateSize(newCat)
	// The gzipped sizes must be in the same ballpark (within 2x either
	// way); a huge win would contradict the paper's finding.
	if newGz > origGz*2 || origGz > newGz*2 {
		t.Fatalf("gzipped sizes diverge: orig %d vs custom %d", origGz, newGz)
	}
}

// TestCompressDeterministic: candidates with equal counts or equal
// gains break ties the same way on every call, so the dictionary and
// the rewritten sequences never depend on map iteration order. The
// input is the one cmd/fuzzcorpus turns into FuzzCustomDecode seeds.
func TestCompressDeterministic(t *testing.T) {
	seqs := [][]byte{nil, nil}
	for i := 0; i < 60; i++ {
		seqs[0] = append(seqs[0], 1, 2, 3)
		seqs[1] = append(seqs[1], 9, 9, 4, 7)
	}
	work0, dict0 := Compress(seqs, 200, 8)
	for i := 1; i < 50; i++ {
		work, dict := Compress(seqs, 200, 8)
		if !reflect.DeepEqual(dict, dict0) || !reflect.DeepEqual(work, work0) {
			t.Fatalf("call %d gave dictionary %v, call 0 gave %v", i, dict, dict0)
		}
	}
}
