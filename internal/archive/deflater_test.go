package archive

import (
	"bytes"
	"compress/flate"
	"math/rand"
	"testing"
)

// splitInputs are several 32 KiB DEFLATE windows long each: random bytes
// (DEFLATE finds nothing), small values skewed towards zero, and
// text-like words from a small vocabulary.
func splitInputs() map[string][]byte {
	rng := rand.New(rand.NewSource(21))
	random := make([]byte, 150<<10)
	rng.Read(random)
	low := make([]byte, 160<<10)
	for i := range low {
		for low[i] < 15 && rng.Intn(3) > 0 {
			low[i]++
		}
	}
	words := []string{"java", "lang", "Object", "String", "init", "get", "set", "value", "util", "Map"}
	var text []byte
	for len(text) < 160<<10 {
		text = append(text, words[rng.Intn(len(words))]...)
		text = append(text, " \n/;"[rng.Intn(4)])
	}
	return map[string][]byte{"random": random, "low-entropy": low, "text": text}
}

// splits cuts n bytes into write lengths: one write, single bytes,
// lengths drawn from 1 byte to 100 KB, and lengths on and around the
// window and block sizes.
func splits(rng *rand.Rand, n int) map[string][]int {
	cut := func(next func() int) []int {
		var out []int
		for left := n; left > 0; {
			k := min(next(), left)
			out = append(out, k)
			left -= k
		}
		return out
	}
	edges := []int{1, 2, 3, 257, 4095, 32767, 32768, 32769, 65535, 65536, 65537}
	return map[string][]int{
		"whole":  {n},
		"bytes":  cut(func() int { return 1 }),
		"random": cut(func() int { return 1 + rng.Intn(100_000) }),
		"small":  cut(func() int { return 1 + rng.Intn(300) }),
		"edges":  cut(func() int { return edges[rng.Intn(len(edges))] }),
	}
}

// TestDeflateIgnoresWriteSplits pins what lets a stream be DEFLATEd
// while it is still being written: compress/flate at BestCompression
// codes a position only once it holds the position's full lookahead, or
// on Close, so its output depends on the bytes written and not on how
// the writes split them.
// A Deflater fed any split must give the bytes of a fresh writer fed one
// write, and so must Flate. If a Go release breaks this, this test names
// the cause where the packed-bytes digests would only change.
func TestDeflateIgnoresWriteSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for name, data := range splitInputs() {
		var want bytes.Buffer
		fw, err := flate.NewWriter(&want, flate.BestCompression)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := Flate(data)
		if err != nil || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: Flate differs from a fresh flate.Writer (err %v)", name, err)
		}
		for how, lens := range splits(rng, len(data)) {
			d := NewDeflater()
			off := 0
			for _, n := range lens {
				if _, err := d.Write(data[off : off+n]); err != nil {
					t.Fatal(err)
				}
				off += n
			}
			got, err := d.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%s: %d %s writes give %d bytes, one write %d", name, len(lens), how, len(got), want.Len())
			}
		}
	}
}

// TestDeflaterRoundTrip checks a Deflater's output inflates back to what
// was written, and that a recycled writer starts clean.
func TestDeflaterRoundTrip(t *testing.T) {
	for i, data := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte("abc"), 40000)} {
		d := NewDeflater()
		for off := 0; off < len(data); off += 1000 {
			d.Write(data[off:min(off+1000, len(data))])
		}
		comp, err := d.Close()
		if err != nil {
			t.Fatal(err)
		}
		back, err := Inflate(comp)
		if err != nil || !bytes.Equal(back, data) {
			t.Fatalf("input %d does not round-trip (err %v)", i, err)
		}
	}
}
