package streams

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"
)

// largeStreams are streams on both sides of arithTrialLimit: up to the
// limit a stream is trial-coded whole, one byte more and it is DEFLATEd
// while written. Text compresses, so DEFLATE wins; noise does not, so a
// large noise stream is stored. The longest span several blocks, with a
// tail and without one.
func largeStreams() map[string][]byte {
	rng := rand.New(rand.NewSource(31))
	words := make([]string, 3000)
	for i := range words {
		w := make([]byte, 3+rng.Intn(9))
		for k := range w {
			w[k] = byte('a' + rng.Intn(26))
		}
		words[i] = string(w)
	}
	text := func(n int) []byte {
		var b []byte
		for len(b) < n {
			b = append(b, words[rng.Intn(len(words))]...)
			b = append(b, "/;"[rng.Intn(2)])
		}
		return b[:n]
	}
	noise := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	return map[string][]byte{
		"str.below":  text(arithTrialLimit - 1),
		"str.limit":  text(arithTrialLimit),
		"str.above":  text(arithTrialLimit + 1),
		"str.blocks": text(2 * deflateBlock),
		"str.tail":   text(3*deflateBlock + 1234),
		"msc.above":  noise(arithTrialLimit + 1),
		"msc.tail":   noise(2*deflateBlock + 7),
		"int.small":  text(300),
	}
}

// fillLarge writes the streams round-robin in pieces of up to 5000
// bytes, so that blocks of several streams reach the coder interleaved.
// Each piece goes through the next of WriteByte, Write and WriteString,
// so every method writes across block boundaries.
func fillLarge(w *Writer, data map[string][]byte, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	off := make(map[string]int, len(data))
	names := make([]string, 0, len(data))
	for name := range data {
		names = append(names, name)
	}
	sort.Strings(names)
	for k, left := 0, len(names); left > 0; {
		left = 0
		for _, name := range names {
			raw, o := data[name], off[name]
			if o == len(raw) {
				continue
			}
			left++
			piece := raw[o:min(o+1+rng.Intn(5000), len(raw))]
			off[name] = o + len(piece)
			s := w.Stream(name)
			switch k++; k % 3 {
			case 0:
				for _, b := range piece {
					s.WriteByte(b)
				}
			case 1:
				s.Write(piece)
			case 2:
				s.WriteString(string(piece))
			}
		}
	}
}

// codeWhole codes each stream whole, as the Writer coded every stream
// before it fed DEFLATE while a stream was written.
func codeWhole(data map[string][]byte) map[string]coded {
	want := make(map[string]coded, len(data))
	for name, raw := range data {
		coding, payload := encodeStream(raw, true)
		want[name] = coded{coding, payload}
	}
	return want
}

// checkCodedWhole fails t unless container holds exactly the streams of
// data, each with its coding and payload in want.
func checkCodedWhole(t *testing.T, label string, container []byte, checked bool, data map[string][]byte, want map[string]coded) {
	t.Helper()
	entries, damage := directory(container, 0, checked)
	if len(damage) > 0 {
		t.Fatalf("%s: %v", label, damage[0])
	}
	if len(entries) != len(data) {
		t.Fatalf("%s: %d streams, want %d", label, len(entries), len(data))
	}
	for _, e := range entries {
		w := want[e.name]
		if e.rawLen != uint64(len(data[e.name])) || e.coding != w.coding || !bytes.Equal(e.payload, w.payload) {
			t.Errorf("%s: stream %s has coding %d, %d payload bytes; coded whole %d, %d",
				label, e.name, e.coding, len(e.payload), w.coding, len(w.payload))
		}
	}
}

// TestLargeStreamsCodeAsWhole checks that DEFLATE fed while a stream is
// written gives each stream the coding and payload that coding it whole
// gives, at every concurrency, through Finish, FinishChecked and Sizes,
// each called after the others.
func TestLargeStreamsCodeAsWhole(t *testing.T) {
	data := largeStreams()
	want := codeWhole(data)
	if want["str.tail"].coding != codingFlate || want["msc.tail"].coding != codingStore {
		t.Fatal("the large streams are not both DEFLATEd and stored")
	}
	for _, j := range []int{1, 2, 4} {
		label := fmt.Sprintf("j=%d", j)
		w := NewWriter(true, j)
		fillLarge(w, data, int64(j))
		plain, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		checkCodedWhole(t, label+"/Finish", plain, false, data, want)
		checked, err := w.FinishChecked()
		if err != nil {
			t.Fatal(err)
		}
		checkCodedWhole(t, label+"/FinishChecked", checked, true, data, want)
		for name, got := range w.Sizes() {
			if size := [2]int{len(data[name]), len(want[name].payload)}; got != size {
				t.Errorf("%s/Sizes: %s = %v, want %v", label, name, got, size)
			}
		}
	}
}

// coderRunning reports whether a goroutine started by a Writer's coder
// is alive. A coder that has closed its done channel may still be
// unwinding, so a live one is looked for again for up to a second.
func coderRunning() bool {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		n := runtime.Stack(buf, true)
		if !bytes.Contains(buf[:n], []byte("created by classpack/internal/streams.")) {
			return false
		}
		if time.Now().After(deadline) {
			return true
		}
	}
}

// TestCoderLifecycle checks when a Writer's coder runs. At concurrency 1
// a large stream is DEFLATEd inline and no goroutine starts. Above it,
// one coder starts with the first large stream; Close stops it, a
// Finish after Close still codes the whole stream, and Finish leaves no
// coder running. Small streams never start one.
func TestCoderLifecycle(t *testing.T) {
	raw := largeStreams()["str.tail"]
	data := map[string][]byte{"s": raw}
	want := codeWhole(data)

	w := NewWriter(true, 1)
	w.Stream("s").Write(raw)
	if w.done != nil || w.Stream("s").fed != 3*deflateBlock {
		t.Fatalf("concurrency 1: coder started %v, %d bytes fed inline", w.done != nil, w.Stream("s").fed)
	}
	got, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	checkCodedWhole(t, "concurrency 1", got, false, data, want)

	w = NewWriter(true, 2)
	w.Stream("s").Write(raw[:arithTrialLimit])
	if w.done != nil {
		t.Fatal("a stream within arithTrialLimit started the coder")
	}
	w.Stream("s").WriteByte(0)
	if w.done == nil {
		t.Fatal("a stream past arithTrialLimit did not start the coder")
	}
	w.Close()
	if w.done != nil || coderRunning() {
		t.Fatal("Close left the coder running")
	}

	w = NewWriter(true, 2)
	w.Stream("s").Write(raw[:2*deflateBlock])
	w.Close()
	w.Stream("s").Write(raw[2*deflateBlock:])
	got, err = w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	checkCodedWhole(t, "Finish after Close", got, false, data, want)
	if w.done != nil || coderRunning() {
		t.Fatal("Finish left the coder running")
	}
}

// TestCoderGetsCopies checks that a block handed to the coder is a copy
// of the stream's bytes: changing the buffer afterwards leaves it as it
// was written.
func TestCoderGetsCopies(t *testing.T) {
	w := NewWriter(true, 2)
	jobs := make(chan block, coderQueue)
	w.jobs = jobs // stands in for the coder, which then never starts
	s := w.Stream("s")
	s.Write(bytes.Repeat([]byte{7}, arithTrialLimit+1))
	b := <-jobs
	if len(b.data) != deflateBlock || b.last {
		t.Fatalf("coder got %d bytes, last %v; want one %d-byte block", len(b.data), b.last, deflateBlock)
	}
	s.buf.Bytes()[0] = 8
	if b.data[0] != 7 {
		t.Fatal("the block aliases the stream's buffer")
	}
}
