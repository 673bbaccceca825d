package streams

import (
	"bytes"
	"testing"
)

// FuzzStreamsReader throws arbitrary bytes at the container parser in
// both layouts. Nothing may panic, and the decoded-byte budget must
// hold. The strict constructors are the salvage reader's first damage:
// they fail exactly when it reports damage, with that damage's text, and
// otherwise yield the same streams. Every stream a strict reader yields
// is drained through all read paths.
func FuzzStreamsReader(f *testing.F) {
	w := NewWriter(true, 1)
	w.Stream("a.ints").Uint(300)
	w.Stream("a.ints").Int(-5)
	w.Stream("b.raw").Write([]byte("hello streams container"))
	for i := 0; i < 512; i++ {
		w.Stream("c.zeros").WriteByte(0) // compresses, exercising flate decode
	}
	seed, err := w.Finish()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	checked, err := w.FinishChecked()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(checked)
	empty, err := NewWriter(false, 1).Finish()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	f.Add([]byte{0})
	f.Add([]byte{})

	const budget = int64(1) << 20
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, checked := range []bool{false, true} {
			strict := NewReaderLimit
			if checked {
				strict = NewCheckedReaderLimit
			}
			r, err := strict(data, 1, budget)
			sr, damage := NewSalvageReader(data, 1, budget, checked)
			for _, d := range damage {
				if d.Stream == "" {
					t.Fatalf("checked=%v: damage without a stream name: %v", checked, d)
				}
			}
			if len(damage) > 0 {
				if err == nil || err.Error() != damage[0].Error() {
					t.Fatalf("checked=%v: strict reader returned %v, salvage's first damage is %v", checked, err, damage[0])
				}
				continue
			}
			if err != nil {
				t.Fatalf("checked=%v: strict reader failed with %v, salvage found no damage", checked, err)
			}
			if len(r.streams) != len(sr.streams) || r.DecodedBytes() != sr.DecodedBytes() {
				t.Fatalf("checked=%v: strict reader has %d streams of %d bytes, salvage %d of %d",
					checked, len(r.streams), r.DecodedBytes(), len(sr.streams), sr.DecodedBytes())
			}
			for name, s := range r.streams {
				if ss := sr.streams[name]; ss == nil || ss.fail != nil || !bytes.Equal(s.buf, ss.buf) {
					t.Fatalf("checked=%v: stream %s differs between the strict and salvage readers", checked, name)
				}
			}
			drain(t, r, budget)
		}
	})
}

// drain reads every stream of r to its end through all read paths.
func drain(t *testing.T, r *Reader, budget int64) {
	t.Helper()
	total := 0
	for name := range r.streams {
		s := r.Stream(name)
		total += s.Remaining()
		// Drain through every accessor; each consumes at least one
		// byte while bytes remain, so the loop terminates.
		for s.Remaining() > 0 {
			switch s.Remaining() % 4 {
			case 0:
				_, _ = s.Uint()
			case 1:
				_, _ = s.Int()
			case 2:
				_, _ = s.Raw(1)
			default:
				_, _ = s.ReadByte()
			}
		}
		if _, err := s.ReadByte(); err == nil {
			t.Fatalf("stream %s: read past end succeeded", name)
		}
		if _, err := s.Raw(-1); err == nil {
			t.Fatalf("stream %s: negative Raw succeeded", name)
		}
	}
	if int64(total) > budget {
		t.Fatalf("decoded %d bytes past the %d budget", total, budget)
	}
}
