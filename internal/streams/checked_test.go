package streams

import (
	"bytes"
	"errors"
	"testing"

	"classpack/internal/corrupt"
)

// checkedWriter builds a three-stream writer with known contents.
func checkedWriter(concurrency int) *Writer {
	w := NewWriter(true, concurrency)
	w.Stream("a.ints").Uint(300)
	w.Stream("b.raw").Write(bytes.Repeat([]byte("payload"), 50))
	w.Stream("c.code").Write(bytes.Repeat([]byte{0x2a, 0xb4}, 200))
	return w
}

func TestCheckedRoundTrip(t *testing.T) {
	w := checkedWriter(1)
	plain, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	checked, err := w.FinishChecked()
	if err != nil {
		t.Fatal(err)
	}
	// Overhead is exactly one CRC per stream plus the trailer.
	if want := len(plain) + crcSize*(3+1); len(checked) != want {
		t.Fatalf("checked container is %d bytes, want %d", len(checked), want)
	}
	r, err := NewCheckedReaderLimit(checked, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := r.Stream("a.ints").Uint(); err != nil || v != 300 {
		t.Fatalf("a.ints = %d, %v", v, err)
	}
	if r.Stream("b.raw").Remaining() != 350 {
		t.Fatalf("b.raw has %d bytes", r.Stream("b.raw").Remaining())
	}
	// The unchecked reader must not accept the checked layout: the CRC
	// bytes corrupt its framing.
	if _, err := NewReaderLimit(checked, 1, 0); err == nil {
		t.Fatal("unchecked reader parsed a checked container")
	}
}

func TestCheckedDeterministicAcrossWorkers(t *testing.T) {
	want, err := checkedWriter(1).FinishChecked()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 4, 0} {
		got, err := checkedWriter(n).FinishChecked()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("FinishChecked differs at concurrency %d", n)
		}
	}
}

func TestCheckedReaderRejectsAnyFlip(t *testing.T) {
	checked, err := checkedWriter(1).FinishChecked()
	if err != nil {
		t.Fatal(err)
	}
	// The trailer covers every byte, so any single flip must be caught.
	for off := 0; off < len(checked); off += 37 {
		damaged := append([]byte(nil), checked...)
		damaged[off] ^= 0x40
		_, err := NewCheckedReaderLimit(damaged, 1, 0)
		var ce *corrupt.Error
		if !errors.As(err, &ce) {
			t.Fatalf("flip at %d: err = %v, want *corrupt.Error", off, err)
		}
		if ce.Stream != trailerStream {
			t.Fatalf("flip at %d attributed to %q, want trailer (checked first)", off, ce.Stream)
		}
	}
	// Truncation below the trailer size is also a trailer error.
	if _, err := NewCheckedReaderLimit(checked[:2], 1, 0); err == nil {
		t.Fatal("truncated container accepted")
	}
}

func TestSalvageReaderQuarantinesOnlyDamagedStream(t *testing.T) {
	checked, err := checkedWriter(1).FinishChecked()
	if err != nil {
		t.Fatal(err)
	}
	sections, err := Sections(checked, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(sections) != 3 {
		t.Fatalf("%d sections, want 3", len(sections))
	}
	var target Section
	for _, s := range sections {
		if s.Name == "b.raw" {
			target = s
		}
	}
	if target.Len == 0 {
		t.Fatal("b.raw payload not found or empty")
	}
	damaged := append([]byte(nil), checked...)
	damaged[target.Off+target.Len/2] ^= 1

	r, damage := NewSalvageReader(damaged, 1, 0, true)
	names := map[string]bool{}
	for _, d := range damage {
		names[d.Stream] = true
	}
	// The flip breaks both the covering trailer and b.raw's own CRC.
	if !names[trailerStream] || !names["b.raw"] || len(names) != 2 {
		t.Fatalf("damage report %v, want exactly trailer and b.raw", damage)
	}
	// The damaged stream is quarantined: present, but every read fails
	// with the quarantining error.
	q := r.Stream("b.raw").Quarantined()
	if q == nil || q.Stream != "b.raw" {
		t.Fatalf("b.raw quarantine = %v", q)
	}
	if _, err := r.Stream("b.raw").ReadByte(); !errors.Is(err, q) {
		t.Fatalf("read of quarantined stream: %v, want the quarantine error", err)
	}
	if _, err := r.Stream("b.raw").Raw(1); !errors.Is(err, q) {
		t.Fatalf("Raw of quarantined stream: %v, want the quarantine error", err)
	}
	// Undamaged neighbors decode intact.
	if v, err := r.Stream("a.ints").Uint(); err != nil || v != 300 {
		t.Fatalf("a.ints after salvage = %d, %v", v, err)
	}
	if r.Stream("c.code").Quarantined() != nil {
		t.Fatal("undamaged stream quarantined")
	}
}

func TestSalvageReaderTrailerOnlyDamage(t *testing.T) {
	checked, err := checkedWriter(1).FinishChecked()
	if err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte(nil), checked...)
	damaged[len(damaged)-1] ^= 1 // inside the trailer CRC itself
	r, damage := NewSalvageReader(damaged, 1, 0, true)
	if len(damage) != 1 || damage[0].Stream != trailerStream {
		t.Fatalf("damage = %v, want exactly one trailer region", damage)
	}
	for _, name := range []string{"a.ints", "b.raw", "c.code"} {
		if r.Stream(name).Quarantined() != nil {
			t.Fatalf("stream %s quarantined by trailer-only damage", name)
		}
	}
}

func TestSectionsLayouts(t *testing.T) {
	w := checkedWriter(1)
	for _, checked := range []bool{true, false} {
		data, err := w.finish(checked)
		if err != nil {
			t.Fatal(err)
		}
		sections, err := Sections(data, checked)
		if err != nil {
			t.Fatalf("checked=%v: %v", checked, err)
		}
		if len(sections) != 3 {
			t.Fatalf("checked=%v: %d sections, want 3", checked, len(sections))
		}
		var prevEnd int64
		for _, s := range sections {
			if s.Off < prevEnd || s.Off+s.Len > int64(len(data)) {
				t.Fatalf("checked=%v: section %s [%d,+%d) out of order or bounds",
					checked, s.Name, s.Off, s.Len)
			}
			prevEnd = s.Off + s.Len
		}
	}
	if _, err := Sections([]byte{0xff, 0xff}, false); err == nil {
		t.Fatal("Sections accepted garbage")
	}
}
