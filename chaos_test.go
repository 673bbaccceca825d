package classpack

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"classpack/internal/classfile"
	"classpack/internal/core"
	"classpack/internal/faultinject"
	"classpack/internal/streams"
	"classpack/internal/synth"
)

// chaosCorpusOnce caches the chaos corpus: generating and packing a
// 50+-class archive once keeps the fault matrix fast enough to run in
// full under -race.
var chaosCorpusOnce struct {
	sync.Once
	packed []byte // version-2 archive
	clean  []File // pristine unpack, the salvage oracle
	err    error
}

// chaosCorpus returns a packed >= 50-class synthetic archive and its
// clean unpack.
func chaosCorpus(t testing.TB) (packed []byte, clean []File) {
	t.Helper()
	c := &chaosCorpusOnce
	c.Do(func() {
		p, err := synth.ProfileByName("202_jess")
		if err != nil {
			c.err = err
			return
		}
		cfs, err := synth.GenerateStripped(p, 1.0)
		if err != nil {
			c.err = err
			return
		}
		files := make([][]byte, len(cfs))
		for i, cf := range cfs {
			if files[i], err = classfile.Write(cf); err != nil {
				c.err = err
				return
			}
		}
		if c.packed, err = Pack(files, nil); err != nil {
			c.err = err
			return
		}
		c.clean, c.err = Unpack(c.packed)
	})
	if c.err != nil {
		t.Fatal(c.err)
	}
	if len(c.clean) < 50 {
		t.Fatalf("chaos corpus has %d classes, want >= 50", len(c.clean))
	}
	return c.packed, c.clean
}

// checkSalvage runs Salvage on a damaged version-2 archive and asserts
// the invariants every fault must preserve: no panic (by construction),
// the accounting identity recovered + lost == total, and the prefix
// guarantee — every recovered class is byte-identical to the clean
// unpack, in order. It returns the result for fault-specific checks.
func checkSalvage(t *testing.T, damaged []byte, clean []File) *SalvageResult {
	t.Helper()
	res := checkSalvageAccounting(t, damaged, clean)
	for i, f := range res.Files {
		if f.Name != clean[i].Name || !bytes.Equal(f.Data, clean[i].Data) {
			t.Fatalf("recovered class %d (%s) is not byte-identical to the clean unpack", i, f.Name)
		}
	}
	return res
}

// checkSalvageAccounting asserts only the invariants every archive
// version can promise: no panic, no hard error, and consistent
// accounting. Version-1 archives carry no integrity data, so a fault
// that happens not to derail decoding yields plausible-but-wrong bytes
// the decoder cannot detect — the gap the version-2 checksums close —
// and the byte-identity check does not apply to them.
func checkSalvageAccounting(t *testing.T, damaged []byte, clean []File) *SalvageResult {
	t.Helper()
	res, err := Salvage(damaged, &Options{})
	if err != nil {
		t.Fatalf("Salvage returned a hard error: %v", err)
	}
	if res.Recovered != len(res.Files) {
		t.Fatalf("Recovered = %d but %d files", res.Recovered, len(res.Files))
	}
	if res.Recovered+res.Lost != res.TotalClasses {
		t.Fatalf("recovered %d + lost %d != total %d", res.Recovered, res.Lost, res.TotalClasses)
	}
	if res.TotalClasses != 0 && res.TotalClasses != len(clean) {
		t.Fatalf("TotalClasses = %d, corpus has %d", res.TotalClasses, len(clean))
	}
	return res
}

// damageNames collects the streams named in a damage report.
func damageNames(res *SalvageResult) map[string]bool {
	names := make(map[string]bool, len(res.Damage))
	for _, d := range res.Damage {
		names[d.Stream] = true
	}
	return names
}

// TestChaosMatrix is the fault-injection matrix of the acceptance
// criteria: each fault class applied at every stream-section boundary of
// a >= 50-class archive. Salvage must never panic, must keep the
// recovered+lost == total identity, must only return classes that are
// byte-identical to the clean unpack, and must name the damaged region.
// In -short mode (make chaos-smoke) the matrix subsamples boundaries.
func TestChaosMatrix(t *testing.T) {
	packed, clean := chaosCorpus(t)
	sections, err := streams.Sections(packed[6:], true)
	if err != nil {
		t.Fatal(err)
	}
	if len(sections) < 10 {
		t.Fatalf("only %d sections in chaos corpus", len(sections))
	}
	stride := 1
	if testing.Short() {
		stride = 5
	}
	for si := 0; si < len(sections); si += stride {
		sect := sections[si]
		// Archive offset of the section payload: 6 header bytes + the
		// payload's offset within the container body.
		off := 6 + int(sect.Off)
		faults := []faultinject.Fault{
			faultinject.BitFlip{Off: off, Bit: 3},
			faultinject.Truncate{Off: off},
			faultinject.ZeroPage{Off: off, Len: 32},
			faultinject.DupBlock{Off: off, Len: 16},
		}
		for _, fault := range faults {
			t.Run(sect.Name+"/"+fault.Name(), func(t *testing.T) {
				res := checkSalvage(t, fault.Apply(packed), clean)
				if len(res.Damage) == 0 {
					t.Fatalf("fault %s in section %s produced no damage report", fault.Name(), sect.Name)
				}
				// The report must implicate the physically damaged place:
				// the targeted stream itself, or — when the fault spills
				// into framing (truncation, inserted or zeroed directory
				// bytes) — the container, trailer, or a later stream.
				names := damageNames(res)
				if !names[sect.Name] && !names["container"] && !names["trailer"] {
					implicated := false
					for _, later := range sections[si:] {
						if names[later.Name] {
							implicated = true
							break
						}
					}
					if !implicated {
						t.Fatalf("damage report %v does not implicate section %s or its framing",
							res.Damage, sect.Name)
					}
				}
			})
		}
	}
}

// TestChaosTrailerOnly pins the localization payoff: damage confined to
// the trailer checksum costs zero classes — everything recovers, and the
// report names the trailer.
func TestChaosTrailerOnly(t *testing.T) {
	packed, clean := chaosCorpus(t)
	flip := faultinject.BitFlip{Off: len(packed) - 2, Bit: 0}
	res := checkSalvage(t, flip.Apply(packed), clean)
	if res.Recovered != len(clean) || res.Lost != 0 {
		t.Fatalf("trailer-only damage lost classes: recovered %d, lost %d", res.Recovered, res.Lost)
	}
	if !damageNames(res)["trailer"] {
		t.Fatalf("trailer damage not reported: %v", res.Damage)
	}
}

// TestChaosPristine pins that salvage of an undamaged archive is a
// clean, complete unpack with an empty damage report.
func TestChaosPristine(t *testing.T) {
	packed, clean := chaosCorpus(t)
	res := checkSalvage(t, packed, clean)
	if res.Recovered != len(clean) || res.Lost != 0 || len(res.Damage) != 0 {
		t.Fatalf("pristine archive salvaged dirty: recovered %d, lost %d, damage %v",
			res.Recovered, res.Lost, res.Damage)
	}
}

// TestChaosVersion1 runs the bit-flip ladder over a legacy (no
// checksum) archive. Without integrity data a flip is only detected when
// decoding trips over it; flips that happen to decode produce silently
// wrong bytes, so only the accounting invariants apply here. That gap —
// observed directly by this test — is what the version-2 checksums
// close, and TestChaosMatrix holds version 2 to the stronger
// byte-identical-prefix guarantee.
func TestChaosVersion1(t *testing.T) {
	_, clean := chaosCorpus(t)
	legacy := packLegacy(t, clean)
	cleanLegacy, err := Unpack(legacy)
	if err != nil {
		t.Fatal(err)
	}
	stride := len(legacy) / 40
	if testing.Short() {
		stride = len(legacy) / 8
	}
	for off := 6; off < len(legacy); off += stride {
		flip := faultinject.BitFlip{Off: off, Bit: 5}
		t.Run(flip.Name(), func(t *testing.T) {
			checkSalvageAccounting(t, flip.Apply(legacy), cleanLegacy)
		})
	}
}

// TestChaosRandomPlan sweeps seeded random faults over the archive so
// the matrix is not limited to hand-picked boundaries; the seed makes
// any failure replayable.
func TestChaosRandomPlan(t *testing.T) {
	packed, clean := chaosCorpus(t)
	plan := faultinject.NewPlan(1999) // the paper's year; any fixed seed works
	n := 64
	if testing.Short() {
		n = 16
	}
	for i := 0; i < n; i++ {
		fault := plan.Next(len(packed))
		t.Run(fault.Name(), func(t *testing.T) {
			checkSalvage(t, fault.Apply(packed), clean)
		})
	}
}

// chaosCorpusV3Once caches the version-3 variant of the chaos corpus:
// the same classes repacked into 8-class chunks.
var chaosCorpusV3Once struct {
	sync.Once
	packed []byte
	clean  []File
	err    error
}

// chaosCorpusV3 returns the chaos corpus packed as a version-3 chunked
// archive, plus its clean unpack.
func chaosCorpusV3(t testing.TB) (packed []byte, clean []File) {
	_, clean = chaosCorpus(t)
	c := &chaosCorpusV3Once
	c.Do(func() {
		raw := make([][]byte, len(clean))
		for i, f := range clean {
			raw[i] = f.Data
		}
		opts := DefaultOptions()
		opts.ChunkClasses = 8
		c.packed, c.err = Pack(raw, &opts)
		if c.err != nil {
			return
		}
		c.clean, c.err = Unpack(c.packed)
	})
	if c.err != nil {
		t.Fatal(c.err)
	}
	if len(c.clean) != len(clean) {
		t.Fatalf("v3 repack holds %d classes, corpus has %d", len(c.clean), len(clean))
	}
	return c.packed, c.clean
}

// checkSalvageV3 asserts the version-3 salvage invariants on a damaged
// chunked archive: no panic, no hard error, consistent accounting, and
// name-matched byte identity — every recovered class carries the exact
// bytes of the same-named clean class. Unlike version 2 the recovered
// set is not a prefix: a damaged chunk leaves a gap and later chunks
// still recover, so identity is checked per name rather than by
// position.
func checkSalvageV3(t *testing.T, damaged []byte, clean []File) *SalvageResult {
	t.Helper()
	res, err := Salvage(damaged, &Options{})
	if err != nil {
		t.Fatalf("Salvage returned a hard error: %v", err)
	}
	if res.Recovered != len(res.Files) {
		t.Fatalf("Recovered = %d but %d files", res.Recovered, len(res.Files))
	}
	if res.Recovered+res.Lost != res.TotalClasses {
		t.Fatalf("recovered %d + lost %d != total %d", res.Recovered, res.Lost, res.TotalClasses)
	}
	// With the index destroyed AND chunks truncated the total comes from
	// the surviving chunk headers, so it can undercount — but it can
	// never exceed the corpus.
	if res.TotalClasses > len(clean) {
		t.Fatalf("TotalClasses = %d, corpus has %d", res.TotalClasses, len(clean))
	}
	// The synth corpus reuses a few class names with different bodies, so
	// identity means byte-equality with one of the clean classes carrying
	// that name.
	want := make(map[string][][]byte, len(clean))
	for _, f := range clean {
		want[f.Name] = append(want[f.Name], f.Data)
	}
	for _, f := range res.Files {
		candidates, ok := want[f.Name]
		if !ok {
			t.Fatalf("salvage invented class %s", f.Name)
		}
		match := false
		for _, data := range candidates {
			if bytes.Equal(f.Data, data) {
				match = true
				break
			}
		}
		if !match {
			t.Fatalf("recovered class %s is not byte-identical to the clean unpack", f.Name)
		}
	}
	return res
}

// TestChaosV3Matrix runs the fault ladder over a version-3 chunked
// archive: bit flips, truncations, zeroed pages, and duplicated blocks
// at evenly spaced offsets. Every fault must preserve the v3 salvage
// invariants; faults confined to one chunk must leave at most that
// chunk's classes lost.
func TestChaosV3Matrix(t *testing.T) {
	packed, clean := chaosCorpusV3(t)
	stride := len(packed) / 24
	if testing.Short() {
		stride = len(packed) / 6
	}
	for off := 6; off < len(packed); off += stride {
		faults := []faultinject.Fault{
			faultinject.BitFlip{Off: off, Bit: 3},
			faultinject.Truncate{Off: off},
			faultinject.ZeroPage{Off: off, Len: 32},
			faultinject.DupBlock{Off: off, Len: 16},
		}
		for _, fault := range faults {
			t.Run(fault.Name(), func(t *testing.T) {
				res := checkSalvageV3(t, fault.Apply(packed), clean)
				if len(res.Damage) == 0 && res.Lost == 0 && res.Recovered == len(clean) {
					return // fault landed in slack the decoder never reads
				}
				if len(res.Damage) == 0 {
					t.Fatalf("classes lost (%d) with an empty damage report", res.Lost)
				}
			})
		}
	}
}

// TestChaosV3ChunkIsolation pins the version-3 payoff: a bit flip in
// the middle of the archive body costs at most one chunk of classes,
// where the same fault on a monolithic version-2 archive loses every
// class from the flip onward.
func TestChaosV3ChunkIsolation(t *testing.T) {
	packed, clean := chaosCorpusV3(t)
	ix, err := core.ReadIndex(packed, core.UnpackOpts{})
	if err != nil {
		t.Fatal(err)
	}
	chunks := ix.Chunks
	if len(chunks) < 4 {
		t.Fatalf("corpus packed into %d chunks, want >= 4", len(chunks))
	}
	// Flip a bit in the middle of an interior chunk's body.
	mid := len(chunks) / 2
	off := int(chunks[mid].Off) + int(chunks[mid].Len)/2
	flip := faultinject.BitFlip{Off: off, Bit: 4}
	res := checkSalvageV3(t, flip.Apply(packed), clean)
	if res.Lost == 0 {
		t.Fatal("interior-chunk bit flip went undetected")
	}
	if res.Lost > chunks[mid].Classes {
		t.Fatalf("flip in chunk %d lost %d classes, chunk holds only %d",
			mid, res.Lost, chunks[mid].Classes)
	}
	found := false
	for _, d := range res.Damage {
		if strings.HasPrefix(d.Stream, "chunk") {
			found = true
		}
	}
	if !found {
		t.Fatalf("damage report %v does not attribute a chunk", res.Damage)
	}
}

// TestChaosV3IndexDestroyed pins that the index is pure acceleration:
// zeroing the entire footer and index region costs zero classes —
// salvage walks the chunk framing instead.
func TestChaosV3IndexDestroyed(t *testing.T) {
	packed, clean := chaosCorpusV3(t)
	ix, err := core.ReadIndex(packed, core.UnpackOpts{})
	if err != nil {
		t.Fatal(err)
	}
	chunks := ix.Chunks
	last := chunks[len(chunks)-1]
	indexStart := int(last.Off) + int(last.Len) + 1 // +1 for the sentinel byte
	zero := faultinject.ZeroPage{Off: indexStart, Len: len(packed) - indexStart}
	res := checkSalvageV3(t, zero.Apply(packed), clean)
	if res.Recovered != len(clean) {
		t.Fatalf("index-only damage lost classes: recovered %d of %d (damage %v)",
			res.Recovered, len(clean), res.Damage)
	}
	if len(res.Damage) == 0 {
		t.Fatal("destroyed index produced no damage report")
	}
}

// TestChaosAbortRegionLast pins the damage order within one body: its
// quarantined streams in container order, then the failure that ended
// decoding. Two streams of one body are damaged, and decoding aborts on
// the one earlier in container order: ref.class, which class 0 reads for
// its this_class right after int.meta. The last stream in container
// order is never read once decoding has stopped. The aborting region
// must come last, carrying every class of the body.
func TestChaosAbortRegionLast(t *testing.T) {
	v2, clean := chaosCorpus(t)
	v3, _ := chaosCorpusV3(t)
	ix, err := core.ReadIndex(v3, core.UnpackOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ch := ix.Chunks[1]
	cases := []struct {
		name      string
		packed    []byte
		off, size int64  // the damaged body
		prefix    string // the body's region prefix
		classes   int    // the body's classes
	}{
		{"v2", v2, 6, int64(len(v2)) - 6, "", len(clean)},
		{"v3", v3, ch.Off, ch.Len, "chunk1/", ch.Classes},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sections, err := streams.Sections(c.packed[c.off:c.off+c.size], true)
			if err != nil {
				t.Fatal(err)
			}
			abort, other := "ref.class", sections[len(sections)-1].Name
			damaged := bytes.Clone(c.packed)
			hit := 0
			for _, s := range sections {
				if (s.Name == abort || s.Name == other) && s.Len > 0 {
					damaged[c.off+s.Off+s.Len/2] ^= 1
					hit++
				}
			}
			if hit != 2 || abort >= other {
				t.Fatalf("want two payloads, %s before %s; damaged %d", abort, other, hit)
			}
			res, err := Salvage(damaged, nil)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, d := range res.Damage {
				got = append(got, fmt.Sprintf("%s lost %d", d.Stream, d.ClassesLost))
			}
			want := []string{
				c.prefix + "trailer lost 0",
				c.prefix + other + " lost 0",
				fmt.Sprintf("%s%s lost %d", c.prefix, abort, c.classes),
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("damage report\n  %q\nwant\n  %q", got, want)
			}
			if res.Lost != c.classes {
				t.Fatalf("lost %d classes, the body holds %d", res.Lost, c.classes)
			}
		})
	}
}
