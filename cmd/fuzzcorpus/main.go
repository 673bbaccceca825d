// Command fuzzcorpus regenerates the checked-in fuzz seed corpora under
// the per-package testdata/fuzz directories from internal/synth packs.
// Run it from the repo root after changing the wire format:
//
//	go run ./cmd/fuzzcorpus
//
// The files give `go test -fuzz` real archive structure to mutate from
// the first exec, without each harness having to re-pack a corpus.
package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"classpack"
	"classpack/internal/classfile"
	"classpack/internal/core"
	"classpack/internal/custom"
	"classpack/internal/faultinject"
	"classpack/internal/jazz"
	"classpack/internal/streams"
	"classpack/internal/synth"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fuzzcorpus:", err)
		os.Exit(1)
	}
}

// corpusFile writes one seed in the `go test fuzz v1` encoding; each
// argument becomes one []byte line.
func corpusFile(dir, name string, args ...[]byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	out := "go test fuzz v1\n"
	for _, a := range args {
		out += "[]byte(" + strconv.Quote(string(a)) + ")\n"
	}
	return os.WriteFile(filepath.Join(dir, name), []byte(out), 0o644)
}

func classes(profile string, scale float64) ([]*classfile.ClassFile, [][]byte, error) {
	p, err := synth.ProfileByName(profile)
	if err != nil {
		return nil, nil, err
	}
	cfs, err := synth.GenerateStripped(p, scale)
	if err != nil {
		return nil, nil, err
	}
	raw := make([][]byte, len(cfs))
	for i, cf := range cfs {
		if raw[i], err = classfile.Write(cf); err != nil {
			return nil, nil, err
		}
	}
	return cfs, raw, nil
}

func marshalDict(dict []custom.Pair) []byte {
	out := make([]byte, 0, 5*len(dict))
	for _, p := range dict {
		out = binary.LittleEndian.AppendUint16(out, uint16(p.First))
		out = binary.LittleEndian.AppendUint16(out, uint16(p.Second))
		b := byte(0)
		if p.Skip {
			b = 1
		}
		out = append(out, b)
	}
	return out
}

func run() error {
	profiles := []string{"209_db", "Hanoi_jax"}

	for _, profile := range profiles {
		cfs, raw, err := classes(profile, 0.05)
		if err != nil {
			return err
		}

		// FuzzUnpack and FuzzUnpackStream: full archives, default options
		// and (FuzzUnpack only) the uncompressed/no-stackstate layout.
		packed, err := classpack.Pack(raw, nil)
		if err != nil {
			return err
		}
		for _, target := range []string{"FuzzUnpack", "FuzzUnpackStream"} {
			if err := corpusFile("testdata/fuzz/"+target, "seed-"+profile, packed); err != nil {
				return err
			}
		}
		plain := classpack.DefaultOptions()
		plain.StackState = false
		plain.Compress = false
		packedPlain, err := classpack.Pack(raw, &plain)
		if err != nil {
			return err
		}
		if err := corpusFile("testdata/fuzz/FuzzUnpack", "seed-"+profile+"-plain", packedPlain); err != nil {
			return err
		}

		// FuzzSalvage: a pristine archive, deterministically damaged
		// mutants (one per fault class, seeded by the archive length so
		// regeneration is stable), and the legacy checksum-free
		// version-1 layout.
		if err := corpusFile("testdata/fuzz/FuzzSalvage", "seed-"+profile, packed); err != nil {
			return err
		}
		plan := faultinject.NewPlan(int64(len(packed)))
		for i := 0; i < 4; i++ {
			mut := plan.Next(len(packed)).Apply(packed)
			name := fmt.Sprintf("seed-%s-fault%d", profile, i)
			if err := corpusFile("testdata/fuzz/FuzzSalvage", name, mut); err != nil {
				return err
			}
		}
		// Version-3 chunked archives: clean seeds for unpack, streaming
		// unpack, salvage, and the index reader, plus deterministic chunk,
		// footer and index corruptions so salvage, the index fuzzer and the
		// differential unpack harness start inside their error paths.
		chunked := classpack.DefaultOptions()
		chunked.ChunkClasses = 2
		packedV3, err := classpack.Pack(raw, &chunked)
		if err != nil {
			return err
		}
		for _, target := range []string{"FuzzUnpack", "FuzzUnpackStream", "FuzzSalvage", "FuzzChunkIndex"} {
			if err := corpusFile("testdata/fuzz/"+target, "seed-"+profile+"-v3", packedV3); err != nil {
				return err
			}
		}
		planV3 := faultinject.NewPlan(int64(len(packedV3)))
		for i := 0; i < 4; i++ {
			mut := planV3.Next(len(packedV3)).Apply(packedV3)
			name := fmt.Sprintf("seed-%s-v3-fault%d", profile, i)
			for _, target := range []string{"FuzzSalvage", "FuzzUnpackStream"} {
				if err := corpusFile("testdata/fuzz/"+target, name, mut); err != nil {
					return err
				}
			}
		}
		flip := faultinject.BitFlip{Off: len(packedV3) - 10, Bit: 1}
		for _, target := range []string{"FuzzChunkIndex", "FuzzUnpackStream"} {
			if err := corpusFile("testdata/fuzz/"+target,
				"seed-"+profile+"-v3-footer", flip.Apply(packedV3)); err != nil {
				return err
			}
			if err := corpusFile("testdata/fuzz/"+target,
				"seed-"+profile+"-v3-trunc", packedV3[:len(packedV3)-7]); err != nil {
				return err
			}
		}

		// FuzzDelta: a real CJPD patch between the chunked archive and a
		// ~20%-mutated version bump of it, plus deterministic mutants so
		// the fuzzer starts inside the patch validation paths. The harness
		// applies seeds against its own fixed old archive, so mismatching
		// digests here still exercise ErrDeltaMismatch.
		bumped, _, err := synth.MutateClasses(raw, 0.2, int64(len(packedV3)))
		if err != nil {
			return err
		}
		bumpedV3, err := classpack.Pack(bumped, &chunked)
		if err != nil {
			return err
		}
		patch, err := classpack.Diff(packedV3, bumpedV3, nil)
		if err != nil {
			return err
		}
		if err := corpusFile("testdata/fuzz/FuzzDelta", "seed-"+profile, patch); err != nil {
			return err
		}
		planPatch := faultinject.NewPlan(int64(len(patch)))
		for i := 0; i < 4; i++ {
			mut := planPatch.Next(len(patch)).Apply(patch)
			name := fmt.Sprintf("seed-%s-fault%d", profile, i)
			if err := corpusFile("testdata/fuzz/FuzzDelta", name, mut); err != nil {
				return err
			}
		}

		legacy, err := core.PackVersion(cfs, core.DefaultOptions(), core.Version1)
		if err != nil {
			return err
		}
		for _, target := range []string{"FuzzSalvage", "FuzzUnpack", "FuzzUnpackStream"} {
			if err := corpusFile("testdata/fuzz/"+target, "seed-"+profile+"-v1", legacy); err != nil {
				return err
			}
		}

		// FuzzJazzDecode: the §9 Jazz competitor's own wire format.
		jz, err := jazz.Pack(cfs)
		if err != nil {
			return err
		}
		if err := corpusFile("internal/jazz/testdata/fuzz/FuzzJazzDecode", "seed-"+profile, jz); err != nil {
			return err
		}

		// FuzzReadClassFile: individual class files.
		for i, data := range raw {
			if i >= 3 {
				break
			}
			name := fmt.Sprintf("seed-%s-%d", profile, i)
			if err := corpusFile("internal/classfile/testdata/fuzz/FuzzReadClassFile", name, data); err != nil {
				return err
			}
		}

		// FuzzStreamsReader: the raw stream container from a real pack
		// (the archive body after the 6-byte header), in both the
		// checked (per-stream CRC + trailer) and unchecked layouts.
		if len(packed) > 6 {
			if err := corpusFile("internal/streams/testdata/fuzz/FuzzStreamsReader",
				"seed-"+profile, packed[6:]); err != nil {
				return err
			}
		}
		if len(legacy) > 6 {
			if err := corpusFile("internal/streams/testdata/fuzz/FuzzStreamsReader",
				"seed-"+profile+"-unchecked", legacy[6:]); err != nil {
				return err
			}
		}
	}

	// FuzzCustomDecode: a dictionary and rewritten sequence from a real
	// §7.2 greedy compression run, in the harness's 5-byte dict encoding.
	seqs := [][]byte{nil, nil}
	for i := 0; i < 60; i++ {
		seqs[0] = append(seqs[0], 1, 2, 3)
		seqs[1] = append(seqs[1], 9, 9, 4, 7)
	}
	work, dict := custom.Compress(seqs, 200, 8)
	for i, seq := range work {
		name := fmt.Sprintf("seed-compress-%d", i)
		if err := corpusFile("internal/custom/testdata/fuzz/FuzzCustomDecode",
			name, marshalDict(dict), custom.Serialize(seq)); err != nil {
			return err
		}
	}

	// An empty container and a tiny hand-rolled one for the streams walker.
	w := streams.NewWriter(false, 1)
	w.Stream("seed.ints").Uint(1 << 20)
	w.Stream("seed.raw").Write([]byte("seed"))
	small, err := w.Finish()
	if err != nil {
		return err
	}
	return corpusFile("internal/streams/testdata/fuzz/FuzzStreamsReader", "seed-small", small)
}
