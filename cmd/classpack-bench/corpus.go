package main

import (
	"fmt"

	"classpack"
	"classpack/internal/archive"
	"classpack/internal/classfile"
	"classpack/internal/synth"
)

// corpus is one synthetic program: its class files as a compiler
// distributes them and their stripped forms, which are what unpacking
// must reproduce.
type corpus struct {
	names    []string // jar member names, in input order
	files    [][]byte // as distributed
	stripped [][]byte // classpack.Strip of each file
}

// loadCorpus generates a profile's classes at a scale and mutates a
// mutateRate share of them from the seed (synth.MutateClasses), so each
// seed packs its own release of the program.
func loadCorpus(profile string, scale float64, seed int64) (*corpus, error) {
	p, err := synth.ProfileByName(profile)
	if err != nil {
		return nil, err
	}
	cfs, err := synth.Generate(p, scale)
	if err != nil {
		return nil, err
	}
	c := &corpus{}
	for _, cf := range cfs {
		data, err := classfile.Write(cf)
		if err != nil {
			return nil, err
		}
		c.names = append(c.names, cf.ThisClassName()+".class")
		c.files = append(c.files, data)
	}
	if c.files, _, err = synth.MutateClasses(c.files, mutateRate, seed); err != nil {
		return nil, err
	}
	c.stripped, err = stripAll(c.files, nil, nil)
	return c, err
}

// stripAll strips every file. Files that share their backing array with
// a file of prev (MutateClasses leaves unselected classes shared) reuse
// prevStripped, so a release derived from another strips only what
// changed.
func stripAll(files, prev, prevStripped [][]byte) ([][]byte, error) {
	out := make([][]byte, len(files))
	for i, f := range files {
		if i < len(prev) && len(f) > 0 && len(prev[i]) > 0 && &f[0] == &prev[i][0] {
			out[i] = prevStripped[i]
			continue
		}
		s, err := classpack.Strip(f)
		if err != nil {
			return nil, fmt.Errorf("stripping file %d: %w", i, err)
		}
		out[i] = s
	}
	return out, nil
}

// jar builds the per-file-DEFLATE jar of the given class files.
func jar(names []string, files [][]byte) ([]byte, error) {
	members := make([]archive.File, len(files))
	for i := range files {
		members[i] = archive.File{Name: names[i], Data: files[i]}
	}
	return archive.WriteJar(members)
}
