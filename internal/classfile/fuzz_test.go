package classfile_test

import (
	"testing"

	"classpack/internal/classfile"
	"classpack/internal/synth"
	"classpack/internal/verifier"
)

// FuzzReadClassFile throws arbitrary bytes at the class-file parser.
// Parsing may fail with an error, never a panic; a class that parses
// must survive Verify and Write without panicking either. A class that
// passes Verify, as a user's class files do before `jpack verify -deep`
// runs the dataflow verifier on them, must survive that verifier too.
func FuzzReadClassFile(f *testing.F) {
	p, err := synth.ProfileByName("209_db")
	if err != nil {
		f.Fatal(err)
	}
	cfs, err := synth.GenerateStripped(p, 0.05)
	if err != nil {
		f.Fatal(err)
	}
	if len(cfs) > 4 {
		cfs = cfs[:4]
	}
	for _, cf := range cfs {
		data, err := classfile.Write(cf)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{0xCA, 0xFE, 0xBA, 0xBE})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cf, err := classfile.Parse(data)
		if err != nil {
			return
		}
		// Verify may reject a structurally parsed but inconsistent pool;
		// Write re-serializes whatever parsed. Neither may panic.
		if classfile.Verify(cf) == nil {
			_ = verifier.ClassVerdicts(cf)
		}
		_, _ = classfile.Write(cf)
	})
}
