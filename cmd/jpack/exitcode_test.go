package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestExitCodes pins the CLI contract: usage mistakes exit 2,
// operational failures (I/O, invalid classes) exit 1, success exits 0.
func TestExitCodes(t *testing.T) {
	classes, jarPath := writeClasses(t)
	dir := t.TempDir()

	usageCases := [][]string{
		nil,                   // no command
		{"bogus"},             // unknown command
		{"pack"},              // no inputs
		{"pack", "-wat", "x"}, // unknown flag
		{"pack", "-o"},        // dangling flag value
		{"pack", "-j", "-1", classes[0]},
		{"pack", "-scheme", "nope", classes[0]},
		{"unpack", "a", "b"}, // operand count
		{"strip", "a", "b"},
		{"remote"},         // missing subcommand
		{"remote", "wat"},  // unknown subcommand
		{"remote", "pack"}, // no inputs
		{"remote", "unpack", "a", "b"},
	}
	for _, args := range usageCases {
		if got := run(args); got != exitUsage {
			t.Errorf("run(%q) = %d, want %d (usage)", args, got, exitUsage)
		}
	}

	badClass := filepath.Join(dir, "Bad.class")
	if err := os.WriteFile(badClass, []byte("not a class file"), 0o644); err != nil {
		t.Fatal(err)
	}
	badHandler := writeHandlerInsideInstruction(t, dir)
	failureCases := [][]string{
		{"pack", filepath.Join(dir, "missing.class")}, // unreadable input
		{"pack", "-o", filepath.Join(dir, "x.cjp"), badClass},
		{"unpack", filepath.Join(dir, "missing.cjp")},
		{"verify", badClass}, // invalid class
		// A class Pack refuses for its code fails every verify mode too.
		{"pack", "-o", filepath.Join(dir, "h.cjp"), badHandler},
		{"verify", badHandler},
		{"verify", "-deep", badHandler},
		{"verify", "-bytecode", badHandler},
	}
	for i, bad := range writeRefusedClasses(t, dir) {
		failureCases = append(failureCases,
			[]string{"pack", "-o", filepath.Join(dir, fmt.Sprintf("r%d.cjp", i)), bad},
			[]string{"verify", bad},
			[]string{"verify", "-deep", bad},
			[]string{"verify", "-bytecode", bad})
		if i >= 2 { // the two classes holding an attribute the JVM reads
			failureCases = append(failureCases, []string{"strip", "-o", filepath.Join(dir, fmt.Sprintf("r%d.class", i)), bad})
		}
	}
	for _, args := range failureCases {
		if got := run(args); got != exitFailure {
			t.Errorf("run(%q) = %d, want %d (failure)", args, got, exitFailure)
		}
	}

	out := filepath.Join(dir, "ok.cjp")
	okCases := [][]string{
		{"help"},
		append([]string{"pack", "-o", out}, classes...),
		{"pack", "-o", filepath.Join(dir, "jar.cjp"), jarPath},
		{"unpack", "-d", filepath.Join(dir, "un"), out},
		append([]string{"verify"}, classes...),
	}
	for _, args := range okCases {
		if got := run(args); got != exitOK {
			t.Errorf("run(%q) = %d, want %d (ok)", args, got, exitOK)
		}
	}

	// No JPACKD_SERVER in the environment: remote without -server is a
	// usage error, not a connection failure.
	t.Setenv("JPACKD_SERVER", "")
	if got := run([]string{"remote", "pack", jarPath}); got != exitUsage {
		t.Errorf("remote pack without server = %d, want %d", got, exitUsage)
	}
}
