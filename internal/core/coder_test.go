package core

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"classpack/internal/classfile"
	"classpack/internal/synth"
)

// coderRunning reports whether a goroutine started by a stream writer's
// coder is alive. A coder that has closed its done channel may still be
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

// TestNoCoderOutlivesPack packs a corpus with a stream past 64 KiB at
// concurrency 2, so its writer DEFLATEs that stream on a coder goroutine
// during the walk. No coder may outlive Pack, PackStats or Traces, nor a
// pack that fails in the walk, fails coding a reference pool, or panics
// in the walk.
func TestNoCoderOutlivesPack(t *testing.T) {
	prof, err := synth.ProfileByName("tools")
	if err != nil {
		t.Fatal(err)
	}
	cfs, err := synth.GenerateStripped(prof, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Concurrency = 2
	check := func(what string) {
		t.Helper()
		if coderRunning() {
			t.Fatalf("a coder goroutine outlived %s", what)
		}
	}

	sizes, err := PackStats(cfs, opts)
	if err != nil {
		t.Fatal(err)
	}
	check("PackStats")
	large := false
	for _, sz := range sizes {
		large = large || sz[0] > 1<<16
	}
	if !large {
		t.Fatal("the corpus has no stream past 64 KiB")
	}
	if _, err := Pack(cfs, opts); err != nil {
		t.Fatal(err)
	}
	check("Pack")
	if _, err := Traces(cfs, opts); err != nil {
		t.Fatal(err)
	}
	check("Traces")

	// The walk reaches the bad class last, after the large stream grew.
	withLast := func(bad *classfile.ClassFile) []*classfile.ClassFile {
		return append(cfs[:len(cfs):len(cfs)], bad)
	}
	noName := *cfs[0]
	noName.ThisClass = 0
	_, err = Pack(withLast(&noName), opts)
	if err == nil || !strings.Contains(err.Error(), "index 0 is not a Class constant") {
		t.Fatalf("Pack of a class with this_class 0: %v", err)
	}
	check("a Pack that failed in the walk")

	_, err = walk(cfs, opts, func(p *packer) (struct{}, error) {
		miscount(t, p)
		return struct{}{}, p.finishRefs()
	})
	if err == nil {
		t.Fatal("finishRefs accepted a wrong count")
	}
	check("a Pack that failed coding a pool")

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Pack of a nil class did not panic")
			}
		}()
		Pack(withLast(nil), opts)
	}()
	check("a Pack that panicked")
}
