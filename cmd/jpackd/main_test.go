package main

import "testing"

// TestSmoke runs the same end-to-end self-check `make serve-smoke`
// does, at a small corpus scale.
func TestSmoke(t *testing.T) {
	if err := run([]string{"-smoke", "-smoke-scale", "0.02"}); err != nil {
		t.Fatal(err)
	}
}

// TestSmokeChunkCache runs the self-check on a version-3 archive: the
// repeat class fetch must be served from the decoded-chunk cache
// without decoding.
func TestSmokeChunkCache(t *testing.T) {
	if err := run([]string{"-smoke", "-smoke-scale", "0.02", "-chunk", "8"}); err != nil {
		t.Fatal(err)
	}
}

func TestBadScheme(t *testing.T) {
	if err := run([]string{"-scheme", "nope", "-smoke"}); err == nil {
		t.Fatal("bad scheme accepted")
	}
}
