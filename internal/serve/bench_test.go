package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"classpack"
	"classpack/internal/archive"
	"classpack/internal/castore"
	"classpack/internal/classfile"
	"classpack/internal/synth"
)

// BenchmarkArchiveClassGET serves GET /archive/{digest}/class/{name}
// through the server's handler in process (httptest, no sockets), from
// the cached tools archive at scale 1.0 in chunks of 64 classes, the
// archive of classpack-bench's serve-classes workload. Each GET asks for
// the next of the archive's uniquely named classes in turn. Every class
// is fetched once before the timer starts, so every chunk is decoded
// and cached: each timed GET costs what a repeat GET costs, the work
// around a decoded-chunk cache hit.
//
//	go test -run NONE -bench ArchiveClassGET -benchmem ./internal/serve
func BenchmarkArchiveClassGET(b *testing.B) {
	p, err := synth.ProfileByName("tools")
	if err != nil {
		b.Fatal(err)
	}
	cfs, err := synth.GenerateStripped(p, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	members := make([]archive.File, len(cfs))
	count := make(map[string]int)
	for i, cf := range cfs {
		data, err := classfile.Write(cf)
		if err != nil {
			b.Fatal(err)
		}
		members[i] = archive.File{Name: cf.ThisClassName() + ".class", Data: data}
		count[cf.ThisClassName()]++
	}
	jar, err := archive.WriteJar(members)
	if err != nil {
		b.Fatal(err)
	}
	st, err := castore.Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	opts := classpack.DefaultOptions()
	opts.ChunkClasses = 64
	h := New(Config{Store: st, Options: opts}).Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/pack", bytes.NewReader(jar)))
	if rec.Code != http.StatusOK {
		b.Fatalf("POST /pack: %d %s", rec.Code, rec.Body)
	}
	prefix := "/archive/" + rec.Header().Get(HeaderDigest) + "/class/"
	var targets []string
	for _, cf := range cfs {
		if name := cf.ThisClassName(); count[name] == 1 && !strings.ContainsAny(name, "%?# ") {
			targets = append(targets, prefix+name)
		}
	}
	get := func(target string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("GET %s: %d %s", target, rec.Code, rec.Body)
		}
	}
	for _, target := range targets {
		get(target)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get(targets[i%len(targets)])
	}
}
