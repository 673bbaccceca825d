package serve

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"classpack"
	"classpack/internal/archive"
	"classpack/internal/castore"
	"classpack/internal/classfile"
	"classpack/internal/synth"
)

// benchChunkClasses is the chunk size of the benchmarks' archive, as
// classpack-bench's serve workloads pack it.
const benchChunkClasses = 64

// toolsServer packs the tools corpus at scale 1.0 in chunks of
// benchChunkClasses classes, the archive of classpack-bench's
// serve-classes workload, on a fresh server. It returns the server's
// handler, the archive's digest, and the binary names the archive holds
// once, with each name's position in archive order.
func toolsServer(b *testing.B) (h http.Handler, digest string, unique []string, ord map[string]int) {
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
	opts.ChunkClasses = benchChunkClasses
	h = New(Config{Store: st, Options: opts}).Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/pack", bytes.NewReader(jar)))
	if rec.Code != http.StatusOK {
		b.Fatalf("POST /pack: %d %s", rec.Code, rec.Body)
	}
	ord = make(map[string]int)
	for i, cf := range cfs {
		// Names with pattern metacharacters or commas would not select
		// themselves exactly in a ?classes= list.
		if name := cf.ThisClassName(); count[name] == 1 && !strings.ContainsAny(name, "*?[\\,%# ") {
			unique = append(unique, name)
			ord[name] = i
		}
	}
	return h, rec.Header().Get(HeaderDigest), unique, ord
}

// benchGET serves one GET through h and fails unless it succeeds.
func benchGET(b *testing.B, h http.Handler, target string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	if rec.Code != http.StatusOK {
		b.Fatalf("GET %s: %d %s", target, rec.Code, rec.Body)
	}
}

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
	h, digest, unique, _ := toolsServer(b)
	var targets []string
	for _, name := range unique {
		targets = append(targets, "/archive/"+digest+"/class/"+name)
	}
	for _, target := range targets {
		benchGET(b, h, target)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGET(b, h, targets[i%len(targets)])
	}
}

// BenchmarkArchiveSubsetGET serves GET /archive/{digest}?classes= of 4
// classes through the server's handler in process, from the archive
// BenchmarkArchiveClassGET reads. Its subsets are drawn as
// classpack-bench's serve-classes draws them: 4 distinct uniquely named
// classes, drawn again until they span 3 chunks; 64 such subsets, from
// a fixed seed, are asked for in turn. Every subset is fetched once
// before the timer starts, so each timed GET costs what a repeat subset
// GET costs once the server has decoded every chunk it touches.
//
//	go test -run NONE -bench ArchiveSubsetGET -benchmem ./internal/serve
func BenchmarkArchiveSubsetGET(b *testing.B) {
	const size, spanChunks, subsets = 4, 3, 64
	h, digest, unique, ord := toolsServer(b)
	rng := rand.New(rand.NewSource(1))
	var targets []string
	for len(targets) < subsets {
		names := make([]string, 0, size)
		chunks := make(map[int]bool)
		for _, k := range rng.Perm(len(unique))[:size] {
			names = append(names, unique[k])
			chunks[ord[unique[k]]/benchChunkClasses] = true
		}
		if len(chunks) == spanChunks {
			targets = append(targets, "/archive/"+digest+"?classes="+url.QueryEscape(strings.Join(names, ",")))
		}
	}
	for _, target := range targets {
		benchGET(b, h, target)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGET(b, h, targets[i%len(targets)])
	}
}

// jessReleases packs a chain of releases of the 202_jess corpus at scale
// 1.0, each from the one before by synth.MutateClasses at 5%, as
// classpack-bench's serve-write workload makes them, through a server at
// -chunk benchChunkClasses. It returns the store holding them, the
// server's options and the releases' digests in chain order.
func jessReleases(b *testing.B, n int) (st *castore.Store, opts classpack.Options, digests []string) {
	p, err := synth.ProfileByName("202_jess")
	if err != nil {
		b.Fatal(err)
	}
	cfs, err := synth.GenerateStripped(p, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, len(cfs))
	files := make([][]byte, len(cfs))
	for i, cf := range cfs {
		names[i] = cf.ThisClassName() + ".class"
		if files[i], err = classfile.Write(cf); err != nil {
			b.Fatal(err)
		}
	}
	if st, err = castore.Open(b.TempDir(), 0); err != nil {
		b.Fatal(err)
	}
	opts = classpack.DefaultOptions()
	opts.ChunkClasses = benchChunkClasses
	h := New(Config{Store: st, Options: opts}).Handler()
	for k := 0; k < n; k++ {
		if k > 0 {
			if files, _, err = synth.MutateClasses(files, 0.05, int64(k)); err != nil {
				b.Fatal(err)
			}
		}
		members := make([]archive.File, len(files))
		for i := range files {
			members[i] = archive.File{Name: names[i], Data: files[i]}
		}
		jar, err := archive.WriteJar(members)
		if err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/pack", bytes.NewReader(jar)))
		if rec.Code != http.StatusOK {
			b.Fatalf("POST /pack: %d %s", rec.Code, rec.Body)
		}
		digests = append(digests, rec.Header().Get(HeaderDigest))
	}
	return st, opts, digests
}

// BenchmarkDeltaGET serves GET /delta/{from}/{to} through the handler in
// process, between releases of a chain of 16 202_jess releases at scale
// 1.0 (5% of classes changed a step), packed at -chunk 64 as
// classpack-bench's serve-write workload packs them. In "chain" each
// GET's old release is the previous GET's new one, as in serve-write's
// updates; each run of the chain starts on a fresh server with an
// untimed first GET, so each timed GET's new release is one no earlier
// request diffed. In "repeat" the chain is asked a second time on one
// server that served it once before the timer started, so the chunk
// cache holds the digests of both releases of every GET: the traffic of
// a client repeating an update, or of many clients updating to one
// release, where the diff builds only the classes the patch carries. In
// "cold" each GET runs on a fresh server, so no earlier request diffed
// either release: the traffic a chunk cache cannot help.
//
//	go test -run NONE -bench DeltaGET -benchmem ./internal/serve
func BenchmarkDeltaGET(b *testing.B) {
	const releases = 16
	st, opts, digests := jessReleases(b, releases)
	fresh := func() http.Handler { return New(Config{Store: st, Options: opts}).Handler() }
	target := func(k int) string { return "/delta/" + digests[k] + "/" + digests[k+1] }
	b.Run("chain", func(b *testing.B) {
		b.ReportAllocs()
		var h http.Handler
		for i := 0; i < b.N; i++ {
			k := 1 + i%(releases-2)
			if k == 1 {
				b.StopTimer()
				h = fresh()
				benchGET(b, h, target(0))
				b.StartTimer()
			}
			benchGET(b, h, target(k))
		}
	})
	b.Run("repeat", func(b *testing.B) {
		h := fresh()
		for k := 0; k < releases-1; k++ {
			benchGET(b, h, target(k))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchGET(b, h, target(i%(releases-1)))
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			h := fresh()
			b.StartTimer()
			benchGET(b, h, target(i%(releases-1)))
		}
	})
}
