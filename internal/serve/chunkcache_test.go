package serve

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"classpack"
	"classpack/internal/archive"
	"classpack/internal/castore"
	"classpack/internal/serve/client"
)

// packedClass packs an "rt" synth jar as a version-3 archive on a fresh
// server built from cfg and picks a class with a unique name. It returns
// the archive digest, the class name, its bytes, and the decoded bytes
// of the one chunk holding it, all from a local extraction.
func packedClass(t *testing.T, cfg Config) (s *Server, c *client.Client, digest, name string, want []byte, oneChunk int64) {
	t.Helper()
	jar, _ := synthJar(t, 0.05)
	cfg.Options = classpack.DefaultOptions()
	cfg.Options.ChunkClasses = 16
	cfg.Store = newStore(t)
	s, c, _ = startServer(t, cfg)
	res, err := c.Pack(context.Background(), jar)
	if err != nil {
		t.Fatal(err)
	}
	local, err := classpack.OpenArchiveBytes(res.Packed, &cfg.Options)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	for _, n := range local.ClassNames() {
		seen[n]++
	}
	for _, n := range local.ClassNames()[16:] { // a chunk other than the first
		if seen[n] == 1 {
			name = n
			break
		}
	}
	if name == "" {
		t.Fatal("no unique class name past the first chunk")
	}
	if want, err = local.ExtractClass(name); err != nil {
		t.Fatal(err)
	}
	return s, c, res.Digest, name, want, local.DecodedBytes()
}

// metrics fetches the server's counters.
func metrics(t *testing.T, c *client.Client) map[string]int64 {
	t.Helper()
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestClassHerdDecodesOnce sends 32 concurrent GETs for one class of a
// cold chunk: the chunk is decoded exactly once, and every response
// carries the same bytes.
func TestClassHerdDecodesOnce(t *testing.T) {
	_, c, digest, name, want, oneChunk := packedClass(t, Config{MaxJobs: 32, MaxQueue: 64})
	const herd = 32
	bodies := make([][]byte, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if bodies[i], err = c.ArchiveClass(context.Background(), digest, name); err != nil {
				t.Errorf("GET %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	for i, b := range bodies {
		if !bytes.Equal(b, want) {
			t.Fatalf("response %d differs from the local extraction", i)
		}
	}
	m := metrics(t, c)
	if m["chunk_cache_misses"] != 1 || m["chunk_cache_hits"] != herd-1 || m["decodes_total"] != 1 {
		t.Fatalf("misses=%d hits=%d decodes=%d, want 1/%d/1",
			m["chunk_cache_misses"], m["chunk_cache_hits"], m["decodes_total"], herd-1)
	}
	if m["class_bytes_decoded"] != oneChunk {
		t.Fatalf("class_bytes_decoded = %d, want one chunk's %d", m["class_bytes_decoded"], oneChunk)
	}
	if m["chunk_cache_bytes"] <= 0 {
		t.Fatalf("chunk_cache_bytes = %d, want the cached chunk's cost", m["chunk_cache_bytes"])
	}
}

// TestClassAndSubsetShareChunk fetches one class by GET /class and then
// as a ?classes= subset: the second request is served from the chunk
// the first one decoded, and decodes nothing.
func TestClassAndSubsetShareChunk(t *testing.T) {
	_, c, digest, name, want, oneChunk := packedClass(t, Config{})
	ctx := context.Background()
	got, err := c.ArchiveClass(ctx, digest, name)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("class differs from the local extraction")
	}
	if _, err := c.ArchiveClasses(ctx, digest, []string{name}); err != nil {
		t.Fatal(err)
	}
	m := metrics(t, c)
	if m["decodes_total"] != 1 || m["class_bytes_decoded"] != oneChunk ||
		m["chunk_cache_hits"] != 1 || m["chunk_cache_misses"] != 1 {
		t.Fatalf("decodes=%d bytes=%d hits=%d misses=%d, want 1/%d/1/1",
			m["decodes_total"], m["class_bytes_decoded"], m["chunk_cache_hits"], m["chunk_cache_misses"], oneChunk)
	}
}

// TestOpenArchiveHerdOpensOnce sends 32 concurrent class GETs of a
// packed digest to a fresh server over the store that holds it, 20
// times: each herd reads and opens the archive once, and the other GETs
// wait for that open.
func TestOpenArchiveHerdOpensOnce(t *testing.T) {
	const herd, runs = 32, 20
	s, _, digest, name, want, _ := packedClass(t, Config{})
	cfg := Config{Options: s.cfg.Options, MaxJobs: herd, MaxQueue: 2 * herd}
	for run := 0; run < runs; run++ {
		st, err := castore.Open(s.cfg.Store.Dir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
		_, c, _ := startServer(t, cfg)
		var wg sync.WaitGroup
		for i := 0; i < herd; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got, err := c.ArchiveClass(context.Background(), digest, name); err != nil {
					t.Errorf("run %d, GET %d: %v", run, i, err)
				} else if !bytes.Equal(got, want) {
					t.Errorf("run %d, GET %d: bytes differ from the local extraction", run, i)
				}
			}()
		}
		wg.Wait()
		m := metrics(t, c)
		if m["open_archive_misses"] != 1 || m["open_archive_hits"] != herd-1 || m["open_archives"] != 1 {
			t.Fatalf("run %d: open-archive misses=%d hits=%d entries=%d, want 1/%d/1",
				run, m["open_archive_misses"], m["open_archive_hits"], m["open_archives"], herd-1)
		}
	}
}

// TestSubsetAndClassGETsConcurrentCounts sends concurrent ?classes= and
// class GETs over overlapping classes of four cold chunks of one
// version-3 archive. Each chunk is decoded once, each class a subset
// asks for is compressed once, and the chunk cache then costs exactly
// the four chunks' classes plus those classes' member bodies, within
// its bound. Every response equals the local extraction, and class GETs
// compress nothing, neither in the herd nor when repeated after it.
func TestSubsetAndClassGETsConcurrentCounts(t *testing.T) {
	jar, _ := synthJar(t, 0.05)
	opts := classpack.DefaultOptions()
	opts.ChunkClasses = 16
	_, c, _ := startServer(t, Config{Store: newStore(t), Options: opts, MaxJobs: 32, MaxQueue: 128})
	ctx := context.Background()
	res, err := c.Pack(ctx, jar)
	if err != nil {
		t.Fatal(err)
	}
	local, err := classpack.OpenArchiveBytes(res.Packed, &opts)
	if err != nil {
		t.Fatal(err)
	}
	full, err := classpack.Unpack(res.Packed)
	if err != nil {
		t.Fatal(err)
	}
	names := local.ClassNames()
	if len(names) < 64 {
		t.Fatalf("corpus has %d classes, want four chunks", len(names))
	}
	seen := make(map[string]int)
	for _, n := range names {
		seen[n]++
	}
	// Two uniquely named classes from each of chunks 0 to 3.
	var pick [4][2]int
	for chunk := range pick {
		k := 0
		for g := 16 * chunk; g < 16*(chunk+1) && k < 2; g++ {
			if seen[names[g]] == 1 && !strings.ContainsAny(names[g], "*?[\\,") {
				pick[chunk][k] = g
				k++
			}
		}
		if k < 2 {
			t.Fatalf("chunk %d has fewer than two unique class names", chunk)
		}
	}
	// The subsets overlap in chunks and in classes; chunk 3 only class
	// GETs touch.
	subsets := [][]int{
		{pick[0][0], pick[1][0]},
		{pick[1][0], pick[1][1], pick[2][0]},
		{pick[0][1], pick[2][0]},
	}
	classes := []int{pick[0][0], pick[1][1], pick[2][0], pick[3][0]}
	wantJar := make([][]byte, len(subsets))
	var bodies int64
	compressed := make(map[int]bool)
	for i, ords := range subsets {
		var files []classpack.File
		for _, g := range ords {
			files = append(files, full[g])
			if !compressed[g] {
				compressed[g] = true
				b, err := archive.DeflateBody(full[g].Data)
				if err != nil {
					t.Fatal(err)
				}
				bodies += int64(len(b.Data))
			}
		}
		if wantJar[i], err = classpack.JarFromFiles(files); err != nil {
			t.Fatal(err)
		}
	}
	var decoded, chunkCost int64
	for chunk := 0; chunk < 4; chunk++ {
		h := local.Reopen()
		if _, err := h.ExtractOrdinals([]int{16 * chunk}); err != nil {
			t.Fatal(err)
		}
		decoded += h.DecodedBytes()
		for _, f := range full[16*chunk : 16*(chunk+1)] {
			chunkCost += int64(len(f.Name) + len(f.Data))
		}
	}

	const rounds = 6
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for i, ords := range subsets {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var pats []string
				for _, g := range ords {
					pats = append(pats, names[g])
				}
				got, err := c.ArchiveClasses(ctx, res.Digest, pats)
				if err != nil {
					t.Errorf("subset %d: %v", i, err)
				} else if !bytes.Equal(got, wantJar[i]) {
					t.Errorf("subset %d: jar differs from JarFromFiles of the local extraction", i)
				}
			}()
		}
		for _, g := range classes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := c.ArchiveClass(ctx, res.Digest, names[g])
				if err != nil {
					t.Errorf("class %s: %v", names[g], err)
				} else if !bytes.Equal(got, full[g].Data) {
					t.Errorf("class %s: bytes differ from the full unpack", names[g])
				}
			}()
		}
	}
	wg.Wait()
	m := metrics(t, c)
	if m["decodes_total"] != 4 || m["class_bytes_decoded"] != decoded || m["chunk_cache_misses"] != 4 {
		t.Fatalf("decodes=%d bytes=%d misses=%d, want 4/%d/4",
			m["decodes_total"], m["class_bytes_decoded"], m["chunk_cache_misses"], decoded)
	}
	if m["member_deflates_total"] != int64(len(compressed)) {
		t.Fatalf("member_deflates_total = %d, want one per class the subsets ask for, %d",
			m["member_deflates_total"], len(compressed))
	}
	if want := chunkCost + bodies; m["chunk_cache_bytes"] != want || want > DefaultChunkCacheBytes {
		t.Fatalf("chunk_cache_bytes = %d, want four chunks' classes and %d bodies, %d, within %d",
			m["chunk_cache_bytes"], len(compressed), want, DefaultChunkCacheBytes)
	}

	for _, g := range pick {
		for _, g := range g {
			if _, err := c.ArchiveClass(ctx, res.Digest, names[g]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if after := metrics(t, c); after["member_deflates_total"] != m["member_deflates_total"] ||
		after["chunk_cache_bytes"] != m["chunk_cache_bytes"] {
		t.Fatalf("class GETs moved member_deflates_total %d -> %d and chunk_cache_bytes %d -> %d",
			m["member_deflates_total"], after["member_deflates_total"], m["chunk_cache_bytes"], after["chunk_cache_bytes"])
	}
}
