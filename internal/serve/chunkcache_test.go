package serve

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"classpack"
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
