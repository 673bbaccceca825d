package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"classpack"
	"classpack/internal/castore"
	"classpack/internal/serve/client"
)

// get returns the archive held under digest, as open's lookup finds it.
func (c *archiveCache) get(digest string) (*classpack.Archive, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookup(digest)
}

// add holds a under digest at cost, as open keeps what it opened.
func (c *archiveCache) add(digest string, a *classpack.Archive, cost int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insert(digest, a, cost)
}

// TestArchiveCacheLRU fills an open-archive cache past its bound: the
// least recently used entry goes, and an entry larger than the whole
// bound is never kept.
func TestArchiveCacheLRU(t *testing.T) {
	jar, _ := testJar(t)
	packed, _, err := classpack.PackJar(jar, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := classpack.OpenArchiveBytes(packed, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := newArchiveCache(100)
	c.add("d1", a, 40)
	c.add("d2", a, 40)
	if _, ok := c.get("d1"); !ok { // d2 is now the least recently used
		t.Fatal("d1 missing before the bound was reached")
	}
	c.add("d3", a, 40)
	if _, ok := c.get("d2"); ok {
		t.Fatal("the least recently used entry survived the bound")
	}
	for _, d := range []string{"d1", "d3"} {
		if _, ok := c.get(d); !ok {
			t.Fatalf("%s evicted in place of the least recently used entry", d)
		}
	}
	c.add("d4", a, 101)
	if _, ok := c.get("d4"); ok {
		t.Fatal("an entry larger than the bound was kept")
	}
	c.add("d1", a, 60) // already held: no second entry, no new cost
	want := archiveCacheStats{Entries: 2, Bytes: 80, Hits: 3, Misses: 2}
	if st := c.snapshot(); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	c.remove("d3")
	if st := c.snapshot(); st.Entries != 1 || st.Bytes != 40 {
		t.Fatalf("after remove: stats = %+v, want one entry of 40 bytes", st)
	}
}

// wantNotFound fails unless err is the 404 not_found of an absent
// digest.
func wantNotFound(t *testing.T, what string, err error) {
	t.Helper()
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "not_found" || apiErr.Status != http.StatusNotFound {
		t.Fatalf("%s: err = %v, want not_found 404", what, err)
	}
}

// TestOpenArchiveFollowsStore opens an archive through a class GET and
// then has castore drop its digest, once by evicting it (a cap below two
// archives) and once by forgetting it after its file is removed: class
// and subset GETs of the digest are 404 not_found, as they are when it
// was never opened, and the open-archive cache lets it go.
func TestOpenArchiveFollowsStore(t *testing.T) {
	base, _ := testJar(t)
	ctx := context.Background()
	check := func(t *testing.T, s *Server, c *client.Client, digest string) {
		t.Helper()
		_, err := c.ArchiveClass(ctx, digest, "Box")
		wantNotFound(t, "class GET", err)
		_, err = c.ArchiveClasses(ctx, digest, []string{"Box"})
		wantNotFound(t, "subset GET", err)
		if st := s.archives.snapshot(); st.Entries != 0 {
			t.Fatalf("open-archive cache holds %d entries of a dropped digest", st.Entries)
		}
	}

	t.Run("evicted", func(t *testing.T) {
		st, err := castore.Open(t.TempDir(), 1) // holds the most recent object only
		if err != nil {
			t.Fatal(err)
		}
		s, c, _ := startServer(t, Config{Store: st})
		first, err := c.Pack(ctx, distinctJar(t, base, 1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.ArchiveClass(ctx, first.Digest, "Box"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Pack(ctx, distinctJar(t, base, 2)); err != nil {
			t.Fatal(err)
		}
		check(t, s, c, first.Digest)
	})

	t.Run("forgotten", func(t *testing.T) {
		st := newStore(t)
		s, c, _ := startServer(t, Config{Store: st})
		res, err := c.Pack(ctx, base)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.ArchiveClasses(ctx, res.Digest, []string{"Box"}); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(st.Dir(), res.Digest[:2], res.Digest)); err != nil {
			t.Fatal(err)
		}
		_, err = c.Archive(ctx, res.Digest) // the store's read finds no file and forgets the digest
		wantNotFound(t, "whole GET", err)
		check(t, s, c, res.Digest)
	})
}

// TestOpenArchiveConcurrentCounts opens a version-3 archive with a GET
// that decodes nothing, then sends concurrent class GETs into two cold
// chunks of it: each chunk is decoded once, and the decode counters
// charge each decode to exactly one request.
func TestOpenArchiveConcurrentCounts(t *testing.T) {
	jar, _ := synthJar(t, 0.05)
	opts := classpack.DefaultOptions()
	opts.ChunkClasses = 16
	_, c, _ := startServer(t, Config{Store: newStore(t), Options: opts, MaxJobs: 32, MaxQueue: 64})
	ctx := context.Background()
	res, err := c.Pack(ctx, jar)
	if err != nil {
		t.Fatal(err)
	}
	local, err := classpack.OpenArchiveBytes(res.Packed, &opts)
	if err != nil {
		t.Fatal(err)
	}
	names := local.ClassNames()
	if len(names) < 48 {
		t.Fatalf("corpus has %d classes, want three chunks", len(names))
	}
	seen := make(map[string]int)
	for _, n := range names {
		seen[n]++
	}
	// One uniquely named class from each of chunks 1 and 2, and the
	// bytes each of those chunks decodes to.
	var targets []string
	var want [][]byte
	var decoded int64
	for _, chunk := range []int{1, 2} {
		for g := 16 * chunk; g < 16*(chunk+1); g++ {
			if seen[names[g]] == 1 {
				targets = append(targets, names[g])
				break
			}
		}
		if len(targets) != chunk {
			t.Fatalf("no unique class name in chunk %d", chunk)
		}
		h := local.Reopen()
		data, err := h.ExtractClass(targets[chunk-1])
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, data)
		decoded += h.DecodedBytes()
	}

	var apiErr *client.APIError
	if _, err := c.ArchiveClass(ctx, res.Digest, "no/such/Class"); !errors.As(err, &apiErr) || apiErr.Code != "class_not_found" {
		t.Fatalf("opening GET: err = %v, want class_not_found", err)
	}
	if m := metrics(t, c); m["open_archive_misses"] != 1 || m["open_archives"] != 1 || m["decodes_total"] != 0 {
		t.Fatalf("after the opening GET: misses=%d archives=%d decodes=%d, want 1/1/0",
			m["open_archive_misses"], m["open_archives"], m["decodes_total"])
	}

	const perChunk = 16
	var wg sync.WaitGroup
	for i := 0; i < 2*perChunk; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := i % 2
			got, err := c.ArchiveClass(ctx, res.Digest, targets[k])
			if err != nil {
				t.Errorf("GET %d: %v", i, err)
			} else if !bytes.Equal(got, want[k]) {
				t.Errorf("GET %d: bytes differ from the local extraction", i)
			}
		}()
	}
	wg.Wait()
	m := metrics(t, c)
	if m["decodes_total"] != 2 || m["class_bytes_decoded"] != decoded {
		t.Fatalf("decodes=%d bytes=%d, want 2/%d", m["decodes_total"], m["class_bytes_decoded"], decoded)
	}
	if m["chunk_cache_misses"] != 2 || m["chunk_cache_hits"] != 2*perChunk-2 {
		t.Fatalf("chunk cache misses=%d hits=%d, want 2/%d", m["chunk_cache_misses"], m["chunk_cache_hits"], 2*perChunk-2)
	}
	if m["open_archive_hits"] != 2*perChunk || m["open_archive_misses"] != 1 || m["open_archives"] != 1 {
		t.Fatalf("open archives hits=%d misses=%d entries=%d, want %d/1/1",
			m["open_archive_hits"], m["open_archive_misses"], m["open_archives"], 2*perChunk)
	}
	if m["open_archive_bytes"] < int64(len(res.Packed)) {
		t.Fatalf("open_archive_bytes = %d, want at least the archive's %d", m["open_archive_bytes"], len(res.Packed))
	}
}

// TestArchiveCacheOpenFlight parks a herd on one digest's open: the
// open runs once, the waiters share its archive and count as hits, and
// the archive is kept. A failing open reaches its caller and is not
// kept, so the next caller opens afresh; a panicking open reaches its
// caller as the panic and a waiter as errOpenPanicked, and is not kept
// either; a waiter whose request is gone stops waiting.
func TestArchiveCacheOpenFlight(t *testing.T) {
	jar, _ := testJar(t)
	packed, _, err := classpack.PackJar(jar, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := classpack.OpenArchiveBytes(packed, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := newArchiveCache(1 << 20)
	ctx := context.Background()

	release := make(chan struct{})
	var loads atomic.Int32
	load := func() (*classpack.Archive, int64, *apiError) {
		loads.Add(1)
		<-release
		return a, 10, nil
	}
	const herd = 16
	got := make([]*classpack.Archive, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var apiErr *apiError
			if got[i], apiErr = c.open(ctx, "d1", load); apiErr != nil {
				t.Errorf("open %d: %v", i, apiErr)
			}
		}()
	}
	// Waiters count as hits before they block, so this waits until every
	// one of them is parked on the first caller's open.
	for c.snapshot().Hits < herd-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	for i, g := range got {
		if g != a {
			t.Fatalf("caller %d got another archive than the open's", i)
		}
	}
	if st := c.snapshot(); loads.Load() != 1 || st != (archiveCacheStats{Entries: 1, Bytes: 10, Hits: herd - 1, Misses: 1}) {
		t.Fatalf("%d loads, stats %+v; want one load, kept", loads.Load(), st)
	}

	failed := errf(http.StatusNotFound, "not_found", "gone")
	for i := 0; i < 2; i++ {
		if _, apiErr := c.open(ctx, "d2", func() (*classpack.Archive, int64, *apiError) { return nil, 0, failed }); apiErr != failed {
			t.Fatalf("failing open %d: err = %v, want the load's", i, apiErr)
		}
	}
	if st := c.snapshot(); st.Entries != 1 || st.Misses != 3 {
		t.Fatalf("after two failing opens: stats %+v, want both tried and neither kept", st)
	}

	release = make(chan struct{})
	recovered := make(chan any)
	go func() {
		defer func() { recovered <- recover() }()
		c.open(ctx, "d3", func() (*classpack.Archive, int64, *apiError) {
			<-release
			panic("boom")
		})
	}()
	for c.snapshot().Misses < 4 {
		runtime.Gosched()
	}
	waiter := make(chan *apiError)
	go func() {
		_, apiErr := c.open(ctx, "d3", func() (*classpack.Archive, int64, *apiError) {
			t.Error("a waiter opened while an open was in flight")
			return nil, 0, nil
		})
		waiter <- apiErr
	}()
	for c.snapshot().Hits < herd {
		runtime.Gosched()
	}
	gone, cancel := context.WithCancel(ctx)
	cancel()
	if _, apiErr := c.open(gone, "d3", nil); apiErr == nil || apiErr.code != "timeout" {
		t.Fatalf("waiter whose request is gone: err = %v, want timeout", apiErr)
	}
	close(release)
	if r := <-recovered; r != "boom" {
		t.Fatalf("opening caller recovered %v, want the load's panic", r)
	}
	if apiErr := <-waiter; apiErr != errOpenPanicked {
		t.Fatalf("waiter: err = %v, want errOpenPanicked", apiErr)
	}
	if got, apiErr := c.open(ctx, "d3", func() (*classpack.Archive, int64, *apiError) { return a, 10, nil }); got != a || apiErr != nil {
		t.Fatalf("after the panic: got %v, %v; want a fresh open", got, apiErr)
	}
	if st := c.snapshot(); st.Entries != 2 || st.Misses != 5 {
		t.Fatalf("after the panic: stats %+v, want the fresh open kept", st)
	}
}
