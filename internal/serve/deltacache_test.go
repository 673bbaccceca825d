package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"slices"
	"strings"
	"sync"
	"testing"

	"classpack"
	"classpack/internal/archive"
	"classpack/internal/classfile"
	"classpack/internal/synth"
)

// releaseJar builds the jar of one release's classes.
func releaseJar(t *testing.T, raw [][]byte) []byte {
	t.Helper()
	members := make([]archive.File, len(raw))
	for i, data := range raw {
		cf, err := classfile.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		members[i] = archive.File{Name: cf.ThisClassName() + ".class", Data: data}
	}
	jar, err := archive.WriteJar(members)
	if err != nil {
		t.Fatal(err)
	}
	return jar
}

// mutateInChunks returns raw with one more class changed in each of the
// given chunks of chunkClasses classes: the first mutable class there
// that skip does not list, which it then lists.
func mutateInChunks(t *testing.T, raw [][]byte, chunkClasses int, skip map[int]bool, chunks ...int) [][]byte {
	t.Helper()
	out := slices.Clone(raw)
	for _, ci := range chunks {
		changed := false
		for g := ci * chunkClasses; g < (ci+1)*chunkClasses && g < len(raw) && !changed; g++ {
			if skip[g] {
				continue
			}
			m, ok, err := synth.MutateClass(raw[g])
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				out[g], skip[g], changed = m, true, true
			}
		}
		if !changed {
			t.Fatalf("corpus construction broken: chunk %d has no mutable class left", ci)
		}
	}
	return out
}

// TestDeltaAndGETsConcurrentCounts runs herds of /delta requests, then
// herds of class and ?classes= GETs alongside more /delta requests, over
// shared chunks of three releases on a fresh server: v2 changes chunks
// 1 and 2 of v1, and v3 changes chunks 2 and 3 of v2. The first herd
// decodes each chunk the diffs read once, and the cache keeps only
// their digests. In the second, each chunk the GETs need is decoded
// once more, upgrading its digests-only entry while diffs read it, and
// the diffs decode nothing. The chunk-cache counters and bytes, and
// decodes_total, are exact at each step and within the cache's bound;
// every patch equals a local Diff's, which applies, and every GET
// equals the local extraction.
func TestDeltaAndGETsConcurrentCounts(t *testing.T) {
	const chunkClasses = 16
	_, v1 := synthJar(t, 0.05)
	if len(v1) < 4*chunkClasses {
		t.Fatalf("corpus has %d classes, want four chunks", len(v1))
	}
	skip := make(map[int]bool)
	v2 := mutateInChunks(t, v1, chunkClasses, skip, 1, 2)
	v3 := mutateInChunks(t, v2, chunkClasses, skip, 2, 3)
	opts := classpack.DefaultOptions()
	opts.ChunkClasses = chunkClasses
	_, c, _ := startServer(t, Config{Store: newStore(t), Options: opts, MaxJobs: 32, MaxQueue: 256})
	ctx := context.Background()
	var digests [3]string
	var packed [3][]byte
	var full [3][]classpack.File
	for i, raw := range [][][]byte{v1, v2, v3} {
		res, err := c.Pack(ctx, releaseJar(t, raw))
		if err != nil {
			t.Fatal(err)
		}
		digests[i], packed[i] = res.Digest, res.Packed
		if full[i], err = classpack.Unpack(res.Packed); err != nil {
			t.Fatal(err)
		}
	}
	chunk := func(r, ci int) []classpack.File {
		return full[r][ci*chunkClasses : min((ci+1)*chunkClasses, len(full[r]))]
	}
	digestCost := func(r, ci int) int64 { return sha256.Size * int64(len(chunk(r, ci))+1) }
	// The chunks the diffs read: v1's and v2's chunks 1 and 2 for v1→v2,
	// v2's and v3's chunks 2 and 3 for v2→v3. v2's chunk 3 holds v1's
	// chunk 3 classes, and v2's chunk 2 is read by both diffs.
	var wantBytes int64
	for _, rc := range [][2]int{{0, 1}, {0, 2}, {1, 1}, {1, 2}, {1, 3}, {2, 2}, {2, 3}} {
		wantBytes += digestCost(rc[0], rc[1])
	}
	const digested = 7

	// Every served patch must equal a local Diff's, which applies.
	var wantPatch [2][]byte
	for from := range wantPatch {
		var err error
		if wantPatch[from], err = classpack.Diff(packed[from], packed[from+1], nil); err != nil {
			t.Fatal(err)
		}
		got, err := classpack.ApplyDelta(packed[from], wantPatch[from], nil)
		if err != nil || !bytes.Equal(got, packed[from+1]) {
			t.Fatalf("delta %d->%d does not apply: %v", from+1, from+2, err)
		}
	}

	var wg sync.WaitGroup
	deltas := func(rounds int) {
		for r := 0; r < rounds; r++ {
			for from := 0; from < 2; from++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					patch, err := c.Delta(ctx, digests[from], digests[from+1])
					if err != nil || !bytes.Equal(patch, wantPatch[from]) {
						t.Errorf("delta %d->%d: %v, patch equals a local Diff's %t",
							from+1, from+2, err, bytes.Equal(patch, wantPatch[from]))
					}
				}()
			}
		}
	}
	const rounds = 4
	deltas(rounds)
	wg.Wait()
	m := metrics(t, c)
	lookups := int64(rounds * 8) // each diff reads 2 chunks a side
	if m["chunk_cache_misses"] != digested || m["chunk_cache_hits"] != lookups-digested ||
		m["chunk_cache_bytes"] != wantBytes || m["decodes_total"] != 0 {
		t.Fatalf("after the diffs: misses %d, hits %d, bytes %d, decodes_total %d; want %d, %d, %d (digests alone), 0",
			m["chunk_cache_misses"], m["chunk_cache_hits"], m["chunk_cache_bytes"], m["decodes_total"],
			digested, lookups-digested, wantBytes)
	}

	// GETs that need v2's chunk 2 and v3's chunks 2 and 3, each of which
	// the cache holds as digests alone, alongside more diffs.
	type get struct {
		release int
		ords    []int // one class GET, or a subset GET of several
	}
	name := func(f classpack.File) string { return strings.TrimSuffix(f.Name, ".class") }
	seen := make(map[string]int)
	for _, f := range full[0] {
		seen[name(f)]++
	}
	// at is the k-th class of chunk ci whose name is unique and selects
	// only itself in a ?classes= list.
	at := func(ci, k int) int {
		for _, g := range chunkOrds(ci, chunkClasses, len(full[0])) {
			if n := name(full[0][g]); seen[n] == 1 && !strings.ContainsAny(n, "*?[\\,") {
				if k == 0 {
					return g
				}
				k--
			}
		}
		t.Fatalf("chunk %d has too few uniquely named classes", ci)
		return 0
	}
	gets := []get{
		{1, []int{at(2, 0)}},
		{1, []int{at(2, 1), at(2, 2)}},
		{2, []int{at(3, 0)}},
		{2, []int{at(3, 1), at(2, 0)}},
		{2, []int{at(2, 3)}},
	}
	var bodies int64
	deflated := make(map[[2]int]bool)
	for _, g := range gets {
		if len(g.ords) == 1 {
			continue
		}
		for _, o := range g.ords {
			if !deflated[[2]int{g.release, o}] {
				deflated[[2]int{g.release, o}] = true
				b, err := archive.DeflateBody(full[g.release][o].Data)
				if err != nil {
					t.Fatal(err)
				}
				bodies += int64(len(b.Data))
			}
		}
	}
	for _, rc := range [][2]int{{1, 2}, {2, 2}, {2, 3}} {
		for _, f := range chunk(rc[0], rc[1]) {
			wantBytes += int64(len(f.Name) + len(f.Data))
		}
	}
	wantBytes += bodies
	const upgraded = 3
	for r := 0; r < rounds; r++ {
		for _, g := range gets {
			wg.Add(1)
			go func() {
				defer wg.Done()
				files := full[g.release]
				if len(g.ords) == 1 {
					got, err := c.ArchiveClass(ctx, digests[g.release], name(files[g.ords[0]]))
					if err != nil || !bytes.Equal(got, files[g.ords[0]].Data) {
						t.Errorf("class GET: %v, bytes equal %t", err, bytes.Equal(got, files[g.ords[0]].Data))
					}
					return
				}
				var names []string
				var want []classpack.File // in archive order, as the server selects them
				ords := slices.Clone(g.ords)
				slices.Sort(ords)
				for _, o := range ords {
					names = append(names, name(files[o]))
					want = append(want, files[o])
				}
				wantJar, err := classpack.JarFromFiles(want)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := c.ArchiveClasses(ctx, digests[g.release], names)
				if err != nil || !bytes.Equal(got, wantJar) {
					t.Errorf("subset GET: %v, jar equal %t", err, bytes.Equal(got, wantJar))
				}
			}()
		}
	}
	deltas(rounds)
	wg.Wait()
	m = metrics(t, c)
	for _, g := range gets {
		lookups += int64(rounds) * int64(len(chunksHolding(g.ords, chunkClasses)))
	}
	lookups += rounds * 8
	if m["chunk_cache_misses"] != digested+upgraded || m["chunk_cache_hits"] != lookups-digested-upgraded ||
		m["decodes_total"] != upgraded || m["member_deflates_total"] != int64(len(deflated)) {
		t.Fatalf("after the GETs: misses %d, hits %d, decodes_total %d, member_deflates_total %d; want %d, %d, %d, %d",
			m["chunk_cache_misses"], m["chunk_cache_hits"], m["decodes_total"], m["member_deflates_total"],
			digested+upgraded, lookups-digested-upgraded, upgraded, len(deflated))
	}
	if m["chunk_cache_bytes"] != wantBytes || wantBytes > DefaultChunkCacheBytes {
		t.Fatalf("chunk_cache_bytes = %d, want the digests, three chunks' classes and %d bodies, %d, within %d",
			m["chunk_cache_bytes"], len(deflated), wantBytes, DefaultChunkCacheBytes)
	}
}

// chunksHolding returns the distinct chunks of chunkClasses classes that
// hold the ordinals.
func chunksHolding(ords []int, chunkClasses int) map[int]bool {
	out := make(map[int]bool)
	for _, o := range ords {
		out[o/chunkClasses] = true
	}
	return out
}

// chunkOrds returns the ordinals of chunk ci of chunkClasses classes,
// in an archive of n classes.
func chunkOrds(ci, chunkClasses, n int) []int {
	var out []int
	for g := ci * chunkClasses; g < min((ci+1)*chunkClasses, n); g++ {
		out = append(out, g)
	}
	return out
}
