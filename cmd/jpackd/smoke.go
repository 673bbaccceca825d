package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"strings"

	"classpack"
	"classpack/internal/archive"
	"classpack/internal/castore"
	"classpack/internal/classfile"
	"classpack/internal/serve"
	"classpack/internal/serve/client"
	"classpack/internal/synth"
)

// runSmoke is the end-to-end self-check behind `make serve-smoke`: it
// starts a real jpackd on a loopback port with a throwaway cache,
// drives it through the client with a synthetic corpus, and fails
// unless the cache hit, the digest fetch, the lazy class fetch (whose
// repeat must be an open-archive hit that decodes nothing and, on a
// chunked archive, compresses nothing), the /delta updates across two
// more releases, and the unpack round-trip all check out.
func runSmoke(cfg serve.Config, scale float64) error {
	p, err := synth.ProfileByName("213_javac")
	if err != nil {
		return err
	}
	cfs, err := synth.Generate(p, scale)
	if err != nil {
		return err
	}
	members := make([]archive.File, 0, len(cfs)+1)
	for _, cf := range cfs {
		data, err := classfile.Write(cf)
		if err != nil {
			return err
		}
		members = append(members, archive.File{Name: cf.ThisClassName() + ".class", Data: data})
	}
	members = append(members, archive.File{Name: "META-INF/MANIFEST.MF", Data: []byte("Manifest-Version: 1.0\n")})
	jar, err := archive.WriteJar(members)
	if err != nil {
		return err
	}

	cacheDir, err := os.MkdirTemp("", "jpackd-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cacheDir)
	st, err := castore.Open(cacheDir, 0)
	if err != nil {
		return err
	}
	cfg.Store = st

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve.New(cfg).Serve(ctx, ln) }()
	defer func() { cancel(); <-done }()
	c := client.New("http://"+ln.Addr().String(), nil)
	log.Printf("smoke: %d synthetic classes (%d-byte jar) against %s", len(cfs), len(jar), ln.Addr())

	first, err := c.Pack(ctx, jar)
	if err != nil {
		return fmt.Errorf("smoke pack: %w", err)
	}
	if first.Cache != "miss" {
		return fmt.Errorf("smoke: first pack was %q, want miss", first.Cache)
	}
	second, err := c.Pack(ctx, jar)
	if err != nil {
		return fmt.Errorf("smoke repack: %w", err)
	}
	if second.Cache != "hit" || !bytes.Equal(second.Packed, first.Packed) {
		return fmt.Errorf("smoke: second pack cache=%q, identical=%t; want a byte-identical hit",
			second.Cache, bytes.Equal(second.Packed, first.Packed))
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		return err
	}
	if m["encodes_total"] != 1 || m["cache_hits"] != 1 {
		return fmt.Errorf("smoke: metrics encodes=%d hits=%d, want 1/1", m["encodes_total"], m["cache_hits"])
	}

	fetched, err := c.Archive(ctx, first.Digest)
	if err != nil {
		return fmt.Errorf("smoke archive fetch: %w", err)
	}
	if !bytes.Equal(fetched, first.Packed) {
		return fmt.Errorf("smoke: GET /archive/%s differs from the pack response", first.Digest[:12])
	}
	files, err := classpack.Unpack(fetched)
	if err != nil {
		return fmt.Errorf("smoke: fetched archive does not unpack: %w", err)
	}
	if len(files) != len(cfs) {
		return fmt.Errorf("smoke: fetched archive holds %d classes, want %d", len(files), len(cfs))
	}

	if err := smokeClassFetch(ctx, c, first.Digest, files[0], cfg.Options.ChunkClasses > 0); err != nil {
		return err
	}
	if err := smokeDelta(ctx, c, members[:len(cfs)], first, cfg.Options.ChunkClasses); err != nil {
		return err
	}

	rebuilt, err := c.Unpack(ctx, fetched)
	if err != nil {
		return fmt.Errorf("smoke unpack: %w", err)
	}
	outMembers, err := archive.ReadJar(rebuilt)
	if err != nil {
		return err
	}
	if len(outMembers) != len(cfs) {
		return fmt.Errorf("smoke: rebuilt jar holds %d members, want %d", len(outMembers), len(cfs))
	}
	vr, err := c.Verify(ctx, rebuilt, false)
	if err != nil {
		return fmt.Errorf("smoke verify: %w", err)
	}
	if vr.Classes != len(cfs) || len(vr.Invalid) != 0 {
		return fmt.Errorf("smoke: verify of rebuilt jar: %d classes, %d invalid", vr.Classes, len(vr.Invalid))
	}

	log.Printf("smoke: ok — %d classes, %d -> %d bytes (%.1f%%), cache hit, digest %s round-trips",
		len(cfs), len(jar), len(first.Packed),
		100*float64(len(first.Packed))/float64(len(jar)), first.Digest[:12])
	return nil
}

// smokeClassFetch fetches one class twice as a ?classes= subset and
// checks the bytes and the open-archive cache: the second fetch must be
// served from the archive the first one opened, and decode nothing,
// whatever the archive's version. The first fetch compresses the
// class's jar member; on a chunked (version-3) archive the repeat must
// reuse the body the chunk cache kept and compress nothing, where a
// version-1/2 archive compresses it again.
func smokeClassFetch(ctx context.Context, c *client.Client, digest string, want classpack.File, chunked bool) error {
	name := strings.TrimSuffix(want.Name, ".class")
	var decodes, hits, deflates [2]int64
	for i := range decodes {
		sub, err := c.ArchiveClasses(ctx, digest, []string{name})
		if err != nil {
			return fmt.Errorf("smoke class fetch: %w", err)
		}
		members, err := archive.ReadJar(sub)
		if err != nil {
			return fmt.Errorf("smoke class fetch: %w", err)
		}
		if len(members) == 0 || !bytes.Equal(members[0].Data, want.Data) {
			return fmt.Errorf("smoke: GET ?classes=%s differs from the full unpack", name)
		}
		m, err := c.Metrics(ctx)
		if err != nil {
			return err
		}
		decodes[i], hits[i], deflates[i] = m["decodes_total"], m["open_archive_hits"], m["member_deflates_total"]
	}
	if d, h := decodes[1]-decodes[0], hits[1]-hits[0]; d != 0 || h != 1 {
		return fmt.Errorf("smoke: repeat class fetch ran %d decodes with %d open-archive hits, want 0 and 1", d, h)
	}
	repeat := int64(1)
	if chunked {
		repeat = 0
	}
	if z := deflates[1] - deflates[0]; deflates[0] != 1 || z != repeat {
		return fmt.Errorf("smoke: class fetches compressed %d and then %d jar members, want 1 and then %d",
			deflates[0], z, repeat)
	}
	return nil
}

// smokeDelta packs two more releases of the smoke corpus, each from the
// one before by synth.MutateClasses, and GETs /delta from the first to
// the second, then from the second to the third, twice. Each patch must
// ApplyDelta to the packed archive. On a chunked archive the chunk
// cache must show that the second delta read the second release's
// changed chunks from the digests the first delta kept (added hits),
// that the repeat decoded and kept nothing (no added misses or bytes),
// and that the deltas kept at most 64 bytes a class they diffed.
func smokeDelta(ctx context.Context, c *client.Client, v1 []archive.File, first *client.PackResult, chunk int) error {
	releases := [][]archive.File{v1}
	packed := []*client.PackResult{first}
	for seed := int64(1); seed <= 2; seed++ {
		prev := releases[len(releases)-1]
		data := make([][]byte, len(prev))
		for i, m := range prev {
			data[i] = m.Data
		}
		mutated, _, err := synth.MutateClasses(data, 0.3, seed)
		if err != nil {
			return err
		}
		next := make([]archive.File, len(prev))
		for i, m := range prev {
			next[i] = archive.File{Name: m.Name, Data: mutated[i]}
		}
		jar, err := archive.WriteJar(next)
		if err != nil {
			return err
		}
		res, err := c.Pack(ctx, jar)
		if err != nil {
			return fmt.Errorf("smoke release pack: %w", err)
		}
		releases, packed = append(releases, next), append(packed, res)
	}
	// changed lists the chunks of release r that differ from release
	// r-1, with their class counts; the deltas read those chunks of both.
	changed := func(r int) map[int]int64 {
		out := make(map[int]int64)
		if chunk <= 0 {
			return out
		}
		for i := range releases[r] {
			if !bytes.Equal(releases[r][i].Data, releases[r-1][i].Data) {
				ci := i / chunk
				out[ci] = int64(min(chunk, len(releases[r])-ci*chunk))
			}
		}
		return out
	}
	var classes, shared int64
	for ci, n := range changed(1) {
		classes += 2 * n
		if _, ok := changed(2)[ci]; ok {
			shared++
		}
	}
	for _, n := range changed(2) {
		classes += 2 * n
	}
	var hits, misses, cached [4]int64
	for i, pair := range [][2]int{{0, 1}, {1, 2}, {1, 2}} {
		m, err := c.Metrics(ctx)
		if err != nil {
			return err
		}
		hits[i], misses[i], cached[i] = m["chunk_cache_hits"], m["chunk_cache_misses"], m["chunk_cache_bytes"]
		patch, err := c.Delta(ctx, packed[pair[0]].Digest, packed[pair[1]].Digest)
		if err != nil {
			return fmt.Errorf("smoke delta %d->%d: %w", pair[0]+1, pair[1]+1, err)
		}
		got, err := classpack.ApplyDelta(packed[pair[0]].Packed, patch, nil)
		if err != nil {
			return fmt.Errorf("smoke: delta %d->%d does not apply: %w", pair[0]+1, pair[1]+1, err)
		}
		if !bytes.Equal(got, packed[pair[1]].Packed) {
			return fmt.Errorf("smoke: delta %d->%d rebuilt other bytes than the packed archive", pair[0]+1, pair[1]+1)
		}
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		return err
	}
	hits[3], misses[3], cached[3] = m["chunk_cache_hits"], m["chunk_cache_misses"], m["chunk_cache_bytes"]
	if chunk <= 0 {
		return nil
	}
	if shared == 0 {
		return fmt.Errorf("smoke: corpus construction broken: the releases change no chunk in common")
	}
	if h := hits[2] - hits[1]; h < shared {
		return fmt.Errorf("smoke: the second delta added %d chunk-cache hits, want at least one for each of the %d changed chunks it shares with the first", h, shared)
	}
	if misses[3] != misses[2] || cached[3] != cached[2] {
		return fmt.Errorf("smoke: the repeated delta added %d chunk-cache misses and %d bytes, want none",
			misses[3]-misses[2], cached[3]-cached[2])
	}
	if grown := cached[3] - cached[0]; grown > 64*classes {
		return fmt.Errorf("smoke: the deltas grew chunk_cache_bytes by %d, over 64 bytes for each of the %d classes they diffed",
			grown, classes)
	}
	return nil
}
