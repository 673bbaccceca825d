package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"classpack"
	"classpack/internal/archive"
	"classpack/internal/castore"
	"classpack/internal/classfile"
	"classpack/internal/core"
	"classpack/internal/par"
	"classpack/internal/serve/client"
	"classpack/internal/streams"
	"classpack/internal/strip"
)

// This file replays the codec and jpackd's handlers as sequences of
// calls into the modules' public functions, each wrapped in a span, so
// a traced run can say which layer the time went to. The replay calls
// the same functions in the same order as the code it mirrors; work
// inside one public call (inside core.Pack, classpack.Diff or
// Archive.ExtractClass) is one span until the modules record their own
// stages.

// coreOptions mirrors classpack.Options' conversion for core.Pack.
func coreOptions(o classpack.Options) core.Options {
	return core.Options{Scheme: o.Scheme, StackState: o.StackState, Compress: o.Compress,
		Preload: o.Preload, Concurrency: o.Concurrency, ChunkClasses: o.ChunkClasses}
}

// packFiles mirrors classpack.Pack: parse and strip every file on the
// worker pool, each worker with its own strip scratch, then encode.
func packFiles(o opCtx, files [][]byte, opts classpack.Options) ([]byte, error) {
	cfs := make([]*classfile.ClassFile, len(files))
	scratch := make([]strip.Scratch, par.Workers(opts.Concurrency, len(files)))
	err := par.DoWorkers(opts.Concurrency, len(files), func(w, i int) error {
		s := o.begin("classfile.parse")
		cf, err := classfile.Parse(files[i])
		o.end(s)
		if err != nil {
			return fmt.Errorf("file %d: %w", i, err)
		}
		s = o.begin("strip.apply")
		err = strip.ApplyScratch(cf, strip.Options{}, &scratch[w])
		o.end(s)
		cfs[i] = cf
		return err
	})
	if err != nil {
		return nil, err
	}
	s := o.begin("core.encode")
	defer o.end(s)
	return core.Pack(cfs, coreOptions(opts))
}

// unpackJar mirrors classpack.UnpackToJarOpts on a version-2 archive:
// decode every class, serialize them on the worker pool, build the jar.
// When traced it first times the body's stream inflation on its own
// (streams.NewCheckedReaderLimit, the call core makes before decoding),
// because core.UnpackStreamOpts does not expose that step; core.decode
// then includes a second inflate.
func unpackJar(o opCtx, packed []byte, opts classpack.Options) ([]byte, error) {
	uo := core.UnpackOpts{Concurrency: opts.Concurrency, MaxDecodedBytes: opts.MaxDecodedBytes, MaxClassCount: opts.MaxClassCount}
	if o.t != nil && len(packed) > 6 {
		s := o.begin("streams.inflate")
		_, err := streams.NewCheckedReaderLimit(packed[6:], uo.Concurrency, uo.MaxDecodedBytes)
		o.end(s)
		if err != nil {
			return nil, err
		}
	}
	s := o.begin("core.decode")
	var cfs []*classfile.ClassFile
	err := core.UnpackStreamOpts(packed, uo, func(cf *classfile.ClassFile) error {
		cfs = append(cfs, cf)
		return nil
	})
	o.end(s)
	if err != nil {
		return nil, err
	}
	files := make([]archive.File, len(cfs))
	err = par.Do(uo.Concurrency, len(cfs), func(i int) error {
		s := o.begin("classfile.write")
		raw, err := classfile.Write(cfs[i])
		o.end(s)
		files[i] = archive.File{Name: cfs[i].ThisClassName() + ".class", Data: raw}
		return err
	})
	if err != nil {
		return nil, err
	}
	s = o.begin("archive.write_jar")
	defer o.end(s)
	return archive.WriteJar(files)
}

// packResult is a POST /pack answer.
type packResult struct {
	packed []byte
	digest string
	cache  string // "hit" or "miss"
}

// backend is what the serve workloads' ops run against: jpackd over
// HTTP, or the in-process replay of its handlers.
type backend interface {
	pack(ctx context.Context, o opCtx, jar []byte) (packResult, error)
	archive(ctx context.Context, o opCtx, digest string) ([]byte, error)
	class(ctx context.Context, o opCtx, digest, name string) ([]byte, error)
	classes(ctx context.Context, o opCtx, digest string, names []string) ([]byte, error)
	delta(ctx context.Context, o opCtx, from, to string) ([]byte, error)
}

// httpBackend is a real jpackd.
type httpBackend struct{ c *client.Client }

func (b httpBackend) pack(ctx context.Context, _ opCtx, jar []byte) (packResult, error) {
	r, err := b.c.Pack(ctx, jar)
	if err != nil {
		return packResult{}, err
	}
	return packResult{packed: r.Packed, digest: r.Digest, cache: r.Cache}, nil
}

func (b httpBackend) archive(ctx context.Context, _ opCtx, digest string) ([]byte, error) {
	return b.c.Archive(ctx, digest)
}

func (b httpBackend) class(ctx context.Context, _ opCtx, digest, name string) ([]byte, error) {
	return b.c.ArchiveClass(ctx, digest, name)
}

func (b httpBackend) classes(ctx context.Context, _ opCtx, digest string, names []string) ([]byte, error) {
	return b.c.ArchiveClasses(ctx, digest, names)
}

func (b httpBackend) delta(ctx context.Context, _ opCtx, from, to string) ([]byte, error) {
	return b.c.Delta(ctx, from, to)
}

// replay runs jpackd's handlers in-process: the same store, options and
// calls in the same order (internal/serve/server.go), without HTTP,
// admission control or singleflight. It also counts what the layers did.
type replay struct {
	store *castore.Store
	opts  classpack.Options
	fp    []byte // cache-key fingerprint of opts, as the server derives it

	mu         sync.Mutex
	puts       int
	reqs       int   // class and subset requests
	chunks     int   // chunks those requests decoded
	served     int64 // class bytes they returned
	decoded    int64 // wire bytes they decoded
	patchBytes int64
	newBytes   int64 // bytes of the archives the patches rebuild
}

// newReplay opens a store at dir with jpackd's options.
func newReplay(dir string, cacheMax int64) (*replay, error) {
	st, err := castore.Open(dir, cacheMax)
	if err != nil {
		return nil, err
	}
	opts := classpack.DefaultOptions()
	opts.ChunkClasses = chunkClasses
	fp := fmt.Sprintf("cjp1 scheme=%d stackstate=%t compress=%t preload=%t chunk=%d",
		opts.Scheme, opts.StackState, opts.Compress, opts.Preload, opts.ChunkClasses)
	return &replay{store: st, opts: opts, fp: []byte(fp)}, nil
}

var errNotFound = errors.New("no archive with that digest")

func (b *replay) get(o opCtx, digest string) ([]byte, bool, error) {
	s := o.begin("castore.get")
	defer o.end(s)
	return b.store.Get(digest)
}

func (b *replay) pack(_ context.Context, o opCtx, jar []byte) (packResult, error) {
	s := o.begin("castore.key")
	digest := castore.Key(b.fp, jar)
	o.end(s)
	// The handler reads the cache, and on a miss reads it again after
	// winning the singleflight.
	for i := 0; i < 2; i++ {
		packed, ok, err := b.get(o, digest)
		if err != nil {
			return packResult{}, err
		}
		if ok {
			return packResult{packed: packed, digest: digest, cache: "hit"}, nil
		}
	}
	s = o.begin("archive.read_jar")
	members, err := archive.ReadJar(jar)
	o.end(s)
	if err != nil {
		return packResult{}, err
	}
	var files [][]byte
	for _, m := range members {
		if strings.HasSuffix(m.Name, ".class") {
			files = append(files, m.Data)
		}
	}
	packed, err := packFiles(o, files, b.opts)
	if err != nil {
		return packResult{}, err
	}
	s = o.begin("castore.put")
	err = b.store.Put(digest, packed)
	o.end(s)
	if err != nil {
		return packResult{}, err
	}
	b.mu.Lock()
	b.puts++
	b.mu.Unlock()
	return packResult{packed: packed, digest: digest, cache: "miss"}, nil
}

func (b *replay) load(o opCtx, digest string) ([]byte, error) {
	if !castore.ValidKey(digest) {
		return nil, fmt.Errorf("bad digest %q", digest)
	}
	packed, ok, err := b.get(o, digest)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", errNotFound, digest)
	}
	return packed, nil
}

func (b *replay) archive(_ context.Context, o opCtx, digest string) ([]byte, error) {
	return b.load(o, digest)
}

func (b *replay) open(o opCtx, packed []byte) (*classpack.Archive, error) {
	s := o.begin("lazy.open")
	defer o.end(s)
	return classpack.OpenArchiveBytes(packed, &b.opts)
}

func (b *replay) class(_ context.Context, o opCtx, digest, name string) ([]byte, error) {
	packed, err := b.load(o, digest)
	if err != nil {
		return nil, err
	}
	a, err := b.open(o, packed)
	if err != nil {
		return nil, err
	}
	s := o.begin("lazy.extract")
	data, err := a.ExtractClass(name)
	o.end(s)
	if err != nil {
		return nil, err
	}
	b.countExtract(1, int64(len(data)), a.DecodedBytes())
	return data, nil
}

func (b *replay) classes(_ context.Context, o opCtx, digest string, names []string) ([]byte, error) {
	packed, err := b.load(o, digest)
	if err != nil {
		return nil, err
	}
	a, err := b.open(o, packed)
	if err != nil {
		return nil, err
	}
	s := o.begin("lazy.select")
	ords, err := a.SelectOrdinals(names...)
	o.end(s)
	if err != nil {
		return nil, err
	}
	s = o.begin("lazy.extract_ordinals")
	files, err := a.ExtractOrdinals(ords)
	o.end(s)
	if err != nil {
		return nil, err
	}
	s = o.begin("archive.write_jar")
	jar, err := classpack.JarFromFiles(files)
	o.end(s)
	if err != nil {
		return nil, err
	}
	var served int64
	for _, f := range files {
		served += int64(len(f.Data))
	}
	b.countExtract(chunksOf(a, ords), served, a.DecodedBytes())
	return jar, nil
}

// chunksOf counts the distinct chunks holding the given ordinals.
func chunksOf(a *classpack.Archive, ords []int) int {
	n := a.ChunkClasses()
	if n <= 0 {
		return 1
	}
	seen := make(map[int]bool)
	for _, g := range ords {
		seen[g/n] = true
	}
	return len(seen)
}

func (b *replay) countExtract(chunks int, served, decoded int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.reqs++
	b.chunks += chunks
	b.served += served
	b.decoded += decoded
}

func (b *replay) delta(_ context.Context, o opCtx, from, to string) ([]byte, error) {
	oldArc, err := b.load(o, from)
	if err != nil {
		return nil, err
	}
	newArc, err := b.load(o, to)
	if err != nil {
		return nil, err
	}
	s := o.begin("delta.diff")
	patch, err := classpack.Diff(oldArc, newArc, &b.opts)
	o.end(s)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	b.patchBytes += int64(len(patch))
	b.newBytes += int64(len(newArc))
	b.mu.Unlock()
	return patch, nil
}

// reset zeroes the counts, so that they cover only the ops that follow,
// and returns how many objects the store holds.
func (b *replay) reset() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.puts, b.reqs, b.chunks = 0, 0, 0
	b.served, b.decoded, b.patchBytes, b.newBytes = 0, 0, 0, 0
	return b.store.Len()
}

// counters reports the layer counts since reset, which returned
// lenBefore.
func (b *replay) counters(lenBefore int) map[string]float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	// Every put in the replay stores a new key, so the objects it added
	// and did not keep were evicted.
	evicted := b.puts - (b.store.Len() - lenBefore)
	return map[string]float64{
		"castore.evictions":       ratio(float64(evicted), float64(b.puts)),
		"lazy.chunks_per_req":     ratio(float64(b.chunks), float64(b.reqs)),
		"lazy.served_per_decoded": ratio(float64(b.served), float64(b.decoded)),
		"delta.patch_frac":        ratio(float64(b.patchBytes), float64(b.newBytes)),
	}
}
