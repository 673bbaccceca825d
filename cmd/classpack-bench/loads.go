package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"

	"classpack"
	"classpack/internal/archive"
	"classpack/internal/core"
	"classpack/internal/synth"
)

// clientRand is client c's op-sequence source: the same seed gives each
// client the same sequence in every run and every phase.
func clientRand(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
}

// unpacksTo reports whether packed decodes to exactly the stripped
// files, under their names and in order.
func unpacksTo(packed []byte, names []string, stripped [][]byte) bool {
	files, err := classpack.UnpackOpts(packed, nil)
	if err != nil || len(files) != len(stripped) {
		return false
	}
	for i, f := range files {
		if f.Name != names[i] || !bytes.Equal(f.Data, stripped[i]) {
			return false
		}
	}
	return true
}

// prefillOne packs one jar through b and checks that it packs to the
// same archive as every earlier pack of it.
func prefillOne[K comparable](ctx context.Context, b backend, log *archiveLog[K], key K, jar []byte) (packResult, error) {
	r, err := b.pack(ctx, opCtx{}, jar)
	if err != nil {
		return r, err
	}
	if !log.seen(key, r.packed) {
		return r, fmt.Errorf("a jar packed to different bytes than before")
	}
	return r, nil
}

// cachedProfiles are serve-cached's programs: mid-sized ones whose
// archives together fit the cache many times over.
var cachedProfiles = []string{"213_javac", "ImageEditor", "javafig", "jmark20",
	"202_jess", "javafig_dashO", "icebrowserbean", "222_mpegaudio"}

// cachedLoad is serve-cached: half POST /pack of a jar jpackd has
// already packed (a cache hit), half GET /archive/{digest}, the jar or
// digest drawn uniformly. No encode or decode runs in the window.
type cachedLoad struct {
	seed    int64
	corpora []*corpus
	jars    [][]byte
	log     archiveLog[int]
	ratio   float64
}

func newCachedLoad(e *env) (*cachedLoad, error) {
	l := &cachedLoad{seed: e.seed}
	for i, name := range cachedProfiles {
		c, err := loadCorpus(name, e.scale, e.seed+int64(i))
		if err != nil {
			return nil, err
		}
		j, err := jar(c.names, c.files)
		if err != nil {
			return nil, err
		}
		l.corpora = append(l.corpora, c)
		l.jars = append(l.jars, j)
	}
	return l, nil
}

func (l *cachedLoad) daemonArgs() []string { return nil }
func (l *cachedLoad) cacheMax() int64      { return 0 }

func (l *cachedLoad) prefill(ctx context.Context, b backend) (driver, error) {
	digests := make([]string, len(l.jars))
	archives := make([][]byte, len(l.jars))
	for i, j := range l.jars {
		r, err := prefillOne(ctx, b, &l.log, i, j)
		if err != nil {
			return nil, err
		}
		digests[i], archives[i] = r.digest, r.packed
	}
	return func(c int, t *tracer) func(context.Context) []opRecord {
		rng := clientRand(l.seed, c)
		return func(ctx context.Context) []opRecord {
			i := rng.Intn(len(l.jars))
			if rng.Intn(2) == 0 {
				return []opRecord{timeOp(t, 0, "hit_pack", func(o opCtx) (func() bool, error) {
					r, err := b.pack(ctx, o, l.jars[i])
					return func() bool { return r.cache == "hit" && bytes.Equal(r.packed, archives[i]) }, err
				})}
			}
			return []opRecord{timeOp(t, 1, "archive_get", func(o opCtx) (func() bool, error) {
				p, err := b.archive(ctx, o, digests[i])
				return func() bool { return bytes.Equal(p, archives[i]) }, err
			})}
		}
	}, nil
}

func (l *cachedLoad) verify() (int, error) {
	bad := 0
	var packed, sjar int
	for i, c := range l.corpora {
		a := l.log.byIn[i]
		if !unpacksTo(a, c.names, c.stripped) {
			bad++
		}
		j, err := jar(c.names, c.stripped)
		if err != nil {
			return bad, err
		}
		packed += len(a)
		sjar += len(j)
	}
	l.ratio = ratio(float64(packed), float64(sjar))
	return bad, nil
}

func (l *cachedLoad) packedRatio() float64 { return l.ratio }

// subsetSize is how many class names one ?classes= request asks for.
const subsetSize = 4

// subsetChunks is how many chunks the names of one ?classes= request
// span: 3 of tools' 4 is the likeliest count for subsetSize uniform
// names. A request's latency grows with the chunks it decodes, so a
// free count would make the op's median depend on how each seed's
// draws fall across chunks.
const subsetChunks = 3

// classesLoad is serve-classes: on the tools archive, three quarters
// GET /archive/{d}/class/{name} and one quarter ?classes= with
// subsetSize names, names drawn uniformly from the names the archive
// holds once (jpackd answers a duplicated name with 409 by design),
// a subset's names drawn again until they span spanChunks chunks.
type classesLoad struct {
	seed       int64
	c          *corpus
	jar        []byte
	unique     []string       // binary names that occur once
	ord        map[string]int // input position of each unique name
	spanChunks int            // subsetChunks, or fewer on a small corpus
	log        archiveLog[int]
	ratio      float64
}

func newClassesLoad(e *env) (*classesLoad, error) {
	c, err := loadCorpus("tools", e.scale, e.seed)
	if err != nil {
		return nil, err
	}
	j, err := jar(c.names, c.files)
	if err != nil {
		return nil, err
	}
	l := &classesLoad{seed: e.seed, c: c, jar: j, ord: make(map[string]int)}
	count := make(map[string]int)
	for _, n := range c.names {
		count[n]++
	}
	for i, n := range c.names {
		// Names with pattern metacharacters or commas would not select
		// themselves exactly in a ?classes= list.
		if count[n] == 1 && !strings.ContainsAny(n, "*?[\\,") {
			b := strings.TrimSuffix(n, ".class")
			l.unique = append(l.unique, b)
			l.ord[b] = i
		}
	}
	if len(l.unique) < subsetSize {
		return nil, fmt.Errorf("tools has only %d uniquely named classes", len(l.unique))
	}
	l.spanChunks = min(subsetChunks, l.span(l.unique))
	return l, nil
}

// span counts the distinct archive chunks holding the named classes.
func (l *classesLoad) span(names []string) int {
	seen := make(map[int]bool)
	for _, n := range names {
		seen[l.ord[n]/chunkClasses] = true
	}
	return len(seen)
}

// drawSubset draws subsetSize distinct unique names, again and again
// until they span spanChunks chunks.
func (l *classesLoad) drawSubset(rng *rand.Rand) []string {
	for {
		names := make([]string, 0, subsetSize)
		for _, k := range rng.Perm(len(l.unique))[:subsetSize] {
			names = append(names, l.unique[k])
		}
		if l.span(names) == l.spanChunks {
			return names
		}
	}
}

func (l *classesLoad) daemonArgs() []string { return nil }
func (l *classesLoad) cacheMax() int64      { return 0 }

func (l *classesLoad) prefill(ctx context.Context, b backend) (driver, error) {
	r, err := prefillOne(ctx, b, &l.log, 0, l.jar)
	if err != nil {
		return nil, err
	}
	digest := r.digest
	return func(c int, t *tracer) func(context.Context) []opRecord {
		rng := clientRand(l.seed, c)
		return func(ctx context.Context) []opRecord {
			if rng.Intn(4) != 0 {
				name := l.unique[rng.Intn(len(l.unique))]
				return []opRecord{timeOp(t, 0, "class_get", func(o opCtx) (func() bool, error) {
					data, err := b.class(ctx, o, digest, name)
					return func() bool { return bytes.Equal(data, l.c.stripped[l.ord[name]]) }, err
				})}
			}
			names := l.drawSubset(rng)
			return []opRecord{timeOp(t, 1, "subset_get", func(o opCtx) (func() bool, error) {
				jar, err := b.classes(ctx, o, digest, names)
				return func() bool { return l.subsetMatches(jar, names) }, err
			})}
		}
	}, nil
}

// subsetMatches reports whether jar holds exactly the named classes'
// stripped bytes, in archive order.
func (l *classesLoad) subsetMatches(jar []byte, names []string) bool {
	members, err := archive.ReadJar(jar)
	if err != nil || len(members) != len(names) {
		return false
	}
	want := make(map[int]bool, len(names))
	for _, n := range names {
		want[l.ord[n]] = true
	}
	k := 0
	for i := range l.c.names {
		if !want[i] {
			continue
		}
		if members[k].Name != l.c.names[i] || !bytes.Equal(members[k].Data, l.c.stripped[i]) {
			return false
		}
		k++
	}
	return true
}

func (l *classesLoad) verify() (int, error) {
	a := l.log.byIn[0]
	bad := 0
	if !unpacksTo(a, l.c.names, l.c.stripped) {
		bad++
	}
	j, err := jar(l.c.names, l.c.stripped)
	l.ratio = ratio(float64(len(a)), float64(len(j)))
	return bad, err
}

func (l *classesLoad) packedRatio() float64 { return l.ratio }

// chainLen is how many releases each serve-write client cycles through.
// It is well above the number of 202_jess archives the cache holds, so a
// release packs as a miss again when its turn comes round.
const chainLen = 32

// writeCacheMax is serve-write's cache cap: about ten 202_jess archives,
// far fewer than the releases the clients cycle through, so eviction
// starts about a second in and runs through the whole window, while
// the two archives an update needs are always among the newest.
const writeCacheMax = 640 << 10

// release is one version of the serve-write program.
type release struct {
	files, stripped [][]byte
	jar             []byte
}

// writeLoad is serve-write: each client walks its own chain of
// 202_jess releases, each derived from the one before by
// synth.MutateClasses. A step packs the new release (a miss), then
// updates to it from the previous one: GET /delta/{prev}/{new} and
// ApplyDelta on the client, whose result must equal the packed archive.
type writeLoad struct {
	seed   int64
	names  []string
	base   *release
	chains [][]*release
	opts   classpack.Options
	log    archiveLog[*release]
	ratio  float64
}

func newWriteLoad(e *env) (*writeLoad, error) {
	c, err := loadCorpus("202_jess", e.scale, e.seed)
	if err != nil {
		return nil, err
	}
	base := &release{files: c.files, stripped: c.stripped}
	if base.jar, err = jar(c.names, c.files); err != nil {
		return nil, err
	}
	l := &writeLoad{seed: e.seed, names: c.names, base: base, opts: classpack.DefaultOptions()}
	for cl := 0; cl < e.clients; cl++ {
		prev := base
		var chain []*release
		for k := 0; k < chainLen; k++ {
			seed := e.seed<<16 + int64(cl)<<8 + int64(k)
			files, _, err := synth.MutateClasses(prev.files, mutateRate, seed)
			if err != nil {
				return nil, err
			}
			r := &release{files: files}
			if r.stripped, err = stripAll(files, prev.files, prev.stripped); err != nil {
				return nil, err
			}
			if r.jar, err = jar(c.names, files); err != nil {
				return nil, err
			}
			chain = append(chain, r)
			prev = r
		}
		l.chains = append(l.chains, chain)
	}
	return l, nil
}

func (l *writeLoad) daemonArgs() []string { return []string{"-cache-max", fmt.Sprint(writeCacheMax)} }
func (l *writeLoad) cacheMax() int64      { return writeCacheMax }

func (l *writeLoad) prefill(ctx context.Context, b backend) (driver, error) {
	first, err := prefillOne(ctx, b, &l.log, l.base, l.base.jar)
	if err != nil {
		return nil, err
	}
	return func(c int, t *tracer) func(context.Context) []opRecord {
		prev := first
		k := 0
		return func(ctx context.Context) []opRecord {
			rel := l.chains[c][k%chainLen]
			k++
			var cur packResult
			pack := timeOp(t, 0, "miss_pack", func(o opCtx) (func() bool, error) {
				var err error
				cur, err = b.pack(ctx, o, rel.jar)
				return func() bool { return l.log.seen(rel, cur.packed) }, err
			})
			if pack.Failed {
				return []opRecord{pack}
			}
			update := timeOp(t, 1, "update", func(o opCtx) (func() bool, error) {
				patch, err := b.delta(ctx, o, prev.digest, cur.digest)
				if err != nil {
					return nil, err
				}
				s := o.begin("delta.apply")
				rebuilt, err := classpack.ApplyDelta(prev.packed, patch, &l.opts)
				o.end(s)
				return func() bool { return bytes.Equal(rebuilt, cur.packed) }, err
			})
			prev = cur
			return []opRecord{pack, update}
		}
	}, nil
}

// verify decodes every release archive packed in the run.
func (l *writeLoad) verify() (int, error) {
	bad := 0
	var packed, sjar int
	for _, rel := range l.log.keys {
		a := l.log.byIn[rel]
		if !unpacksTo(a, l.names, rel.stripped) {
			bad++
		}
		j, err := jar(l.names, rel.stripped)
		if err != nil {
			return bad, err
		}
		packed += len(a)
		sjar += len(j)
	}
	l.ratio = ratio(float64(packed), float64(sjar))
	return bad, nil
}

func (l *writeLoad) packedRatio() float64 { return l.ratio }

// encodeAllocs counts core.Pack's heap allocations on the base release
// with jpackd's options.
func (l *writeLoad) encodeAllocs() (float64, error) {
	opts := l.opts
	opts.ChunkClasses = core.DefaultChunkClasses
	return encodeAllocs(l.base.files, opts)
}
