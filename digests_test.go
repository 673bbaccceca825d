//go:build digests

package classpack

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"classpack/internal/bench"
)

// TestDigestSet prints the byte-identity digest set: one line per corpus,
// configuration and worker count, holding the SHA-256 of Pack's archive,
// of UnpackToJarOpts' jar of it, and of PackStats' breakdown. A change
// that claims unchanged bytes runs it (make digests) at its parent and
// at itself, and the two outputs must not differ. The digests build tag
// keeps it out of go test ./...: it takes minutes.
func TestDigestSet(t *testing.T) {
	corpora := []struct {
		name  string
		scale float64
	}{
		{"tools", 1}, {"202_jess", 1}, {"Hanoi_jax", 1}, {"213_javac", 1}, {"209_db", 1},
		{"rt", 0.3}, {"swingall", 0.3},
	}
	type config struct {
		name string
		opts Options
	}
	var configs []config
	add := func(name string, edit func(o *Options)) {
		o := DefaultOptions()
		edit(&o)
		configs = append(configs, config{name, o})
	}
	add("v2", func(*Options) {})
	for _, chunk := range []int{1, 2, 64} {
		add(fmt.Sprintf("v3/chunk=%d", chunk), func(o *Options) { o.ChunkClasses = chunk })
	}
	for _, s := range []Scheme{SchemeSimple, SchemeBasic, SchemeMTFBasic, SchemeMTFTransients, SchemeMTFContext} {
		add(fmt.Sprintf("scheme=%v", s), func(o *Options) { o.Scheme = s })
	}
	add("stackstate=off", func(o *Options) { o.StackState = false })
	add("compress=off", func(o *Options) { o.Compress = false })
	add("preload=on", func(o *Options) { o.Preload = true })

	for _, c := range corpora {
		corpus, err := bench.Load(c.name, c.scale)
		if err != nil {
			t.Fatal(err)
		}
		files := make([][]byte, len(corpus.Unstripped))
		for i, f := range corpus.Unstripped {
			files[i] = f.Data
		}
		for _, cfg := range configs {
			for _, j := range []int{1, 2} {
				key := fmt.Sprintf("%s@%g/%s/j=%d", c.name, c.scale, cfg.name, j)
				opts := cfg.opts
				opts.Concurrency = j
				packed, err := Pack(files, &opts)
				if err != nil {
					t.Fatalf("%s: Pack: %v", key, err)
				}
				jar, err := UnpackToJarOpts(packed, &opts)
				if err != nil {
					t.Fatalf("%s: UnpackToJarOpts: %v", key, err)
				}
				stats, err := PackStats(files, &opts)
				if err != nil {
					t.Fatalf("%s: PackStats: %v", key, err)
				}
				fmt.Printf("digest %s %x %x %x\n", key, sha256.Sum256(packed), sha256.Sum256(jar),
					sha256.Sum256(fmt.Appendf(nil, "%+v", stats)))
			}
		}
	}
}
