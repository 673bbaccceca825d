package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"syscall"
	"time"

	"classpack"
	"classpack/internal/classfile"
	"classpack/internal/core"
	"classpack/internal/strip"
)

// The codec workload packs the tools corpus with classpack.Pack (v2,
// all cores) and unpacks it with UnpackToJarOpts, one call after the
// other from one caller. The work runs in a child process, a fresh
// re-execution of this command, so that its memory is the codec's alone
// and not the corpus generator's.

// codecJob is what the parent sends the child on stdin.
type codecJob struct {
	Files     [][]byte // as-distributed class files
	Expect    []byte   // the jar of their stripped forms: UnpackToJarOpts must return it
	Window    time.Duration
	Warm      time.Duration
	Trace     bool
	SetupOnly bool // time the first Pack and Unpack, then exit
}

// codecResult is what the child writes to stdout.
type codecResult struct {
	SetupS  float64
	Packed  int
	Real    []opRecord // the public library calls
	Elapsed time.Duration
	Kernel  []time.Duration // calibration kernel times around the window
	RSSMB   float64         // mean resident set during the window
	Replay  []opRecord      // the same calls replayed through the layers, untraced
	Traced  []opRecord      // and traced
	Spans   []span
	Allocs  float64 // heap allocations per core.Pack
}

func runCodec(ctx context.Context, w *workload, e *env) (*outcome, error) {
	c, err := loadCorpus("tools", e.scale, e.seed)
	if err != nil {
		return nil, err
	}
	expect, err := jar(c.names, c.stripped)
	if err != nil {
		return nil, err
	}
	job := codecJob{Files: c.files, Expect: expect, Window: e.window, Warm: e.warm, Trace: e.trace}
	var setup []float64
	var res *codecResult
	runs := setupCount(e)
	for i := 0; i < runs; i++ {
		job.SetupOnly = i < runs-1
		if res, err = runCodecChild(ctx, &job); err != nil {
			return nil, err
		}
		setup = append(setup, res.SetupS)
	}
	o := &outcome{}
	o.add(res.Real)
	if !e.trace {
		o.metrics = endToEndMetrics(w, os.Stderr, &measured{setup: setup, recs: res.Real, elapsed: res.Elapsed,
			rssMB: res.RSSMB, packedRatio: float64(res.Packed) / float64(len(expect)), kernel: res.Kernel})
		return o, nil
	}
	o.add(res.Replay)
	o.add(res.Traced)
	p := &phases{real: res.Real, replay: res.Replay, traced: res.Traced, prof: profile(res.Spans),
		counters: map[string]float64{"core.encode.allocs": res.Allocs}}
	o.metrics = layerMetrics(w, os.Stderr, p)
	return o, writeSpans(e.spans, res.Spans)
}

// runCodecChild re-executes this command as the codec child and returns
// its result.
func runCodecChild(ctx context.Context, job *codecJob) (*codecResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var in, out bytes.Buffer
	if err := gob.NewEncoder(&in).Encode(job); err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self)
	cmd.Env = append(os.Environ(), childEnv+"=codec")
	cmd.Stdin, cmd.Stdout, cmd.Stderr = &in, &out, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("codec child: %w", err)
	}
	var res codecResult
	if err := gob.NewDecoder(&out).Decode(&res); err != nil {
		return nil, fmt.Errorf("codec child result: %w", err)
	}
	return &res, nil
}

// codecChild is the child's main: it reads a codecJob from stdin and
// writes a codecResult to stdout.
func codecChild(stdin io.Reader, stdout io.Writer) error {
	var job codecJob
	if err := gob.NewDecoder(stdin).Decode(&job); err != nil {
		return err
	}
	opts := classpack.DefaultOptions()
	res := codecResult{}

	start := time.Now()
	ref, err := classpack.Pack(job.Files, &opts)
	if err != nil {
		return err
	}
	got, err := classpack.UnpackToJarOpts(ref, &opts)
	if err != nil {
		return err
	}
	res.SetupS = time.Since(start).Seconds()
	if !bytes.Equal(got, job.Expect) {
		return fmt.Errorf("the first unpack differs from the stripped input")
	}
	res.Packed = len(ref)
	if job.SetupOnly {
		return gob.NewEncoder(stdout).Encode(&res)
	}

	ctx := context.Background()
	library := codecOps{
		pack:   func(opCtx) ([]byte, error) { return classpack.Pack(job.Files, &opts) },
		unpack: func(_ opCtx, p []byte) ([]byte, error) { return classpack.UnpackToJarOpts(p, &opts) },
	}
	layered := codecOps{
		pack:   func(o opCtx) ([]byte, error) { return packFiles(o, job.Files, opts) },
		unpack: func(o opCtx, p []byte) ([]byte, error) { return unpackJar(o, p, opts) },
	}
	measure := func(ops codecOps, t *tracer, d time.Duration) ([]opRecord, time.Duration) {
		step := ops.stepper(t, ref, job.Expect)
		closedLoop(ctx, 1, job.Warm, func(context.Context, int) []opRecord { return step() })
		t.reset() // the profile covers the window only
		return closedLoop(ctx, 1, d, func(context.Context, int) []opRecord { return step() })
	}
	if !job.Trace {
		rss, pr := startRSSSampler(os.Getpid()), startProbe()
		res.Real, res.Elapsed = measure(library, nil, job.Window)
		res.RSSMB, res.Kernel = rss.stop(), pr.stop()
		return gob.NewEncoder(stdout).Encode(&res)
	}
	third := job.Window / 3
	res.Real, _ = measure(library, nil, third)
	res.Replay, _ = measure(layered, nil, third)
	t := newTracer()
	res.Traced, _ = measure(layered, t, third)
	res.Spans = t.snapshot()
	if res.Allocs, err = encodeAllocs(job.Files, opts); err != nil {
		return err
	}
	return gob.NewEncoder(stdout).Encode(&res)
}

// codecOps is one way of packing and unpacking.
type codecOps struct {
	pack   func(o opCtx) ([]byte, error)
	unpack func(o opCtx, packed []byte) ([]byte, error)
}

// stepper returns a step that alternates a pack (op1) and an unpack of
// the latest archive (op2). Packing is deterministic, so every archive
// must equal ref, and every jar must equal expect.
func (c codecOps) stepper(t *tracer, ref, expect []byte) func() []opRecord {
	packed := ref
	next := 0
	return func() []opRecord {
		var rec opRecord
		if next == 0 {
			rec = timeOp(t, 0, "pack", func(o opCtx) (func() bool, error) {
				p, err := c.pack(o)
				if err == nil {
					packed = p
				}
				return func() bool { return bytes.Equal(p, ref) }, err
			})
		} else {
			rec = timeOp(t, 1, "unpack", func(o opCtx) (func() bool, error) {
				jar, err := c.unpack(o, packed)
				return func() bool { return bytes.Equal(jar, expect) }, err
			})
		}
		next = 1 - next
		return []opRecord{rec}
	}
}

// encodeAllocs is the median heap-allocation count of three core.Pack
// calls on freshly parsed and stripped files, made one at a time so
// that nothing else allocates meanwhile.
func encodeAllocs(files [][]byte, opts classpack.Options) (float64, error) {
	var counts []float64
	for i := 0; i < 3; i++ {
		cfs := make([]*classfile.ClassFile, len(files))
		for j, f := range files {
			cf, err := classfile.Parse(f)
			if err != nil {
				return 0, err
			}
			if err := strip.Apply(cf, strip.Options{}); err != nil {
				return 0, err
			}
			cfs[j] = cf
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := core.Pack(cfs, coreOptions(opts)); err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&after)
		counts = append(counts, float64(after.Mallocs-before.Mallocs))
	}
	sort.Float64s(counts)
	return counts[1], nil
}
