// Command classpack-bench is the repository's benchmark: it runs one
// seeded workload against the codec or a real jpackd process and prints
// one JSON line of metrics. With -trace 0 it prints the end-to-end
// metrics a user sees; with -trace 1 it prints per-layer metrics, timed
// around calls into each module's public functions from this
// command's own files. BENCHMARK.json at the repository root lists the
// workloads, the metrics and their regression bounds, and README.md
// explains them.
//
// Usage, from the repository root (run.sh builds jpackd and this
// command first):
//
//	bash cmd/classpack-bench/run.sh --workload codec --seed 1 --seconds 20 --trace 0
//	classpack-bench -workload serve-cached -seed 1 -seconds 20 -trace 1 -jpackd bin/jpackd
//	classpack-bench -compare old.jsonl new.jsonl
//
// The last line of standard output is
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
// The command exits 0 when every output was right, 3 when some output
// was wrong (after printing the result), and 1 or 2 without a result
// when the run could not be carried out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// childEnv marks a process started by the codec workload to do the
// codec work in isolation (see codec.go).
const childEnv = "CLASSPACK_BENCH_CHILD"

// setupRuns is how many times each run sets up, so that setup_s is a
// median rather than one cold start.
const setupRuns = 5

// setupCount is how many times a run sets up: setupRuns when it reports
// setup_s, once when it is traced or its window is under a second (a
// smoke run).
func setupCount(e *env) int {
	if e.trace || e.window < time.Second {
		return 1
	}
	return setupRuns
}

// mutateRate is the share of classes each seed mutates in a corpus, so
// that every seed packs different bytes.
const mutateRate = 0.05

func main() {
	if os.Getenv(childEnv) != "" {
		if err := codecChild(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "classpack-bench child:", err)
			os.Exit(1)
		}
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, the same for every
// workload: op1 and op2 are the workload's two op kinds (see workloads).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op1_p50_ms", "ms"},
	{"op1_tail_ms", "ms"},
	{"op2_p50_ms", "ms"},
	{"op2_tail_ms", "ms"},
	{"rss_mb", "MB"},
	{"packed_ratio", "ratio"},
}

// perLayer are the metrics of a traced run. Times are self time per op
// in the layer, averaged over the ops that called it; a layer the
// workload does not call reads 0.
var perLayer = []metricDef{
	{"classfile.parse.ms", "ms"},
	{"strip.apply.ms", "ms"},
	{"core.encode.ms", "ms"},
	{"core.encode.allocs", "count"},
	{"archive.read_jar.ms", "ms"},
	{"streams.inflate.ms", "ms"},
	{"core.decode.ms", "ms"},
	{"classfile.write.ms", "ms"},
	{"archive.write_jar.ms", "ms"},
	{"lazy.open.ms", "ms"},
	{"lazy.extract.ms", "ms"},
	{"lazy.extract_ordinals.ms", "ms"},
	{"lazy.chunks_per_req", "count"},
	{"lazy.served_per_decoded", "ratio"},
	{"castore.key.ms", "ms"},
	{"castore.get.ms", "ms"},
	{"castore.put.ms", "ms"},
	{"castore.evictions", "count/put"},
	{"delta.diff.ms", "ms"},
	{"delta.apply.ms", "ms"},
	{"delta.patch_frac", "ratio"},
	{"serve.overhead.op1.ms", "ms"},
	{"serve.overhead.op2.ms", "ms"},
	{"serve.queue_depth.mean", "count"},
	{"serve.shed", "count"},
	{"serve.errors", "count"},
	{"serve.cache_hit_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.coverage", "ratio"},
}

// workload is one named set of inputs and ops.
type workload struct {
	name string
	// ops names op1 and op2, the two op kinds whose latencies the
	// end-to-end metrics report.
	ops [2]string
	// tailQ is the percentile op1_tail_ms and op2_tail_ms report: the
	// highest with at least minBeyond samples above it at a 20 s window
	// on a 2-core machine (highestSupported of the counts seen there).
	// It is fixed per workload so that a run with a few more or fewer
	// samples does not switch percentiles.
	tailQ [2]float64
	run   func(ctx context.Context, w *workload, e *env) (*outcome, error)
}

var workloads = []*workload{
	{name: "codec", ops: [2]string{"pack", "unpack"}, tailQ: [2]float64{0.5, 0.5}, run: runCodec},
	{name: "serve-cached", ops: [2]string{"hit_pack", "archive_get"}, tailQ: [2]float64{0.99, 0.99}, run: runServe},
	{name: "serve-classes", ops: [2]string{"class_get", "subset_get"}, tailQ: [2]float64{0.9, 0.75}, run: runServe},
	{name: "serve-write", ops: [2]string{"miss_pack", "update"}, tailQ: [2]float64{0.75, 0.75}, run: runServe},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// env is one run's settings.
type env struct {
	seed    int64
	window  time.Duration
	warm    time.Duration
	trace   bool
	scale   float64
	jpackd  string
	dir     string // this run's scratch directory
	spans   string // where a traced run writes its spans
	clients int
}

// outcome is what a workload run measured.
type outcome struct {
	tally
	metrics map[string]float64
}

// metricValue and report are the JSON result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as -out appends it and -compare reads it.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	report
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("classpack-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: codec, serve-cached, serve-classes or serve-write")
		seed    = fs.Int64("seed", 1, "seed the workload's inputs and op sequence derive from")
		seconds = fs.Float64("seconds", 20, "length of the measured window in seconds")
		traceN  = fs.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
		jpackd  = fs.String("jpackd", "", "jpackd binary built from the commit under test (serve workloads)")
		workdir = fs.String("workdir", ".bench_build/run", "directory for caches and scratch files")
		scale   = fs.Float64("scale", 1.0, "corpus scale")
		out     = fs.String("out", "", "also append the result, with its workload and seed, to this JSONL file")
		compare = fs.Bool("compare", false, "compare two JSONL files of results: -compare OLD NEW")
		bench   = fs.String("bench", "BENCHMARK.json", "benchmark description whose bounds -compare applies")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: classpack-bench -compare OLD.jsonl NEW.jsonl")
			return 2
		}
		return runCompare(*bench, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	w := workloadByName(*name)
	if w == nil || *seconds <= 0 || (*traceN != 0 && *traceN != 1) {
		fmt.Fprintln(stderr, "usage: classpack-bench -workload NAME -seed N -seconds S -trace 0|1 [-jpackd BIN]")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "classpack-bench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, w.name+"-*")
	if err != nil {
		fmt.Fprintln(stderr, "classpack-bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	window := time.Duration(*seconds * float64(time.Second))
	e := &env{
		seed:    *seed,
		window:  window,
		warm:    window / 20,
		trace:   *traceN == 1,
		scale:   *scale,
		jpackd:  *jpackd,
		dir:     dir,
		spans:   filepath.Join(*workdir, "traces", fmt.Sprintf("%s-seed%d.json", w.name, *seed)),
		clients: runtime.NumCPU(),
	}
	o, err := w.run(ctx, w, e)
	if err != nil {
		fmt.Fprintf(stderr, "classpack-bench: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if e.trace {
		defs = perLayer
	}
	rep := report{
		Correct:   o.mismatches == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			fmt.Fprintf(stderr, "classpack-bench: %s did not produce metric %s\n", w.name, d.name)
			return 1
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "classpack-bench:", err)
		return 1
	}
	if *out != "" {
		if err := appendRecord(*out, record{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *traceN, report: rep}); err != nil {
			fmt.Fprintln(stderr, "classpack-bench:", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 3
	}
	return 0
}

func appendRecord(path string, r record) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// measured is what an untraced run measured.
type measured struct {
	setup       []float64 // seconds, one per set-up
	recs        []opRecord
	elapsed     time.Duration
	rssMB       float64
	packedRatio float64
	kernel      []time.Duration // calibration kernel times around the window
}

// endToEndMetrics turns a measured window into the end-to-end metrics,
// with every time scaled to the reference speed (see calib.go).
func endToEndMetrics(w *workload, stderr io.Writer, r *measured) map[string]float64 {
	f := speedFactor(r.kernel)
	m := map[string]float64{
		"setup_s":      median(r.setup) * f,
		"ops_per_s":    float64(len(r.recs)) / r.elapsed.Seconds() / f,
		"rss_mb":       r.rssMB,
		"packed_ratio": r.packedRatio,
	}
	fmt.Fprintf(stderr, "classpack-bench: %s speed factor %.4f (kernel median %.2fms); raw setup=%.4fs ops/s=%.3f\n",
		w.name, f, float64(calibRef)/f/1e6, median(r.setup), float64(len(r.recs))/r.elapsed.Seconds())
	for k := 0; k < 2; k++ {
		l := summarize(durations(r.recs, k), w.tailQ[k])
		prefix := fmt.Sprintf("op%d", k+1)
		m[prefix+"_p50_ms"] = l.p50 * f
		m[prefix+"_tail_ms"] = l.tail * f
		fmt.Fprintf(stderr, "classpack-bench: %s %s=%s n=%d raw p50=%.3fms p%g=%.3fms\n",
			w.name, prefix, w.ops[k], l.n, l.p50, l.q*100, l.tail)
		if hs := highestSupported(l.n); hs < l.q {
			fmt.Fprintf(stderr, "classpack-bench: warning: %s has %d samples, fewer than %d beyond p%g; they support p%g\n",
				w.ops[k], l.n, minBeyond, l.q*100, hs*100)
		}
	}
	return m
}

// phases is what a traced run measures, in three parts of one window:
// the real path untraced (over HTTP for serve workloads, the public
// library calls for codec), the same op sequence replayed in-process
// through the layers untraced, and that replay traced.
type phases struct {
	real, replay, traced []opRecord
	prof                 layerProfile
	counters             map[string]float64 // counts and ratios gathered at the layers
}

// layerMetrics turns a traced run into the per-layer metrics.
func layerMetrics(w *workload, stderr io.Writer, p *phases) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		if d.unit == "ms" {
			m[d.name] = p.prof.busyMs[d.name[:len(d.name)-len(".ms")]]
		}
	}
	for k, v := range p.counters {
		m[k] = v
	}
	p50 := func(recs []opRecord, kind int) float64 { return summarize(durations(recs, kind), 0.5).p50 }
	for k := 0; k < 2; k++ {
		m[fmt.Sprintf("serve.overhead.op%d.ms", k+1)] = p50(p.real, k) - p50(p.replay, k)
		fmt.Fprintf(stderr, "classpack-bench: %s %s p50 real=%.3fms replay=%.3fms traced=%.3fms (n=%d/%d/%d)\n",
			w.name, w.ops[k], p50(p.real, k), p50(p.replay, k), p50(p.traced, k),
			len(durations(p.real, k)), len(durations(p.replay, k)), len(durations(p.traced, k)))
	}
	m["trace.overhead_frac"] = ratio(p50(p.traced, 0)-p50(p.replay, 0), p50(p.replay, 0))
	m["trace.coverage"] = p.prof.coverage
	fmt.Fprintf(stderr, "classpack-bench: %s traced %d ops; layer spans cover %.1f%% of their time, %.1f%% in the op covered least\n",
		w.name, p.prof.ops, 100*p.prof.coverage, 100*p.prof.coverageMin)
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0
		}
	}
	return m
}
