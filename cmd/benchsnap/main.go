// Command benchsnap records, validates, and compares benchmark
// snapshots for the codec hot path.
//
// Recording mode (the default) runs the throughput and Table benchmarks
// through `go test -bench` with -count=N so every benchmark yields N
// samples inside one process (corpora are cached per process, so the
// samples time the codec, not corpus synthesis). It then writes the
// per-benchmark medians to a schema-stable JSON snapshot named
// BENCH_<utc-date>_<git-sha>[_<tag>].json. Committed snapshots form the
// recorded benchmark trajectory that perf PRs are gated on.
//
//	benchsnap                       # record BENCH_<date>_<sha>.json
//	benchsnap -tag after -n 7       # record BENCH_<date>_<sha>_after.json
//	benchsnap -check FILE           # validate a snapshot's schema
//	benchsnap -compare OLD NEW      # delta table; exit 1 on regression
//	benchsnap -ratio                # record BENCH_<date>_<sha>_ratio.json
//	benchsnap -delta                # record BENCH_<date>_<sha>_delta.json
//
// Compare mode prints a per-benchmark delta table and exits non-zero
// when any benchmark's throughput regresses by more than 10% (MB/s when
// reported, otherwise ns/op).
//
// Ratio mode records a compression-ratio snapshot instead of timings:
// it packs the bench corpora as monolithic version-2 archives and as
// version-3 chunked archives at several chunk sizes, and writes the
// sizes plus the per-chunk-size overhead to a
// "classpack-ratiosnap/v1" JSON file. Committed ratio snapshots pin
// what random access costs in compression.
//
// Delta mode records a patch-size snapshot for the cross-archive delta
// path: each bench corpus is packed, mutated into a synthetic "next
// release" (each class independently changed with probability
// -delta-rate), re-packed, and diffed with classpack.Diff. The patch is
// verified by applying it (ApplyDelta must reproduce the new archive
// byte-for-byte) before its size lands in a "classpack-deltasnap/v1"
// JSON file. Committed delta snapshots pin the bandwidth saved by
// shipping patches instead of full archives. -check validates all three
// schemas.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"classpack"
	"classpack/internal/bench"
	"classpack/internal/synth"
)

// Schema is the identifier every snapshot carries; bump only with a
// documented migration in DESIGN.md.
const Schema = "classpack-benchsnap/v1"

// defaultBench selects the benchmarks a snapshot records: the
// end-to-end throughputs (the gate metrics: pack, unpack, and unpack
// to a jar) plus the Table experiments, so ratio-affecting regressions
// show up in the same file.
const defaultBench = "^Benchmark(PackThroughput|UnpackThroughput|UnpackToJarThroughput|Table[1-8])$"

// regressionLimit is the relative throughput loss -compare tolerates.
const regressionLimit = 0.10

// Snapshot is the stable on-disk schema. Field names and meanings are
// frozen; additions must be backwards-compatible (new optional fields).
type Snapshot struct {
	Schema    string      `json:"schema"`
	UTCDate   string      `json:"utc_date"` // YYYY-MM-DD, UTC
	GitSHA    string      `json:"git_sha"`  // short commit hash
	Tag       string      `json:"tag,omitempty"`
	GoVersion string      `json:"go_version"`
	GOOS      string      `json:"goos"`
	GOARCH    string      `json:"goarch"`
	Samples   int         `json:"samples"` // -count passed to go test
	Bench     string      `json:"bench"`   // -bench regexp used
	Results   []Benchmark `json:"benchmarks"`
}

// Benchmark holds the median of each metric across a benchmark's
// samples. Zero-valued optional metrics are omitted: Table benchmarks
// report only ns/op, throughput benchmarks report all four.
type Benchmark struct {
	Name        string             `json:"name"` // without "Benchmark" prefix
	Samples     int                `json:"samples"`
	NsPerOp     float64            `json:"ns_per_op"`
	MBPerS      float64            `json:"mb_per_s,omitempty"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"` // custom b.ReportMetric units
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("benchsnap", flag.ContinueOnError)
	var (
		n         = fs.Int("n", 5, "samples per benchmark (go test -count)")
		bench     = fs.String("bench", defaultBench, "benchmark selection regexp (go test -bench)")
		benchtime = fs.String("benchtime", "", "per-sample budget (go test -benchtime), empty = go default")
		tag       = fs.String("tag", "", "optional snapshot label appended to the file name")
		out       = fs.String("out", "", "output path (default BENCH_<utc-date>_<git-sha>[_<tag>].json)")
		dir       = fs.String("dir", ".", "package directory containing the benchmarks")
		check     = fs.String("check", "", "validate the snapshot FILE and exit")
		compare   = fs.Bool("compare", false, "compare two snapshots: benchsnap -compare OLD NEW")
		ratio     = fs.Bool("ratio", false, "record a v2-vs-v3 compression-ratio snapshot instead of timings")
		ratioScl  = fs.Float64("ratio-scale", 1.0, "corpus scale for -ratio")
		delta     = fs.Bool("delta", false, "record a delta-patch-size snapshot instead of timings")
		deltaScl  = fs.Float64("delta-scale", 1.0, "corpus scale for -delta")
		deltaRate = fs.Float64("delta-rate", 0.05, "per-class mutation probability for -delta")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *ratio:
		path, err := recordRatio(*dir, *ratioScl, *tag, *out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsnap: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s\n", path)
		return 0
	case *delta:
		path, err := recordDelta(*dir, *deltaScl, *deltaRate, *tag, *out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsnap: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s\n", path)
		return 0
	case *check != "":
		schema, err := checkFile(*check)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsnap: %v\n", err)
			return 1
		}
		fmt.Printf("%s: valid %s snapshot\n", *check, schema)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchsnap -compare OLD.json NEW.json")
			return 2
		}
		ok, err := compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsnap: %v\n", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	default:
		path, err := record(*dir, *bench, *benchtime, *tag, *out, *n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsnap: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s\n", path)
		return 0
	}
}

// record runs the benchmarks and writes the snapshot, returning its path.
func record(dir, bench, benchtime, tag, out string, n int) (string, error) {
	if n < 1 {
		return "", fmt.Errorf("-n must be >= 1")
	}
	goTool := os.Getenv("GO")
	if goTool == "" {
		goTool = "go"
	}
	cmdArgs := []string{"test", "-run", "^$", "-bench", bench, "-benchmem",
		"-count", strconv.Itoa(n)}
	if benchtime != "" {
		cmdArgs = append(cmdArgs, "-benchtime", benchtime)
	}
	cmdArgs = append(cmdArgs, ".")
	cmd := exec.Command(goTool, cmdArgs...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go test -bench: %w\n%s", err, raw)
	}
	results, err := parseBenchOutput(string(raw))
	if err != nil {
		return "", err
	}
	if len(results) == 0 {
		return "", fmt.Errorf("no benchmarks matched %q", bench)
	}
	snap := Snapshot{
		Schema:    Schema,
		UTCDate:   time.Now().UTC().Format("2006-01-02"),
		GitSHA:    gitShortSHA(dir),
		Tag:       tag,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Samples:   n,
		Bench:     bench,
		Results:   results,
	}
	if out == "" {
		name := "BENCH_" + snap.UTCDate + "_" + snap.GitSHA
		if tag != "" {
			name += "_" + tag
		}
		out = filepath.Join(dir, name+".json")
	}
	data, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		return "", err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return "", err
	}
	return out, nil
}

// gitShortSHA best-effort resolves the current commit; snapshots taken
// outside a checkout record "unknown" rather than failing.
func gitShortSHA(dir string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// benchLine matches one `go test -bench` result line: the benchmark
// name, the iteration count, then value/unit pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.+)$`)

// parseBenchOutput folds the repeated samples of each benchmark (from
// -count) into per-metric medians, preserving first-seen name order.
func parseBenchOutput(out string) ([]Benchmark, error) {
	samples := map[string]map[string][]float64{} // name -> unit -> values
	var order []string
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		// Trim the -GOMAXPROCS suffix go appends when procs > 1.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		fields := strings.Fields(m[2])
		if len(fields)%2 != 0 {
			return nil, fmt.Errorf("odd metric fields in line %q", line)
		}
		if samples[name] == nil {
			samples[name] = map[string][]float64{}
			order = append(order, name)
		}
		for i := 0; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad metric value in line %q: %v", line, err)
			}
			unit := fields[i+1]
			samples[name][unit] = append(samples[name][unit], v)
		}
	}
	var results []Benchmark
	for _, name := range order {
		b := Benchmark{Name: name}
		for unit, vals := range samples[name] {
			if len(vals) > b.Samples {
				b.Samples = len(vals)
			}
			med := median(vals)
			switch unit {
			case "ns/op":
				b.NsPerOp = med
			case "MB/s":
				b.MBPerS = med
			case "B/op":
				b.BytesPerOp = med
			case "allocs/op":
				b.AllocsPerOp = med
			default:
				if b.Extra == nil {
					b.Extra = map[string]float64{}
				}
				b.Extra[unit] = med
			}
		}
		results = append(results, b)
	}
	return results, nil
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// load reads and schema-validates one snapshot.
func load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if err := validate(&s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &s, nil
}

// validate enforces the parts of the schema later tooling depends on.
func validate(s *Snapshot) error {
	if s.Schema != Schema {
		return fmt.Errorf("schema %q, want %q", s.Schema, Schema)
	}
	if _, err := time.Parse("2006-01-02", s.UTCDate); err != nil {
		return fmt.Errorf("utc_date %q: want YYYY-MM-DD", s.UTCDate)
	}
	if s.GitSHA == "" {
		return fmt.Errorf("missing git_sha")
	}
	if s.Samples < 1 {
		return fmt.Errorf("samples %d: want >= 1", s.Samples)
	}
	if len(s.Results) == 0 {
		return fmt.Errorf("no benchmarks recorded")
	}
	seen := map[string]bool{}
	for _, b := range s.Results {
		if b.Name == "" {
			return fmt.Errorf("benchmark with empty name")
		}
		if seen[b.Name] {
			return fmt.Errorf("duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
		if b.NsPerOp <= 0 {
			return fmt.Errorf("benchmark %q: ns_per_op %v, want > 0", b.Name, b.NsPerOp)
		}
	}
	return nil
}

func checkFile(path string) (schema string, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return "", fmt.Errorf("%s: %v", path, err)
	}
	if probe.Schema == RatioSchema {
		return RatioSchema, checkRatioFile(path)
	}
	if probe.Schema == DeltaSchema {
		return DeltaSchema, checkDeltaFile(path)
	}
	_, err = load(path)
	return Schema, err
}

// RatioSchema identifies v2-vs-v3 compression-ratio snapshots; bump
// only with a documented migration in DESIGN.md.
const RatioSchema = "classpack-ratiosnap/v1"

// ratioChunkSizes are the version-3 chunk sizes every ratio snapshot
// measures, bracketing the DefaultChunkClasses = 64 shipping value.
var ratioChunkSizes = []int{16, 64, 256}

// ratioCorpora are the profiles a ratio snapshot packs: the three
// SPECjvm-style corpora the paper's tables lean on.
var ratioCorpora = []string{"202_jess", "209_db", "213_javac"}

// RatioSnapshot is the stable on-disk schema of a -ratio run.
type RatioSnapshot struct {
	Schema  string        `json:"schema"`
	UTCDate string        `json:"utc_date"`
	GitSHA  string        `json:"git_sha"`
	Tag     string        `json:"tag,omitempty"`
	Scale   float64       `json:"scale"` // corpus scale packed
	Corpora []CorpusRatio `json:"corpora"`
}

// CorpusRatio is one corpus's measurements: the monolithic version-2
// baseline and the version-3 size at each chunk size.
type CorpusRatio struct {
	Name       string       `json:"name"`
	Classes    int          `json:"classes"`
	InputBytes int64        `json:"input_bytes"` // stripped class bytes summed
	V2Bytes    int64        `json:"v2_bytes"`
	Chunked    []ChunkRatio `json:"chunked"`
}

// ChunkRatio is one (chunk size, archive size) point, with the relative
// growth over the version-2 baseline.
type ChunkRatio struct {
	ChunkClasses int     `json:"chunk_classes"`
	Bytes        int64   `json:"bytes"`
	OverheadVsV2 float64 `json:"overhead_vs_v2"` // (v3 - v2) / v2
}

// recordRatio packs each corpus under every layout and writes the
// snapshot. Packing happens in-process — archive sizes are deterministic
// at every worker count, so no go-test indirection is needed.
func recordRatio(dir string, scale float64, tag, out string) (string, error) {
	snap := RatioSnapshot{
		Schema:  RatioSchema,
		UTCDate: time.Now().UTC().Format("2006-01-02"),
		GitSHA:  gitShortSHA(dir),
		Tag:     tag,
		Scale:   scale,
	}
	for _, name := range ratioCorpora {
		c, err := bench.Load(name, scale)
		if err != nil {
			return "", err
		}
		raw := make([][]byte, len(c.StrippedFiles))
		cr := CorpusRatio{Name: name, Classes: len(raw)}
		for i, f := range c.StrippedFiles {
			raw[i] = f.Data
			cr.InputBytes += int64(len(f.Data))
		}
		opts := classpack.DefaultOptions()
		v2, err := classpack.Pack(raw, &opts)
		if err != nil {
			return "", fmt.Errorf("%s: v2 pack: %w", name, err)
		}
		cr.V2Bytes = int64(len(v2))
		for _, n := range ratioChunkSizes {
			opts.ChunkClasses = n
			v3, err := classpack.Pack(raw, &opts)
			if err != nil {
				return "", fmt.Errorf("%s: v3 pack (chunk %d): %w", name, n, err)
			}
			cr.Chunked = append(cr.Chunked, ChunkRatio{
				ChunkClasses: n,
				Bytes:        int64(len(v3)),
				OverheadVsV2: float64(len(v3)-len(v2)) / float64(len(v2)),
			})
		}
		snap.Corpora = append(snap.Corpora, cr)
	}
	if out == "" {
		name := "BENCH_" + snap.UTCDate + "_" + snap.GitSHA
		if tag != "" {
			name += "_" + tag
		}
		out = filepath.Join(dir, name+"_ratio.json")
	}
	data, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		return "", err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return "", err
	}
	return out, nil
}

// checkRatioFile validates the parts of the ratio schema later tooling
// depends on.
func checkRatioFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var s RatioSnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if s.Schema != RatioSchema {
		return fmt.Errorf("%s: schema %q, want %q", path, s.Schema, RatioSchema)
	}
	if _, err := time.Parse("2006-01-02", s.UTCDate); err != nil {
		return fmt.Errorf("%s: utc_date %q: want YYYY-MM-DD", path, s.UTCDate)
	}
	if s.GitSHA == "" {
		return fmt.Errorf("%s: missing git_sha", path)
	}
	if len(s.Corpora) == 0 {
		return fmt.Errorf("%s: no corpora recorded", path)
	}
	for _, c := range s.Corpora {
		if c.Name == "" || c.Classes < 1 || c.V2Bytes < 1 {
			return fmt.Errorf("%s: corpus %q: incomplete record", path, c.Name)
		}
		if len(c.Chunked) == 0 {
			return fmt.Errorf("%s: corpus %q: no chunked measurements", path, c.Name)
		}
		for _, ch := range c.Chunked {
			if ch.ChunkClasses < 1 || ch.Bytes < 1 {
				return fmt.Errorf("%s: corpus %q: bad chunk point %+v", path, c.Name, ch)
			}
		}
	}
	return nil
}

// DeltaSchema identifies cross-archive delta-patch-size snapshots; bump
// only with a documented migration in DESIGN.md.
const DeltaSchema = "classpack-deltasnap/v1"

// deltaChunkClasses is the version-3 layout every delta snapshot packs:
// the DefaultChunkClasses shipping value, so the recorded patch sizes
// match what jpack and jpackd produce by default.
const deltaChunkClasses = 64

// deltaSeed makes the synthetic version bump reproducible: the same
// corpus and rate always change the same classes, so snapshots taken at
// different commits are comparable.
const deltaSeed = 1999 // the paper's publication year, for want of a better constant

// deltaCorpora are the profiles a delta snapshot diffs. Unlike the
// ratio corpora they must be large enough that a 5% class-change rate
// selects whole classes — 209_db is 3 classes, where the minimum
// one-class bump is already a 33% change — so the small ratio corpus is
// swapped for the ~400-class tools profile.
var deltaCorpora = []string{"202_jess", "213_javac", "tools"}

// DeltaSnapshot is the stable on-disk schema of a -delta run.
type DeltaSnapshot struct {
	Schema       string        `json:"schema"`
	UTCDate      string        `json:"utc_date"`
	GitSHA       string        `json:"git_sha"`
	Tag          string        `json:"tag,omitempty"`
	Scale        float64       `json:"scale"`         // corpus scale packed
	ChangeRate   float64       `json:"change_rate"`   // per-class mutation probability
	ChunkClasses int           `json:"chunk_classes"` // v3 layout both versions were packed with
	Corpora      []CorpusDelta `json:"corpora"`
}

// CorpusDelta is one corpus's measurement: the two full archives of a
// synthetic version bump and the size of the CJPD patch between them.
type CorpusDelta struct {
	Name           string  `json:"name"`
	Classes        int     `json:"classes"`
	ChangedClasses int     `json:"changed_classes"`
	OldBytes       int64   `json:"old_bytes"`
	NewBytes       int64   `json:"new_bytes"`
	PatchBytes     int64   `json:"patch_bytes"`
	PatchVsFull    float64 `json:"patch_vs_full"` // patch / new, the bandwidth ratio
}

// recordDelta packs each corpus twice across a synthetic version bump,
// diffs the pair, verifies the patch applies back to the exact new
// archive, and writes the snapshot. Everything runs in-process — patch
// bytes are deterministic at every worker count, so no go-test
// indirection is needed.
func recordDelta(dir string, scale, rate float64, tag, out string) (string, error) {
	if rate <= 0 || rate > 1 {
		return "", fmt.Errorf("-delta-rate %v: want in (0, 1]", rate)
	}
	snap := DeltaSnapshot{
		Schema:       DeltaSchema,
		UTCDate:      time.Now().UTC().Format("2006-01-02"),
		GitSHA:       gitShortSHA(dir),
		Tag:          tag,
		Scale:        scale,
		ChangeRate:   rate,
		ChunkClasses: deltaChunkClasses,
	}
	opts := classpack.DefaultOptions()
	opts.ChunkClasses = deltaChunkClasses
	for _, name := range deltaCorpora {
		c, err := bench.Load(name, scale)
		if err != nil {
			return "", err
		}
		raw := make([][]byte, len(c.StrippedFiles))
		for i, f := range c.StrippedFiles {
			raw[i] = f.Data
		}
		oldArc, err := classpack.Pack(raw, &opts)
		if err != nil {
			return "", fmt.Errorf("%s: old pack: %w", name, err)
		}
		bumped, changed, err := synth.MutateClasses(raw, rate, deltaSeed)
		if err != nil {
			return "", fmt.Errorf("%s: version bump: %w", name, err)
		}
		newArc, err := classpack.Pack(bumped, &opts)
		if err != nil {
			return "", fmt.Errorf("%s: new pack: %w", name, err)
		}
		patch, err := classpack.Diff(oldArc, newArc, &opts)
		if err != nil {
			return "", fmt.Errorf("%s: diff: %w", name, err)
		}
		// A snapshot must never record a patch that does not round-trip.
		applied, err := classpack.ApplyDelta(oldArc, patch, &opts)
		if err != nil {
			return "", fmt.Errorf("%s: apply: %w", name, err)
		}
		if !bytes.Equal(applied, newArc) {
			return "", fmt.Errorf("%s: applied patch differs from the new archive", name)
		}
		snap.Corpora = append(snap.Corpora, CorpusDelta{
			Name:           name,
			Classes:        len(raw),
			ChangedClasses: changed,
			OldBytes:       int64(len(oldArc)),
			NewBytes:       int64(len(newArc)),
			PatchBytes:     int64(len(patch)),
			PatchVsFull:    float64(len(patch)) / float64(len(newArc)),
		})
	}
	if out == "" {
		name := "BENCH_" + snap.UTCDate + "_" + snap.GitSHA
		if tag != "" {
			name += "_" + tag
		}
		out = filepath.Join(dir, name+"_delta.json")
	}
	data, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		return "", err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return "", err
	}
	return out, nil
}

// checkDeltaFile validates the parts of the delta schema later tooling
// depends on.
func checkDeltaFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var s DeltaSnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if s.Schema != DeltaSchema {
		return fmt.Errorf("%s: schema %q, want %q", path, s.Schema, DeltaSchema)
	}
	if _, err := time.Parse("2006-01-02", s.UTCDate); err != nil {
		return fmt.Errorf("%s: utc_date %q: want YYYY-MM-DD", path, s.UTCDate)
	}
	if s.GitSHA == "" {
		return fmt.Errorf("%s: missing git_sha", path)
	}
	if s.ChangeRate <= 0 || s.ChangeRate > 1 {
		return fmt.Errorf("%s: change_rate %v: want in (0, 1]", path, s.ChangeRate)
	}
	if s.ChunkClasses < 1 {
		return fmt.Errorf("%s: chunk_classes %d: want >= 1", path, s.ChunkClasses)
	}
	if len(s.Corpora) == 0 {
		return fmt.Errorf("%s: no corpora recorded", path)
	}
	for _, c := range s.Corpora {
		if c.Name == "" || c.Classes < 1 || c.OldBytes < 1 || c.NewBytes < 1 || c.PatchBytes < 1 {
			return fmt.Errorf("%s: corpus %q: incomplete record", path, c.Name)
		}
		if c.ChangedClasses < 1 || c.ChangedClasses > c.Classes {
			return fmt.Errorf("%s: corpus %q: changed_classes %d of %d classes", path, c.Name, c.ChangedClasses, c.Classes)
		}
		if c.PatchVsFull <= 0 || c.PatchVsFull > 1 {
			return fmt.Errorf("%s: corpus %q: patch_vs_full %v: want in (0, 1]", path, c.Name, c.PatchVsFull)
		}
	}
	return nil
}

// compareFiles prints a delta table between two snapshots and reports
// whether the new one is free of >10% throughput regressions.
func compareFiles(w *os.File, oldPath, newPath string) (ok bool, err error) {
	oldSnap, err := load(oldPath)
	if err != nil {
		return false, err
	}
	newSnap, err := load(newPath)
	if err != nil {
		return false, err
	}
	oldBy := map[string]Benchmark{}
	for _, b := range oldSnap.Results {
		oldBy[b.Name] = b
	}
	fmt.Fprintf(w, "%-28s %14s %14s %8s   %s\n", "benchmark", "old", "new", "delta", "metric")
	ok = true
	for _, nb := range newSnap.Results {
		ob, found := oldBy[nb.Name]
		if !found {
			fmt.Fprintf(w, "%-28s %14s %14s %8s   (new benchmark)\n", nb.Name, "-", "-", "-")
			continue
		}
		// Throughput gate: MB/s when both report it (higher is
		// better), else ns/op (lower is better).
		var delta float64
		var line string
		if ob.MBPerS > 0 && nb.MBPerS > 0 {
			delta = nb.MBPerS/ob.MBPerS - 1
			line = fmt.Sprintf("%-28s %11.2f MB/s %11.2f MB/s %+7.1f%%   throughput", nb.Name, ob.MBPerS, nb.MBPerS, 100*delta)
		} else {
			delta = ob.NsPerOp/nb.NsPerOp - 1 // speedup, so sign matches MB/s case
			line = fmt.Sprintf("%-28s %11.0f ns %13.0f ns %+7.1f%%   speed", nb.Name, ob.NsPerOp, nb.NsPerOp, 100*delta)
		}
		flag := ""
		if delta < -regressionLimit {
			flag = "  << REGRESSION"
			ok = false
		}
		fmt.Fprintf(w, "%s%s\n", line, flag)
		if ob.AllocsPerOp > 0 && nb.AllocsPerOp > 0 {
			fmt.Fprintf(w, "%-28s %14.0f %14.0f %+7.1f%%   allocs/op\n",
				"", ob.AllocsPerOp, nb.AllocsPerOp, 100*(nb.AllocsPerOp/ob.AllocsPerOp-1))
		}
		if ob.BytesPerOp > 0 && nb.BytesPerOp > 0 {
			fmt.Fprintf(w, "%-28s %14.0f %14.0f %+7.1f%%   B/op\n",
				"", ob.BytesPerOp, nb.BytesPerOp, 100*(nb.BytesPerOp/ob.BytesPerOp-1))
		}
	}
	for _, ob := range oldSnap.Results {
		found := false
		for _, nb := range newSnap.Results {
			if nb.Name == ob.Name {
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(w, "%-28s %14s %14s %8s   (removed)\n", ob.Name, "-", "-", "-")
		}
	}
	if !ok {
		fmt.Fprintf(w, "\nFAIL: throughput regression exceeds %.0f%%\n", 100*regressionLimit)
	}
	return ok, nil
}
