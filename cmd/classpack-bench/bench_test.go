package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the command when the codec
// workload re-executes itself as its child.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		if err := codecChild(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestPercentileSelection(t *testing.T) {
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{100, 0.9, 10}, {100, 0.99, 1}, {1000, 0.99, 10}, {20, 0.5, 10}, {19, 0.5, 9}, {0, 0.5, 0}} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %g) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.9}, {100, 0.9}, {99, 0.75}, {40, 0.75}, {39, 0.5}, {20, 0.5}, {19, 0}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// Every tail a workload reports must be one of the candidates.
	for _, w := range workloads {
		for _, q := range w.tailQ {
			found := false
			for _, c := range percentileCandidates {
				found = found || c == q
			}
			if !found {
				t.Errorf("%s: tail percentile %g is not a candidate", w.name, q)
			}
		}
	}
}

func TestSummarizeCountsOnlySuccessfulOps(t *testing.T) {
	var recs []opRecord
	for i := 1; i <= 30; i++ {
		recs = append(recs, opRecord{Kind: 0, Dur: time.Duration(i) * time.Millisecond})
	}
	recs = append(recs,
		opRecord{Kind: 0, Dur: time.Hour, Failed: true},
		opRecord{Kind: 1, Dur: time.Second})
	l := summarize(durations(recs, 0), 0.75)
	if l.n != 30 || l.p50 != 15 || l.tail != 23 {
		t.Errorf("summarize = %+v, want n=30 p50=15 p75=23", l)
	}
	var tl tally
	tl.add(append(recs, opRecord{Failed: true, Mismatch: true}))
	if tl.attempted != 33 || tl.failed != 2 || tl.mismatches != 1 {
		t.Errorf("tally = %+v, want 33 attempted, 2 failed, 1 mismatch", tl)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(data, n=4).
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2}, [3]float64{1, 3, 5}},
		{[]float64{2.5, 7}, [3]float64{1.375, 4.75, 8.125}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		q1, m, q3 := quartiles(c.data)
		if got := [3]float64{q1, m, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
		}
	}
}

func TestSelfTimeAndCoverage(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{Name: "op", Start: 0, End: 100 * ms, Parent: -1, Op: 1},
		{Name: "a", Start: 10 * ms, End: 50 * ms, Parent: 0, Op: 1},
		{Name: "a.inner", Start: 20 * ms, End: 30 * ms, Parent: 1, Op: 1},
		// b overlaps a, as parallel workers' spans do.
		{Name: "b", Start: 40 * ms, End: 90 * ms, Parent: 0, Op: 1},
		{Name: "op", Start: 200 * ms, End: 210 * ms, Parent: -1, Op: 2},
		{Name: "b", Start: 200 * ms, End: 204 * ms, Parent: 4, Op: 2},
		{Name: "b", Start: 205 * ms, End: 207 * ms, Parent: 4, Op: 2},
	}
	p := profile(spans)
	want := map[string]float64{"a": 30, "a.inner": 10, "b": (50 + 6) / 2.0}
	for name, v := range want {
		if got := p.busyMs[name]; math.Abs(got-v) > 1e-9 {
			t.Errorf("busy %s = %g ms, want %g", name, got, v)
		}
	}
	if _, ok := p.busyMs["op"]; ok {
		t.Error("root spans must not count as a layer")
	}
	if p.ops != 2 || math.Abs(p.coverage-86.0/110) > 1e-9 || math.Abs(p.coverageMin-0.6) > 1e-9 {
		t.Errorf("ops=%d coverage=%g min=%g, want 2, %g, 0.6", p.ops, p.coverage, p.coverageMin, 86.0/110)
	}
	if got := covered(0, 10, [][2]int64{{8, 12}, {-5, 2}, {1, 3}, {20, 30}}); got != 5 {
		t.Errorf("covered = %d, want 5", got)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", -1, 0); id != -1 {
		t.Errorf("nil tracer begin = %d, want -1", id)
	}
	nilTracer.end(-1)
}

func TestClosedLoopAccounting(t *testing.T) {
	const clients, step = 2, 5 * time.Millisecond
	calls := make([]int, clients)
	recs, elapsed := closedLoop(context.Background(), clients, 60*time.Millisecond, func(_ context.Context, c int) []opRecord {
		calls[c]++
		time.Sleep(step)
		// A step may record several ops, as serve-write's pack and update.
		return []opRecord{{Kind: 0, Dur: step}, {Kind: 1, Dur: step}}
	})
	total := 0
	for c, n := range calls {
		if n < 2 {
			t.Errorf("client %d made %d calls", c, n)
		}
		total += n
	}
	if len(recs) != 2*total {
		t.Errorf("%d records from %d calls, want %d", len(recs), total, 2*total)
	}
	if elapsed < 60*time.Millisecond {
		t.Errorf("elapsed %v is shorter than the window", elapsed)
	}
	// Each client is busy the whole time, so the calls fill it.
	if max := int(elapsed/step) * clients; total > max {
		t.Errorf("%d calls in %v cannot fit %d clients of %v steps", total, elapsed, clients, step)
	}
	// A window already over still runs one step per client.
	recs, _ = closedLoop(context.Background(), clients, 0, func(context.Context, int) []opRecord {
		return []opRecord{{}}
	})
	if len(recs) != clients {
		t.Errorf("zero window ran %d ops, want %d", len(recs), clients)
	}
}

func TestSubsetSpansFixedChunks(t *testing.T) {
	// 256 classes in four chunks, as tools at scale 1.0.
	l := &classesLoad{ord: make(map[string]int)}
	for i := 0; i < 4*chunkClasses; i++ {
		n := fmt.Sprintf("C%d", i)
		l.unique = append(l.unique, n)
		l.ord[n] = i
	}
	if got := l.span(l.unique); got != 4 {
		t.Fatalf("span of all names = %d, want 4", got)
	}
	l.spanChunks = subsetChunks
	rng, again := clientRand(7, 0), clientRand(7, 0)
	for i := 0; i < 200; i++ {
		names := l.drawSubset(rng)
		if len(names) != subsetSize || l.span(names) != subsetChunks {
			t.Fatalf("draw %d: %v spans %d chunks, want %d names over %d", i, names, l.span(names), subsetSize, subsetChunks)
		}
		if fmt.Sprint(names) != fmt.Sprint(l.drawSubset(again)) {
			t.Fatalf("draw %d differs between two sources of the same seed", i)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	noisy := []float64{60, 140, 100, 80, 120, 100}
	for _, c := range []struct {
		name     string
		old, new []float64
		lower    bool
		want     string
	}{
		{"slower", base, shift(20), true, verdictRegression},
		{"same", base, shift(1), true, verdictSame},
		{"faster", base, shift(-20), true, verdictGain},
		{"throughput dropped", base, shift(-20), false, verdictRegression},
		{"noisy", base, noisy, true, verdictUnresolved},
		{"noisy but every run better", noisy, shift(-60), true, verdictGain},
	} {
		got := compareRuns(c.old, c.new, c.old, c.new, c.lower, 0.1)
		if got.verdict != c.want {
			t.Errorf("%s: verdict %s, want %s (%+v)", c.name, got.verdict, c.want, got)
		}
	}
}

// benchmarkJSON is the repository's BENCHMARK.json, which must describe
// this command.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

func TestBenchmarkJSONDescribesThisCommand(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if workloadByName(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is not a workload", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the command has %d", names, len(workloads))
	}
	check := func(kind string, defs []metricDef, got map[string]string) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command %d", kind, len(got), len(defs))
		}
		for _, d := range defs {
			if got[d.name] != d.unit {
				t.Errorf("%s: metric %s has unit %q in BENCHMARK.json, %q here", kind, d.name, got[d.name], d.unit)
			}
		}
	}
	e2e := make(map[string]string)
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %s: better %q bound %g", m.Name, m.Better, m.Bound)
		}
	}
	check("end_to_end", endToEnd, e2e)
	layer := make(map[string]string)
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	check("per_layer", perLayer, layer)
	if len(b.Paths) != 1 || b.Paths[0] != "cmd/classpack-bench" {
		t.Errorf("paths = %v", b.Paths)
	}
}

// TestSmoke runs every workload, untraced and traced, on tiny corpora
// with 300 ms windows, and checks that each prints every metric
// BENCHMARK.json names, with its unit, and that every output was right.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	dir := t.TempDir()
	jpackd := filepath.Join(dir, "jpackd")
	if out, err := exec.Command("go", "build", "-o", jpackd, "classpack/cmd/jpackd").CombinedOutput(); err != nil {
		t.Fatalf("building jpackd: %v\n%s", err, out)
	}
	want := map[int]map[string]string{0: {}, 1: {}}
	for _, m := range b.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		want[1][m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", w.name, "-seed", "7", "-seconds", "0.3", "-trace", fmt.Sprint(trace),
				"-scale", "0.05", "-jpackd", jpackd, "-workdir", filepath.Join(dir, "work")}
			if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
				t.Errorf("%s trace=%d: exit %d\n%s", w.name, trace, code, stderr.String())
				continue
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				t.Errorf("%s trace=%d: last line %q: %v", w.name, trace, lines[len(lines)-1], err)
				continue
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%t attempted=%d failed=%d\n%s",
					w.name, trace, rep.Correct, rep.Attempted, rep.Failed, stderr.String())
			}
			if len(rep.Metrics) != len(want[trace]) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, trace, len(rep.Metrics), len(want[trace]))
			}
			for name, unit := range want[trace] {
				if got, ok := rep.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %q", w.name, trace, name, got, unit)
				}
			}
		}
	}
}
