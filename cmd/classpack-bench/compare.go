package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json -compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdicts of one workload × metric.
const (
	verdictSame       = "same"
	verdictGain       = "gain"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// comparison is one workload × metric across two sets of runs.
type comparison struct {
	oldQ, newQ        [3]float64 // first quartile, median, third quartile
	worse             float64    // share by which the new median is worse (negative: better)
	oldSpread, spread float64    // quartile distance over the median, per side
	wins, pairs       int        // seed pairs in which the new run reads better
	verdict           string
	oldRuns, newRuns  int
}

// compareRuns judges one metric. lower says whether lower is better;
// bound is the share by which the new median may be worse. Following
// the benchmark's rules: a spread wider than the bound on either side
// is unresolved unless every new run beats every old run; otherwise a
// median worse by more than the bound is a regression, and a gain needs
// the medians to differ by more than the old runs' quartile distance
// with the new side winning at least nine tenths of the seed pairs.
func compareRuns(oldV, newV []float64, pairsOld, pairsNew []float64, lower bool, bound float64) comparison {
	var c comparison
	c.oldRuns, c.newRuns = len(oldV), len(newV)
	q1, m, q3 := quartiles(oldV)
	c.oldQ = [3]float64{q1, m, q3}
	q1, m, q3 = quartiles(newV)
	c.newQ = [3]float64{q1, m, q3}
	better := func(a, b float64) bool { // a reads better than b
		if lower {
			return a < b
		}
		return a > b
	}
	c.worse = ratio(c.newQ[1]-c.oldQ[1], c.oldQ[1])
	if !lower {
		c.worse = -c.worse
	}
	c.oldSpread = ratio(c.oldQ[2]-c.oldQ[0], c.oldQ[1])
	c.spread = ratio(c.newQ[2]-c.newQ[0], c.newQ[1])
	for i := range pairsOld {
		c.pairs++
		if better(pairsNew[i], pairsOld[i]) {
			c.wins++
		}
	}
	allBetter := len(oldV) > 0 && len(newV) > 0
	for _, n := range newV {
		for _, o := range oldV {
			if !better(n, o) {
				allBetter = false
			}
		}
	}
	gap := c.oldQ[1] - c.newQ[1]
	if !lower {
		gap = -gap
	}
	switch {
	case c.oldSpread > bound || c.spread > bound:
		c.verdict = verdictUnresolved
		if allBetter {
			c.verdict = verdictGain
		}
	case c.worse > bound:
		c.verdict = verdictRegression
	case gap > c.oldQ[2]-c.oldQ[0] && c.pairs > 0 && c.wins*10 >= c.pairs*9:
		c.verdict = verdictGain
	default:
		c.verdict = verdictSame
	}
	return c
}

// readRecords loads a JSONL file of untraced run records.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace == 0 {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// runCompare prints the comparison of every workload × end-to-end
// metric and exits 1 on any regression.
func runCompare(specPath, oldPath, newPath string, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "classpack-bench:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintf(stderr, "classpack-bench: %s: %v\n", specPath, err)
		return 2
	}
	oldRecs, err := readRecords(oldPath)
	if err == nil {
		var newRecs []record
		newRecs, err = readRecords(newPath)
		if err == nil {
			return printComparison(stdout, spec, oldRecs, newRecs)
		}
	}
	fmt.Fprintln(stderr, "classpack-bench:", err)
	return 2
}

func printComparison(w io.Writer, spec benchSpec, oldRecs, newRecs []record) int {
	byWorkload := func(recs []record) map[string][]record {
		m := make(map[string][]record)
		for _, r := range recs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	oldBy, newBy := byWorkload(oldRecs), byWorkload(newRecs)
	var names []string
	for n := range oldBy {
		if _, ok := newBy[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-14s %-14s %5s %30s %30s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "runs", "old q1/median/q3", "new q1/median/q3", "worse", "spread", "bound", "wins", "verdict")
	regressions, unresolved := 0, 0
	for _, name := range names {
		for _, m := range spec.EndToEnd {
			values := func(recs []record) []float64 {
				var v []float64
				for _, r := range recs {
					if mv, ok := r.Metrics[m.Name]; ok {
						v = append(v, mv.Value)
					}
				}
				return v
			}
			seeds := make(map[int64]float64)
			for _, r := range oldBy[name] {
				seeds[r.Seed] = r.Metrics[m.Name].Value
			}
			var po, pn []float64
			for _, r := range newBy[name] {
				if v, ok := seeds[r.Seed]; ok {
					po, pn = append(po, v), append(pn, r.Metrics[m.Name].Value)
				}
			}
			c := compareRuns(values(oldBy[name]), values(newBy[name]), po, pn, m.Better == "lower", m.Bound)
			switch c.verdict {
			case verdictRegression:
				regressions++
			case verdictUnresolved:
				unresolved++
			}
			fmt.Fprintf(w, "%-14s %-14s %2d/%-2d %9.4g/%9.4g/%9.4g %9.4g/%9.4g/%9.4g %+7.2f%% %6.2f%% %6.1f%% %2d/%-3d %s\n",
				name, m.Name, c.oldRuns, c.newRuns, c.oldQ[0], c.oldQ[1], c.oldQ[2], c.newQ[0], c.newQ[1], c.newQ[2],
				100*c.worse, 100*max(c.oldSpread, c.spread), 100*m.Bound, c.wins, c.pairs, c.verdict)
		}
	}
	fmt.Fprintf(w, "%d regression(s), %d unresolved\n", regressions, unresolved)
	if regressions > 0 {
		return 1
	}
	return 0
}
