package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it
// is reported: with fewer, one slow sample moves it.
const minBeyond = 10

// percentileCandidates are the percentiles a tail metric may use, high
// to low.
var percentileCandidates = []float64{0.99, 0.95, 0.9, 0.75, 0.5}

// percentile is the nearest-rank q-quantile of sorted samples: the
// smallest sample with at least a q share of the samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return sorted[i]
}

// beyond is how many of n samples lie above the nearest-rank
// q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// highestSupported is the highest candidate percentile with at least
// minBeyond of n samples above it, or 0 when even the median has fewer.
// It is how each workload's tail percentile was chosen (see tailQ).
func highestSupported(n int) float64 {
	for _, q := range percentileCandidates {
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0
}

// quartiles returns the first quartile, median and third quartile of
// values exactly as Python's statistics.quantiles(values, n=4) does
// (the default "exclusive" method), which is how the run-to-run spread
// of a metric is judged.
func quartiles(values []float64) (q1, med, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return data[0], data[0], data[0]
	}
	const n = 4
	m := ld + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := max(1, min(i*m/n, ld-1))
		delta := i*m - j*n
		out[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// median of values (the middle of the quartiles rule).
func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// latency summarizes one op kind's successful samples.
type latency struct {
	n    int
	p50  float64 // ms
	q    float64 // the tail percentile reported
	tail float64 // ms
}

// summarize computes the median and the q-quantile of durations in
// milliseconds.
func summarize(durs []time.Duration, q float64) latency {
	ms := make([]float64, len(durs))
	for i, d := range durs {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	return latency{n: len(ms), p50: percentile(ms, 0.5), q: q, tail: percentile(ms, q)}
}

// ratio is a/b, or 0 when b is 0, so that a metric of an idle layer is
// 0 rather than NaN (which JSON cannot carry).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
