package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own files around a module's public function. Spans of one op share
// Op; an op's root span has Parent -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the tracer's epoch
	End    int64  `json:"end"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	Op     int    `json:"op_id"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so untraced code pays one nil check per call.
type tracer struct {
	epoch time.Time
	ops   atomic.Int64 // last op id handed out
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newOp returns a fresh op id (0 on a nil tracer).
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	return int(t.ops.Add(1))
}

// reset drops the spans recorded so far.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = t.spans[:0]
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// opCtx is what an op passes down to the layers it calls: the tracer
// (nil when untraced), the op's root span and its id.
type opCtx struct {
	t    *tracer
	root int
	id   int
}

func (o opCtx) begin(name string) int { return o.t.begin(name, o.root, o.id) }
func (o opCtx) end(id int)            { o.t.end(id) }

// covered is the length of the part of [lo, hi) that the intervals
// cover, counting overlaps once.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	var clipped [][2]int64
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if s < e {
			clipped = append(clipped, [2]int64{s, e})
		}
	}
	sort.Slice(clipped, func(a, b int) bool { return clipped[a][0] < clipped[b][0] })
	var total, curS, curE int64
	for i, iv := range clipped {
		if i == 0 || iv[0] > curE {
			total += curE - curS
			curS, curE = iv[0], iv[1]
			continue
		}
		curE = max(curE, iv[1])
	}
	return total + curE - curS
}

// layerProfile is what a traced phase says about the layers.
type layerProfile struct {
	// busyMs is each layer's self time per op, in milliseconds, averaged
	// over the ops that called the layer. Self time is a span's duration
	// minus the part its child spans cover; spans of one layer that run
	// on several workers add up.
	busyMs map[string]float64
	// coverage is the share of the ops' root spans, summed, that their
	// layer spans cover; the rest is time spent in the benchmark itself.
	// coverageMin is the same share for the op where it is lowest, which
	// for sub-millisecond ops is set by a preemption between two spans.
	coverage, coverageMin float64
	ops                   int
}

// profile computes the layer profile of a set of spans.
func profile(spans []span) layerProfile {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	intervals := func(i int) [][2]int64 {
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			ivs = append(ivs, [2]int64{spans[c].Start, spans[c].End})
		}
		return ivs
	}
	type key struct {
		op   int
		name string
	}
	perOp := make(map[key]int64)
	p := layerProfile{busyMs: make(map[string]float64), coverageMin: 1}
	var rootTime, rootCovered int64
	for i, s := range spans {
		dur := s.End - s.Start
		in := covered(s.Start, s.End, intervals(i))
		if s.Parent < 0 {
			p.ops++
			rootTime += dur
			rootCovered += in
			if dur > 0 {
				p.coverageMin = min(p.coverageMin, float64(in)/float64(dur))
			}
			continue
		}
		perOp[key{s.Op, s.Name}] += dur - in
	}
	p.coverage = ratio(float64(rootCovered), float64(rootTime))
	if p.ops == 0 {
		p.coverageMin = 0
	}
	sum := make(map[string]int64)
	count := make(map[string]int)
	for k, self := range perOp {
		sum[k.name] += self
		count[k.name]++
	}
	for name, total := range sum {
		p.busyMs[name] = float64(total) / float64(count[name]) / float64(time.Millisecond)
	}
	return p
}

// writeSpans saves spans as JSON, creating the directory if needed.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
