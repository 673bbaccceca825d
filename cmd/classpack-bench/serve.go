package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"classpack/internal/serve/client"
)

// The serve workloads run the real jpackd as its own process and load
// it from this process with a closed loop of one client per CPU: jpackd's
// callers (build jobs, class loaders) each wait for a reply before
// sending the next request. The client makes one attempt per request,
// so a refusal counts as a failure instead of hiding behind a retry.

// serveLoad is one serve workload: its inputs and its op logic, written
// once against a backend so that the traced run replays the same seeded
// op sequence in-process.
type serveLoad interface {
	// daemonArgs are the workload's extra jpackd flags.
	daemonArgs() []string
	// cacheMax is the store size cap those flags set (0 = none).
	cacheMax() int64
	// prefill stores the workload's archives in b the way a client
	// would, and returns the op sequence to run against b.
	prefill(ctx context.Context, b backend) (driver, error)
	// verify runs the checks that decode whole archives, after the
	// window, and returns how many outputs were wrong.
	verify() (int, error)
	// packedRatio is archive bytes over the bytes of the per-file
	// DEFLATE jars of the same stripped classes, over the archives the
	// run packed; valid after verify.
	packedRatio() float64
}

// driver returns client c's next-step function for one phase. Each
// call starts the client's seeded op sequence afresh.
type driver func(c int, t *tracer) func(ctx context.Context) []opRecord

func newServeLoad(name string, e *env) (serveLoad, error) {
	switch name {
	case "serve-cached":
		return newCachedLoad(e)
	case "serve-classes":
		return newClassesLoad(e)
	case "serve-write":
		return newWriteLoad(e)
	}
	return nil, fmt.Errorf("unknown serve workload %q", name)
}

func runServe(ctx context.Context, w *workload, e *env) (*outcome, error) {
	if e.jpackd == "" {
		return nil, fmt.Errorf("-jpackd is required")
	}
	load, err := newServeLoad(w.name, e)
	if err != nil {
		return nil, err
	}
	transport := &http.Transport{MaxConnsPerHost: e.clients, MaxIdleConnsPerHost: e.clients}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport}

	// Set-up: start jpackd on an empty cache and prefill it, timed from
	// exec to the last prefill response. All but the last daemon are
	// stopped again.
	var d *daemon
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	var setup []float64
	var drv driver
	var c *client.Client
	for i := 0; i < setupCount(e); i++ {
		if d != nil {
			transport.CloseIdleConnections()
			err := d.stop()
			d = nil
			if err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if d, err = startDaemon(ctx, e.jpackd, filepath.Join(e.dir, "cache"+strconv.Itoa(i)), hc, load.daemonArgs()...); err != nil {
			return nil, err
		}
		c = client.NewRetry(d.base, hc, client.RetryPolicy{MaxAttempts: 1})
		if drv, err = load.prefill(ctx, httpBackend{c}); err != nil {
			return nil, fmt.Errorf("prefill: %w", err)
		}
		setup = append(setup, time.Since(start).Seconds())
	}

	window := e.window
	if e.trace {
		window /= 3
	}
	var queue, rss *sampler
	var pr *probe
	var before map[string]int64
	if e.trace {
		if before, err = c.Metrics(ctx); err != nil {
			return nil, err
		}
	}
	recs, elapsed := runPhase(ctx, e, drv, nil, window, func() {
		if e.trace {
			queue = startQueueSampler(ctx, c)
		} else {
			rss, pr = startRSSSampler(d.cmd.Process.Pid), startProbe()
		}
	})
	var daemonCounters map[string]float64
	if e.trace {
		depth := queue.stop()
		after, err := c.Metrics(ctx)
		if err != nil {
			return nil, err
		}
		delta := func(k string) float64 { return float64(after[k] - before[k]) }
		daemonCounters = map[string]float64{
			"serve.queue_depth.mean": depth,
			"serve.shed":             delta("shed_total"),
			"serve.errors":           delta("errors_total"),
			"serve.cache_hit_frac":   ratio(delta("cache_hits"), delta("cache_hits")+delta("cache_misses")),
		}
	}
	var rssMB float64
	var kernel []time.Duration
	if !e.trace {
		rssMB, kernel = rss.stop(), pr.stop()
	}
	transport.CloseIdleConnections()
	err = d.stop()
	d = nil
	if err != nil {
		return nil, err
	}

	o := &outcome{}
	o.add(recs)
	if !e.trace {
		bad, err := load.verify()
		if err != nil {
			return nil, err
		}
		o.mismatches += bad
		o.metrics = endToEndMetrics(w, os.Stderr, &measured{setup: setup, recs: recs, elapsed: elapsed,
			rssMB: rssMB, packedRatio: load.packedRatio(), kernel: kernel})
		return o, nil
	}

	// The same op sequence in-process: untraced, then traced.
	p := &phases{real: recs, counters: daemonCounters}
	for k, t := range []*tracer{nil, newTracer()} {
		rp, err := newReplay(filepath.Join(e.dir, "replay"+strconv.Itoa(k)), load.cacheMax())
		if err != nil {
			return nil, err
		}
		drv, err := load.prefill(ctx, rp)
		if err != nil {
			return nil, fmt.Errorf("in-process prefill: %w", err)
		}
		var lenBefore int
		got, _ := runPhase(ctx, e, drv, t, window, func() { lenBefore = rp.reset() })
		o.add(got)
		if t == nil {
			p.replay = got
			continue
		}
		p.traced = got
		spans := t.snapshot()
		p.prof = profile(spans)
		for name, v := range rp.counters(lenBefore) {
			p.counters[name] = v
		}
		if err := writeSpans(e.spans, spans); err != nil {
			return nil, err
		}
	}
	if wl, ok := load.(*writeLoad); ok {
		if p.counters["core.encode.allocs"], err = wl.encodeAllocs(); err != nil {
			return nil, err
		}
	}
	bad, err := load.verify()
	if err != nil {
		return nil, err
	}
	o.mismatches += bad
	o.metrics = layerMetrics(w, os.Stderr, p)
	return o, nil
}

// runPhase runs a warm-up and then the measured window of one phase,
// calling beforeWindow between them.
func runPhase(ctx context.Context, e *env, drv driver, t *tracer, window time.Duration, beforeWindow func()) ([]opRecord, time.Duration) {
	steps := make([]func(context.Context) []opRecord, e.clients)
	for c := range steps {
		steps[c] = drv(c, t)
	}
	step := func(ctx context.Context, c int) []opRecord { return steps[c](ctx) }
	closedLoop(ctx, e.clients, e.warm, step)
	t.reset() // the profile covers the window only
	beforeWindow()
	return closedLoop(ctx, e.clients, window, step)
}

// startQueueSampler samples jpackd's queue_depth gauge.
func startQueueSampler(ctx context.Context, c *client.Client) *sampler {
	return startSampler(ctx, func(ctx context.Context) (float64, bool) {
		m, err := c.Metrics(ctx)
		return float64(m["queue_depth"]), err == nil
	})
}

// archiveLog remembers the archive each input packed to, so that every
// later pack of the same input, over HTTP or in-process, must return the
// same bytes, and verify can decode each archive once.
type archiveLog[K comparable] struct {
	mu   sync.Mutex
	byIn map[K][]byte
	keys []K
}

// seen records packed for in and reports whether it matches what in
// packed to before.
func (l *archiveLog[K]) seen(in K, packed []byte) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.byIn == nil {
		l.byIn = make(map[K][]byte)
	}
	prev, ok := l.byIn[in]
	if !ok {
		l.byIn[in] = packed
		l.keys = append(l.keys, in)
		return true
	}
	return bytes.Equal(prev, packed)
}
