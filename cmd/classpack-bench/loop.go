package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"
)

// opRecord is one completed op.
type opRecord struct {
	Kind     int // 0 = the workload's op1, 1 = op2
	Dur      time.Duration
	Failed   bool // error, refusal or wrong output
	Mismatch bool // wrong output
}

// closedLoop runs clients goroutines, each calling step back to back,
// the next call only after the previous one returned, until d has
// elapsed; every client completes at least one step, and a step under
// way when d runs out finishes. It returns every op recorded and the
// time until the last client stopped, which is the span the ops
// completed in.
func closedLoop(ctx context.Context, clients int, d time.Duration, step func(ctx context.Context, client int) []opRecord) ([]opRecord, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	perClient := make([][]opRecord, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				perClient[c] = append(perClient[c], step(ctx, c)...)
				if ctx.Err() != nil || !time.Now().Before(deadline) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []opRecord
	for _, recs := range perClient {
		all = append(all, recs...)
	}
	return all, elapsed
}

// errorLog prints the first few op errors of a run to stderr, so a
// failing run says why without flooding the log.
var errorLog struct {
	mu sync.Mutex
	n  int
}

func logOpError(name string, err error) {
	errorLog.mu.Lock()
	defer errorLog.mu.Unlock()
	errorLog.n++
	if errorLog.n <= 5 {
		fmt.Fprintf(os.Stderr, "classpack-bench: %s: %v\n", name, err)
	}
}

// timeOp runs one op: it times f, wrapping it in a root span named
// after the op when t is non-nil, then runs the check f returned (not
// timed) to decide whether the output was right.
func timeOp(t *tracer, kind int, name string, f func(o opCtx) (check func() bool, err error)) opRecord {
	o := opCtx{t: t, id: t.newOp()}
	start := time.Now()
	o.root = t.begin(name, -1, o.id)
	check, err := f(o)
	t.end(o.root)
	rec := opRecord{Kind: kind, Dur: time.Since(start)}
	switch {
	case err != nil:
		rec.Failed = true
		logOpError(name, err)
	case !check():
		rec.Failed, rec.Mismatch = true, true
		logOpError(name, fmt.Errorf("output differs from the expected bytes"))
	}
	return rec
}

// durations returns the durations of the successful ops of one kind.
func durations(recs []opRecord, kind int) []time.Duration {
	var out []time.Duration
	for _, r := range recs {
		if r.Kind == kind && !r.Failed {
			out = append(out, r.Dur)
		}
	}
	return out
}

// tally counts the attempted, failed and mismatched ops.
type tally struct{ attempted, failed, mismatches int }

func (t *tally) add(recs []opRecord) {
	for _, r := range recs {
		t.attempted++
		if r.Failed {
			t.failed++
		}
		if r.Mismatch {
			t.mismatches++
		}
	}
}
