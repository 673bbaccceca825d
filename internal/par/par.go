// Package par provides the bounded, order-preserving worker pool the
// codec fans independent per-item work across: per-file parse/strip and
// write-out in the public API, per-stream compression and decompression
// in the container, building decoded classes while the decoder reads
// ahead, and whole-archive verification. Work is indexed,
// results are written by index, and the error reported is always the
// lowest-index failure — so output content, output order, and error
// selection never depend on the worker count.
package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a concurrency request for n items: values <= 0 mean
// "all cores" (runtime.GOMAXPROCS). The result is clamped to [1, n] for
// n >= 1, and is 1 when there is nothing to do.
func Workers(concurrency, n int) int {
	if concurrency <= 0 {
		concurrency = runtime.GOMAXPROCS(0)
	}
	if concurrency > n {
		concurrency = n
	}
	if concurrency < 1 {
		concurrency = 1
	}
	return concurrency
}

// Do runs f(i) for every i in [0, n) on at most Workers(concurrency, n)
// goroutines and returns the lowest-index error — the same error a
// serial loop would stop at; a panic in f counts as its item's failure
// and is raised again on the calling goroutine (see DoWorkers). With one
// worker it runs every call inline on the calling goroutine, reproducing
// the serial path exactly (including stopping at the first failure).
//
// Under parallel execution an index after a failing one may still have
// been processed by the time Do returns; callers must treat the result
// slice as undefined past the returned error's index, just as a serial
// loop would have left it unfilled.
func Do(concurrency, n int, f func(i int) error) error {
	return DoWorkers(concurrency, n, func(_, i int) error { return f(i) })
}

// DoWorkers is Do for callbacks that keep per-worker scratch state: f
// additionally receives the calling worker's id in [0, Workers(concurrency,
// n)). A given worker id is never used by two goroutines concurrently, so
// scratch indexed by it needs no locking. Item-to-worker assignment is
// load-dependent; anything that must not vary with scheduling (output
// content, order, error selection) carries the item index, exactly as in
// Do.
//
// A panic in f is a failure of its item: once every worker has exited,
// if it is the lowest-index failure, it is raised again, with the same
// value, on the calling goroutine, as a serial loop would raise it.
func DoWorkers(concurrency, n int, f func(worker, i int) error) error {
	workers := Workers(concurrency, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := f(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Int64 // lowest failing index seen so far
		wg     sync.WaitGroup
	)
	errs := make([]error, n)
	failed.Store(int64(n))
	call := func(worker, i int) (err error) {
		defer func() {
			if v := recover(); v != nil {
				err = workPanic{v}
			}
		}()
		return f(worker, i)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				// The claim counter is monotonic, so once a claimed index
				// lies past the failure frontier every later claim will
				// too; items before the frontier still run to completion
				// so the lowest-index error wins deterministically.
				if i >= n || int64(i) > failed.Load() {
					return
				}
				if err := call(worker, i); err != nil {
					errs[i] = err
					for {
						cur := failed.Load()
						if int64(i) >= cur || failed.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if p, ok := err.(workPanic); ok {
			panic(p.value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// workPanic records a panic in a DoWorkers callback as its item's
// failure, for DoWorkers to raise again on the calling goroutine.
type workPanic struct{ value any }

func (p workPanic) Error() string { return fmt.Sprint("par: work panicked: ", p.value) }

// Pipeline runs n items through three stages: produce(slot, i) on the
// calling goroutine in index order, work(worker, slot) on up to
// Workers(concurrency, n) goroutines, and consume(slot, i) back on the
// calling goroutine in index order, as soon as item i and every item
// before it have been worked. It is for a stateful, sequential producer
// whose items then need independent work, such as a decoder whose
// output classes each still need building.
//
// An item occupies its slot from produce until consume returns, and at
// most workers+1 items are in flight, so slot is in [0, workers+1) and
// whatever the caller keeps per slot is reused rather than grown. worker
// is in [0, workers) and, as in DoWorkers, never runs two items at once.
//
// The result is what a serial loop returns: the lowest-index failure,
// and for one item a produce error before its work error before its
// consume error. Every item before the failing one is consumed; none
// after it is. With one worker, Pipeline is that loop, inline on the
// calling goroutine. Otherwise it returns only after every worker has
// exited, and a panic in work is raised again, with the same value, on
// the calling goroutine when that item's turn to be consumed comes.
func Pipeline(concurrency, n int, produce func(slot, i int) error,
	work func(worker, slot int) error, consume func(slot, i int) error) error {
	workers := Workers(concurrency, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := produce(0, i); err != nil {
				return err
			}
			if err := work(0, 0); err != nil {
				return err
			}
			if err := consume(0, i); err != nil {
				return err
			}
		}
		return nil
	}

	type result struct {
		err      error
		panicked bool
		value    any
	}
	slots := workers + 1
	// Both buffers hold every item in flight, so no send blocks: jobs
	// at most slots of them, done[s] the one item slot s holds.
	jobs := make(chan int, slots)
	done := make([]chan result, slots)
	for s := range done {
		done[s] = make(chan result, 1)
	}
	var (
		stop atomic.Bool // set once the caller stops consuming
		wg   sync.WaitGroup
	)
	run := func(worker, slot int) (r result) {
		defer func() {
			if v := recover(); v != nil {
				r = result{panicked: true, value: v}
			}
		}()
		return result{err: work(worker, slot)}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for slot := range jobs {
				if stop.Load() {
					done[slot] <- result{}
					continue
				}
				done[slot] <- run(worker, slot)
			}
		}(w)
	}
	defer func() {
		stop.Store(true)
		close(jobs)
		wg.Wait()
	}()

	end, next, head := n, 0, 0 // produce [next, end); consume [head, next)
	var endErr error           // why production stopped before n
	finish := func() error {
		r := <-done[head%slots]
		if r.panicked {
			panic(r.value)
		}
		if r.err != nil {
			return r.err
		}
		if err := consume(head%slots, head); err != nil {
			return err
		}
		head++
		return nil
	}
	for head < end {
		if next == end || next-head == slots {
			// Nothing left to produce, or the window is full: wait for
			// the oldest item.
			if err := finish(); err != nil {
				return err
			}
			continue
		}
		if head < next && len(done[head%slots]) > 0 {
			if err := finish(); err != nil {
				return err
			}
			continue
		}
		if err := produce(next%slots, next); err != nil {
			end, endErr = next, err
			continue
		}
		jobs <- next % slots
		next++
	}
	return endErr
}
