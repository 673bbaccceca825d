package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	cores := runtime.GOMAXPROCS(0)
	cases := []struct{ concurrency, n, want int }{
		{0, 100, cores},
		{-3, 100, cores},
		{1, 100, 1},
		{4, 2, 2},
		{4, 0, 1},
		{0, 0, 1},
	}
	for _, c := range cases {
		if got := Workers(c.concurrency, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.concurrency, c.n, got, c.want)
		}
	}
}

func TestDoVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 0} {
		const n = 1000
		counts := make([]atomic.Int32, n)
		err := Do(workers, n, func(i int) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestDoReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 3, 0} {
		err := Do(workers, 500, func(i int) error {
			if i == 7 || i == 400 {
				return fmt.Errorf("fail at %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail at 7" {
			t.Errorf("workers=%d: err = %v, want fail at 7", workers, err)
		}
	}
}

func TestDoSerialStopsEarly(t *testing.T) {
	ran := 0
	err := Do(1, 10, func(i int) error {
		ran++
		if i == 3 {
			return fmt.Errorf("stop")
		}
		return nil
	})
	if err == nil || ran != 4 {
		t.Fatalf("serial Do ran %d items (err %v), want stop after 4", ran, err)
	}
}

func TestDoZeroItems(t *testing.T) {
	if err := Do(0, 0, func(int) error { return fmt.Errorf("called") }); err != nil {
		t.Fatal(err)
	}
}

// TestDoWorkersPanicSurfaces checks that a panic in a DoWorkers callback
// reaches the caller with its value, as in a serial loop: only once no
// worker is still running, and only when no lower item failed first.
func TestDoWorkersPanicSurfaces(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var running atomic.Int32
		run := func(errAt int) error {
			return DoWorkers(workers, 100, func(_, i int) error {
				running.Add(1)
				defer running.Add(-1)
				time.Sleep(time.Duration(i*7%5) * 100 * time.Microsecond)
				switch i {
				case errAt:
					return fmt.Errorf("work %d", i)
				case 12:
					panic(fmt.Sprintf("panic %d", i))
				}
				return nil
			})
		}
		func() {
			defer func() {
				if v := recover(); v != "panic 12" {
					t.Fatalf("workers=%d: recovered %v, want panic 12", workers, v)
				}
				if r := running.Load(); r != 0 {
					t.Fatalf("workers=%d: %d calls still running after the panic surfaced", workers, r)
				}
			}()
			err := run(30)
			t.Fatalf("workers=%d: DoWorkers returned %v instead of panicking", workers, err)
		}()
		if err := run(9); err == nil || err.Error() != "work 9" {
			t.Fatalf("workers=%d: DoWorkers returned %v, want work 9 from before the panic", workers, err)
		}
	}
}

func TestDoResultsAreOrdered(t *testing.T) {
	const n = 2000
	out := make([]int, n)
	if err := Do(8, n, func(i int) error {
		out[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// fakeWork is a Pipeline run over n items with fake stages: produce
// stores the item in its slot, work squares it after a jittered pause,
// and consume records what arrived. The fail and panic maps make an
// item's stage fail.
type fakeWork struct {
	n          int
	produceErr map[int]bool
	workErr    map[int]bool
	consumeErr map[int]bool
	workPanic  map[int]bool

	items, out []int
	consumed   []int
	running    atomic.Int32 // work calls in progress
	started    atomic.Int32
}

func (f *fakeWork) run(concurrency int) error {
	slots := Workers(concurrency, f.n) + 1
	f.items, f.out = make([]int, slots), make([]int, slots)
	return Pipeline(concurrency, f.n,
		func(slot, i int) error {
			if f.produceErr[i] {
				return fmt.Errorf("produce %d", i)
			}
			f.items[slot] = i
			return nil
		},
		func(_, slot int) error {
			f.running.Add(1)
			defer f.running.Add(-1)
			f.started.Add(1)
			i := f.items[slot]
			time.Sleep(time.Duration(i*7%5) * 100 * time.Microsecond)
			if f.workPanic[i] {
				panic(fmt.Sprintf("panic %d", i))
			}
			if f.workErr[i] {
				return fmt.Errorf("work %d", i)
			}
			f.out[slot] = i * i
			return nil
		},
		func(slot, i int) error {
			if f.items[slot] != i || f.out[slot] != i*i {
				return fmt.Errorf("slot %d holds item %d (%d) when consuming %d", slot, f.items[slot], f.out[slot], i)
			}
			f.consumed = append(f.consumed, i)
			if f.consumeErr[i] {
				return fmt.Errorf("consume %d", i)
			}
			return nil
		})
}

// checkPrefix fails unless exactly items [0, n) were consumed, in order.
func (f *fakeWork) checkPrefix(t *testing.T, n int) {
	t.Helper()
	if len(f.consumed) != n {
		t.Fatalf("consumed %d items, want %d", len(f.consumed), n)
	}
	for k, i := range f.consumed {
		if i != k {
			t.Fatalf("consumed item %d at position %d", i, k)
		}
	}
	if r := f.running.Load(); r != 0 {
		t.Fatalf("%d work calls still running after Pipeline returned", r)
	}
}

func TestPipelineConsumesInOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 5, 0} {
		f := &fakeWork{n: 300}
		if err := f.run(workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		f.checkPrefix(t, 300)
	}
}

func TestPipelineReturnsLowestIndexError(t *testing.T) {
	set := func(i int) map[int]bool { return map[int]bool{i: true} }
	cases := []struct {
		name                                       string
		produceErr, workErr, consumeErr, workPanic map[int]bool
		want                                       string
		ok                                         int // items consumed before the error
	}{
		{"work before produce", set(50), set(30), nil, nil, "work 30", 30},
		{"produce before work", set(30), set(31), nil, nil, "produce 30", 30},
		{"work before consume", nil, set(20), set(21), nil, "work 20", 20},
		{"consume before work", nil, set(21), set(20), nil, "consume 20", 21},
		{"error before panic", nil, set(9), nil, set(10), "work 9", 9},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 3, 0} {
			f := &fakeWork{n: 100, produceErr: c.produceErr, workErr: c.workErr,
				consumeErr: c.consumeErr, workPanic: c.workPanic}
			err := f.run(workers)
			if err == nil || err.Error() != c.want {
				t.Fatalf("%s, workers=%d: err = %v, want %s", c.name, workers, err, c.want)
			}
			f.checkPrefix(t, c.ok)
		}
	}
}

// TestPipelineConsumerErrorStops pins the early stop: after a consume
// error no further item is produced past the window, and Pipeline
// returns only once no work is running or will start.
func TestPipelineConsumerErrorStops(t *testing.T) {
	for _, workers := range []int{2, 4} {
		f := &fakeWork{n: 10000, consumeErr: map[int]bool{10: true}}
		err := f.run(workers)
		if err == nil || err.Error() != "consume 10" {
			t.Fatalf("workers=%d: err = %v, want consume 10", workers, err)
		}
		f.checkPrefix(t, 11)
		started := f.started.Load()
		if limit := int32(11 + workers + 1); started > limit {
			t.Fatalf("workers=%d: %d items worked, window allows %d", workers, started, limit)
		}
		time.Sleep(10 * time.Millisecond)
		if late := f.started.Load(); late != started {
			t.Fatalf("workers=%d: %d work calls started after Pipeline returned", workers, late-started)
		}
	}
}

func TestPipelineWorkerPanicSurfaces(t *testing.T) {
	for _, workers := range []int{1, 3} {
		f := &fakeWork{n: 100, workPanic: map[int]bool{12: true}}
		func() {
			defer func() {
				if v := recover(); v != "panic 12" {
					t.Fatalf("workers=%d: recovered %v, want panic 12", workers, v)
				}
				f.checkPrefix(t, 12)
			}()
			err := f.run(workers)
			t.Fatalf("workers=%d: Pipeline returned %v instead of panicking", workers, err)
		}()
	}
}
