package main

import (
	"bytes"
	"compress/flate"
	"context"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The machines this benchmark runs on are shared. Measured on a 2-core
// cloud container, the codec's speed drifted by up to a quarter from
// one minute to the next while pure arithmetic and memory latency held
// within 3%: the drift tracks cache-heavy work. DEFLATE compression,
// which the codec also runs per stream, tracks it closely. So while a
// window runs, a probe goroutine times a small fixed DEFLATE kernel
// from the standard library every probeEvery, and the run reports every
// time at the speed where that kernel takes calibRef. The probe counts
// its own thread's CPU time, not wall time, so that the benchmark's own
// load, which takes turns with it on the cores, does not slow it; the
// machine's drift does. The kernel does not depend on this repository's
// code, so it calibrates both sides of a comparison alike.

// calibRef is the kernel CPU time that normalized times are quoted at,
// close to its median on the 2-core reference machine at a quiet time.
const calibRef = 13 * time.Millisecond

// probeEvery is the pause between two kernel runs.
const probeEvery = 200 * time.Millisecond

// calibText is 256 KiB of seeded text made of class-file-like words.
func calibText() []byte {
	words := []string{"class", "java/lang/Object", "method", "field", "<init>", "()V",
		"Ljava/lang/String;", "code", "int", "java/util/Vector", "(I)Ljava/lang/Object;"}
	rng := rand.New(rand.NewSource(1))
	var b bytes.Buffer
	for b.Len() < 256<<10 {
		b.WriteString(words[rng.Intn(len(words))])
		b.WriteByte(" \n;"[rng.Intn(3)])
	}
	return b.Bytes()[:256<<10]
}

// kernel returns the CPU time one DEFLATE compression of text takes on
// the calling goroutine's thread, which must be locked to it.
func kernel(text []byte, out *bytes.Buffer) time.Duration {
	out.Reset()
	start := threadCPU()
	// DefaultCompression is a valid level, so NewWriter cannot fail.
	w, _ := flate.NewWriter(out, flate.DefaultCompression)
	w.Write(text)
	w.Close()
	return threadCPU() - start
}

// threadCPU is the CPU time the calling thread has used.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_THREAD cannot fail for the calling thread.
	syscall.Getrusage(syscall.RUSAGE_THREAD, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// probe times the kernel every probeEvery until stopped.
type probe struct {
	cancel  context.CancelFunc
	done    chan struct{}
	samples []time.Duration // written by the probe goroutine until done closes
}

func startProbe() *probe {
	ctx, cancel := context.WithCancel(context.Background())
	p := &probe{cancel: cancel, done: make(chan struct{})}
	text := calibText()
	go func() {
		defer close(p.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		var out bytes.Buffer
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			p.samples = append(p.samples, kernel(text, &out))
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// stop ends the probe and returns its kernel times.
func (p *probe) stop() []time.Duration {
	p.cancel()
	<-p.done
	return p.samples
}

// speedFactor is calibRef over the median kernel time: below 1 when the
// machine ran slow, so that raw times × speedFactor are the times at the
// reference speed.
func speedFactor(kernel []time.Duration) float64 {
	ms := make([]float64, len(kernel))
	for i, d := range kernel {
		ms[i] = float64(d)
	}
	sort.Float64s(ms)
	return ratio(float64(calibRef), percentile(ms, 0.5))
}

// sampler calls read ten times a second until stopped and averages
// the values it returned.
type sampler struct {
	cancel  context.CancelFunc
	done    chan struct{}
	samples []float64 // written by the sampling goroutine until done closes
}

func startSampler(ctx context.Context, read func(ctx context.Context) (float64, bool)) *sampler {
	ctx, cancel := context.WithCancel(ctx)
	s := &sampler{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if v, ok := read(ctx); ok {
				s.samples = append(s.samples, v)
			}
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the mean.
func (s *sampler) stop() float64 {
	s.cancel()
	<-s.done
	var sum float64
	for _, v := range s.samples {
		sum += v
	}
	return ratio(sum, float64(len(s.samples)))
}

// startRSSSampler samples a process's resident set in MiB.
func startRSSSampler(pid int) *sampler {
	path := "/proc/" + strconv.Itoa(pid) + "/status"
	return startSampler(context.Background(), func(context.Context) (float64, bool) {
		kb, ok := vmRSS(path)
		return kb / 1024, ok
	})
}

// vmRSS reads the VmRSS line of a /proc/<pid>/status file, in KiB.
func vmRSS(path string) (float64, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb, err == nil
		}
	}
	return 0, false
}
