// Command jpackd is the streaming pack/unpack HTTP daemon: it serves
// the classpack pipeline over HTTP with a crash-safe content-addressed
// archive cache (recovered by an fsck sweep at startup), deadline-aware
// admission control with 429 + Retry-After load shedding, singleflight
// coalescing of identical packs, degraded-mode operation on cache-volume
// faults, request-size limits, per-request deadlines, expvar metrics,
// and graceful drain on SIGTERM.
//
// Endpoints:
//
//	POST /pack                        jar in, packed archive out (cached by digest)
//	POST /unpack                      packed archive in, jar out
//	POST /verify[?deep=1]             jar in, per-class verification report out
//	GET  /archive/{digest}            re-serve a previously packed artifact
//	GET  /archive/{digest}?classes=P  subset jar of classes matching pattern P
//	GET  /archive/{digest}/class/{N}  one class file, decoded lazily (v3 archives
//	                                  decode only the chunk containing N, once
//	                                  while the 64 MiB decoded-chunk cache
//	                                  holds it, from an archive opened once
//	                                  while the 64 MiB open-archive cache
//	                                  holds it)
//	GET  /metrics                     expvar counters (JSON)
//	GET  /healthz                     liveness probe: {"status":"ok"|"degraded"}
//
// Usage:
//
//	jpackd [-addr :8750] [-cache DIR|off] [-cache-max BYTES] [-no-fsck]
//	       [-max-request BYTES] [-timeout D] [-drain D] [-jobs N] [-j N]
//	       [-queue N] [-mem-budget BYTES] [-retry-after D] [-probe-interval D]
//	       [-scheme NAME] [-chunk N] [-no-stackstate] [-no-gzip] [-preload]
//	       [-max-decoded-bytes N] [-max-classes N] [-pprof]
//	jpackd -smoke [-smoke-scale F]   # self-check against a synthetic corpus
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"classpack"
	"classpack/internal/castore"
	"classpack/internal/serve"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("jpackd: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("jpackd", flag.ExitOnError)
	var (
		addr       = fs.String("addr", ":8750", "listen address")
		cacheDir   = fs.String("cache", "", "archive cache directory (default: user cache dir; \"off\" disables)")
		cacheMax   = fs.Int64("cache-max", 1<<30, "archive cache size cap in bytes (0 = unlimited)")
		maxReq     = fs.Int64("max-request", serve.DefaultMaxRequestBytes, "request body size cap in bytes")
		timeout    = fs.Duration("timeout", serve.DefaultRequestTimeout, "per-request deadline, including job-queue wait")
		drain      = fs.Duration("drain", serve.DefaultDrainTimeout, "shutdown drain bound for in-flight requests")
		jobs       = fs.Int("jobs", 0, "max concurrent encode jobs (0 = GOMAXPROCS)")
		queue      = fs.Int("queue", 0, "max requests waiting for a job slot before 429 shedding (0 = 4x jobs, negative = no queueing)")
		memBudget  = fs.Int64("mem-budget", 0, "cap on admitted request bytes across job slots; excess sheds 429 (0 = unlimited)")
		retryAfter = fs.Duration("retry-after", serve.DefaultRetryAfterHint, "Retry-After floor on shed responses")
		probeEvery = fs.Duration("probe-interval", serve.DefaultProbeInterval, "recovery probe interval while the cache volume is degraded")
		noFsck     = fs.Bool("no-fsck", false, "skip the startup cache recovery sweep (temp removal + object re-verification)")
		workers    = fs.Int("j", 0, "worker pool per job (0 = all cores)")
		scheme     = fs.String("scheme", "mtf-full", "reference coding scheme")
		chunk      = fs.Int("chunk", 0, "classes per chunk: positive packs the version-3 random-access layout (0 = monolithic version 2)")
		noSS       = fs.Bool("no-stackstate", false, "disable §7.1 stack-state coding")
		noGz       = fs.Bool("no-gzip", false, "disable per-stream DEFLATE")
		preload    = fs.Bool("preload", false, "seed reference pools with the standard table")
		maxDecoded = fs.Int64("max-decoded-bytes", 0, "decoded-size cap per /unpack request (0 = 1 GiB default)")
		maxClasses = fs.Int("max-classes", 0, "class-count cap per /unpack request (0 = 1<<20 default)")
		pprofOn    = fs.Bool("pprof", false, "expose the runtime profiler on GET /debug/pprof/ (trusted operators only)")
		smoke      = fs.Bool("smoke", false, "start on a loopback port, pack a synthetic corpus through the client, check the digest round-trip, and exit")
		smokeScale = fs.Float64("smoke-scale", 0.05, "synthetic corpus scale for -smoke")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := classpack.SchemeByName(*scheme)
	if err != nil {
		return err
	}
	opts := classpack.DefaultOptions()
	opts.Scheme = s
	opts.StackState = !*noSS
	opts.Compress = !*noGz
	opts.Preload = *preload
	opts.ChunkClasses = *chunk
	opts.Concurrency = *workers
	opts.MaxDecodedBytes = *maxDecoded
	opts.MaxClassCount = *maxClasses
	cfg := serve.Config{
		Options:         opts,
		MaxRequestBytes: *maxReq,
		RequestTimeout:  *timeout,
		DrainTimeout:    *drain,
		MaxJobs:         *jobs,
		MaxQueue:        *queue,
		MemoryBudget:    *memBudget,
		RetryAfterHint:  *retryAfter,
		ProbeInterval:   *probeEvery,
		EnablePprof:     *pprofOn,
	}
	if *pprofOn {
		log.Print("pprof endpoints enabled at /debug/pprof/")
	}

	if *smoke {
		return runSmoke(cfg, *smokeScale)
	}

	dir := *cacheDir
	if dir == "" {
		base, err := os.UserCacheDir()
		if err != nil {
			return fmt.Errorf("resolving default cache dir: %w (pass -cache DIR or -cache off)", err)
		}
		dir = filepath.Join(base, "jpackd")
	}
	if dir != "off" {
		st, err := castore.Open(dir, *cacheMax)
		if err != nil {
			return fmt.Errorf("opening cache: %w", err)
		}
		if !*noFsck {
			// Startup recovery: sweep write debris from any earlier crash
			// and re-verify every object, so the daemon never starts on a
			// corrupt cache. The sweep assumes this daemon owns the
			// directory exclusively — -no-fsck for shared-cache setups.
			rep, err := st.Fsck()
			if err != nil {
				return fmt.Errorf("cache recovery sweep: %w", err)
			}
			if rep.TempsRemoved > 0 || rep.CorruptRemoved > 0 {
				log.Printf("cache recovery: removed %d orphaned temp files, %d corrupt objects",
					rep.TempsRemoved, rep.CorruptRemoved)
			}
		}
		cfg.Store = st
		log.Printf("archive cache at %s (%d objects, %d bytes, cap %d)",
			dir, st.Len(), st.Size(), *cacheMax)
	} else {
		log.Print("archive cache disabled")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	log.Printf("listening on %s", ln.Addr())
	start := time.Now()
	if err := serve.New(cfg).Serve(ctx, ln); err != nil {
		return err
	}
	log.Printf("drained and stopped after %v", time.Since(start).Round(time.Second))
	return nil
}
