GO ?= go

.PHONY: build test lint verify bench bench-test digests tables serve-smoke chaos-smoke drill-smoke delta-smoke fuzz-smoke fuzz-corpus fuzz-corpus-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint fails first if gofmt would reformat any tracked Go file, then
# runs go vet plus classpack-vet, the custom nine-analyzer suite:
# the decoder-safety proofs (decodebound, nopanic, corrupterr,
# poolbalance) and the daemon-layer concurrency checks (ctxflow,
# guardedfield, goroutineleak, vfsdirect, balancegen). Any finding
# fails the build; intentional exceptions carry a
# //classpack:vet-allow <analyzer> <reason> comment. -timing prints the
# per-analyzer wall-time table and -budget fails the run if the suite
# (measured in-tool, so go-run compile time is not charged) exceeds
# 30s — the lint gate must stay cheap enough for a pre-push hook.
lint:
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/classpack-vet -timing -budget 30s ./...

# verify is the full hygiene gate: lint (go vet + classpack-vet) and
# delta-smoke, compile everything, then run the whole suite under the
# race detector.
# Expected clean — the parallel pack/unpack pipeline and the bench
# corpus cache are race-stress-tested. The service and cache layers get
# an explicit second race pass: their retry/eviction paths are the most
# concurrency-sensitive in the tree. The unpack pipeline, which builds
# classes on workers while the decoder reads ahead, gets ten: its
# ordering, error and panic paths depend on scheduling, and so does
# how DoWorkers raises a worker's panic on its caller. So does pack,
# which codes the reference pools on workers after its class walk, and
# DEFLATEs each stream past 64 KiB on a coder goroutine while the walk
# still writes it.
verify: lint delta-smoke
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -race -count=1 ./internal/serve/... ./internal/castore/...
	$(GO) test -race -count=10 -run '^(TestPipeline|TestDoWorkersPanicSurfaces)' ./internal/par
	$(GO) test -race -count=10 -run '^(TestMutantOutcomesMatchAcrossWorkers|FuzzUnpackStream|TestPackDeterministicAcrossConcurrency|TestPackStatsDeterministicAcrossConcurrency|TestPackParallelErrorMatchesSerial)$$' .
	$(GO) test -race -count=10 -run '^(TestLargeStreamsCodeAsWhole|TestCoderLifecycle|TestCoderGetsCopies|TestNoCoderOutlivesPack)$$' ./internal/streams ./internal/core

# bench runs the throughput benchmarks that track the parallel
# pipeline's speedup (MB/s at -j 1 vs -j NumCPU): pack, unpack, and
# unpack to a jar (which adds the per-member DEFLATE); then the
# class-file reader and writer alone, over tools as distributed and
# stripped (BenchmarkParseWrite).
bench:
	$(GO) test -run=NONE -bench='^Benchmark((Pack|Unpack|UnpackToJar)Throughput|ParseWrite)$$' -benchmem .

# bench-test runs the tests of cmd/classpack-bench, the repository's
# benchmark, which is a Go module of its own and so outside ./...: every
# workload end to end at scale 0.05 (~7s). It catches an API change that
# breaks the benchmark before the benchmark itself is run.
bench-test:
	cd cmd/classpack-bench && $(GO) test ./...

# serve-smoke boots a real jpackd on a loopback port, packs a synthetic
# corpus through the HTTP client twice, and checks the cache hit and the
# digest round-trip (GET /archive/{digest} must unpack cleanly).
serve-smoke:
	$(GO) run ./cmd/jpackd -smoke

# chaos-smoke runs the fault-injection matrix in short mode: every fault
# class against every archive section on a >= 50-class corpus, asserting
# detection, byte-identical-prefix salvage, and balanced accounting.
chaos-smoke:
	$(GO) test -short -count=1 -run '^TestChaos' .

# drill-smoke runs the process-level fault drills: a simulated kill -9
# at every filesystem operation of a cache write (restart + Fsck must
# recover byte-identical objects and zero debris), disk-full degraded
# operation and auto-recovery, a 100-request thundering herd coalescing
# onto one encode, a panicking encode retiring its flight, overload
# shedding with 429 + Retry-After, and SIGTERM drain under load.
drill-smoke:
	$(GO) test -count=1 -run '^TestCrashDrill|^TestFsckSweeps|^TestPutDiskFull' ./internal/castore
	$(GO) test -count=1 -run '^TestDrill' ./internal/serve

# delta-smoke drives the end-to-end patch workflow through the jpack
# CLI: pack two synthetic versions of a corpus, diff them, apply the
# patch, byte-compare the rebuilt archive, and require the patch to stay
# under 25% of the full archive at a 5% class-change rate.
delta-smoke:
	$(GO) test -count=1 -run '^TestDeltaSmoke$$' ./cmd/jpack

# fuzz-smoke gives each native fuzz harness a short budget on top of the
# checked-in seed corpora — enough to catch regressions in the
# panic-free-decoding guarantee without dominating CI time. The go tool
# accepts one -fuzz pattern per invocation, hence one line per target.
# By default the go tool spends up to 60s minimizing each input that
# widens coverage, which would eat the whole budget (a 10s run then
# executes a few dozen inputs), so minimization is cut to one run;
# a failing input is still written under testdata/fuzz.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run=NONE -fuzz='^FuzzUnpack$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x .
	$(GO) test -run=NONE -fuzz='^FuzzPack$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x .
	$(GO) test -run=NONE -fuzz='^FuzzUnpackStream$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x .
	$(GO) test -run=NONE -fuzz='^FuzzSalvage$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x .
	$(GO) test -run=NONE -fuzz='^FuzzChunkIndex$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x .
	$(GO) test -run=NONE -fuzz='^FuzzDelta$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x .
	$(GO) test -run=NONE -fuzz='^FuzzStreamsReader$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/streams
	$(GO) test -run=NONE -fuzz='^FuzzJazzDecode$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/jazz
	$(GO) test -run=NONE -fuzz='^FuzzCustomDecode$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/custom
	$(GO) test -run=NONE -fuzz='^FuzzReadClassFile$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/classfile

# fuzz-corpus regenerates the checked-in seed corpora under testdata/fuzz
# from internal/synth packs (run after wire-format changes).
fuzz-corpus:
	$(GO) run ./cmd/fuzzcorpus

# fuzz-corpus-check regenerates the seed corpora and fails if git then
# lists any change under a testdata/fuzz directory: the corpora must
# regenerate byte-identically. It catches a nondeterministic generator
# and a wire-format change whose seeds were not regenerated.
fuzz-corpus-check: fuzz-corpus
	@changed=$$(git status --porcelain | grep 'testdata/fuzz/'); \
	if [ -n "$$changed" ]; then echo "fuzz-corpus changed the checked-in seeds:"; echo "$$changed"; exit 1; fi

# digests prints the byte-identity digest set (TestDigestSet, behind the
# digests build tag): the SHA-256 of Pack, UnpackToJarOpts and PackStats
# for 7 corpora x 12 configurations x -j 1 and 2, 168 lines in about two
# minutes on 2 cores. A change that claims unchanged bytes runs it at its
# parent and at itself and shows that the outputs do not differ. On
# failure it prints the whole test output.
digests:
	@out=$$($(GO) test -tags digests -count=1 -timeout 30m -run '^TestDigestSet$$' -v .) || { echo "$$out"; exit 1; }; \
	echo "$$out" | grep '^digest '

# tables regenerates the paper's Tables 1-8 and Figure 2.
tables:
	$(GO) run ./cmd/benchtables
