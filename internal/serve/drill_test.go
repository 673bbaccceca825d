package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"classpack"
	"classpack/internal/archive"
	"classpack/internal/castore"
	"classpack/internal/faultinject"
	"classpack/internal/serve/client"
)

// startDrillServer is startServer plus the base URL, for drills that
// need raw HTTP requests (no client retry machinery in the way).
func startDrillServer(t *testing.T, cfg Config) (*Server, string, context.CancelFunc) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return s, "http://" + ln.Addr().String(), cancel
}

// distinctJar returns a valid jar whose content differs per i, so packs
// of different i never share a digest (no coalescing, no cache hits).
func distinctJar(t *testing.T, base []byte, i int) []byte {
	t.Helper()
	members, err := archive.ReadJar(base)
	if err != nil {
		t.Fatal(err)
	}
	for m := range members {
		if members[m].Name == "META-INF/app.properties" {
			members[m].Data = []byte(fmt.Sprintf("k=%d\n", i))
		}
	}
	jar, err := archive.WriteJar(members)
	if err != nil {
		t.Fatal(err)
	}
	return jar
}

// healthzStatus fetches GET /healthz and returns the reported status.
func healthzStatus(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer resp.Body.Close()
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	return body.Status
}

// TestDrillHerdCoalesces is the thundering-herd drill: 100 concurrent
// identical /pack requests must cost exactly one encode — one leader
// holding the single job slot, 99 followers served from its result.
func TestDrillHerdCoalesces(t *testing.T) {
	const herd = 100
	jar, _ := testJar(t)
	gate := make(chan struct{})
	started := make(chan struct{})
	once := false
	var mu sync.Mutex
	cfg := Config{
		MaxJobs: 1,
		Store:   newStore(t),
		packStarted: func() {
			mu.Lock()
			first := !once
			once = true
			mu.Unlock()
			if first {
				close(started)
				<-gate
			}
		},
	}
	s, c, _ := startServer(t, cfg)
	digest := s.cacheKey(jar)

	type outcome struct {
		res *client.PackResult
		err error
	}
	results := make(chan outcome, herd)
	for i := 0; i < herd; i++ {
		go func() {
			res, err := c.Pack(context.Background(), jar)
			results <- outcome{res, err}
		}()
	}
	<-started

	// Deterministic release: every follower is parked on the leader's
	// flight before the encode is allowed to finish.
	deadline := time.Now().Add(10 * time.Second)
	for s.flight.waiting(digest) != herd-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers coalesced before deadline", s.flight.waiting(digest), herd-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)

	counts := map[string]int{}
	var packed []byte
	for i := 0; i < herd; i++ {
		o := <-results
		if o.err != nil {
			t.Fatalf("herd pack: %v", o.err)
		}
		counts[o.res.Cache]++
		if packed == nil {
			packed = o.res.Packed
		} else if !bytes.Equal(packed, o.res.Packed) {
			t.Fatal("herd responses are not byte-identical")
		}
	}
	if counts["miss"] != 1 || counts["coalesced"] != herd-1 {
		t.Fatalf("cache outcomes = %v, want 1 miss + %d coalesced", counts, herd-1)
	}
	if got := s.metrics.Encodes.Value(); got != 1 {
		t.Fatalf("encodes_total = %d after herd of %d, want exactly 1", got, herd)
	}
	if got := s.metrics.Coalesced.Value(); got != herd-1 {
		t.Fatalf("coalesced_total = %d, want %d", got, herd-1)
	}

	// The flight retired and the leader's result was cached: the next
	// identical pack is an ordinary cache hit.
	res, err := c.Pack(context.Background(), jar)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache != "hit" {
		t.Fatalf("post-herd pack cache = %q, want hit", res.Cache)
	}
}

// TestDrillPanickedEncodeRetiresFlight is the panicking-leader drill: a
// leader whose encode panics must still retire its flight, so the
// follower coalesced behind it gets a prompt internal error instead of
// waiting out its deadline, and the next identical pack encodes afresh.
// The leader itself gets the same prompt 500 internal, counted in
// errors_total, instead of a dropped connection.
func TestDrillPanickedEncodeRetiresFlight(t *testing.T) {
	const timeout = 5 * time.Second
	jar, _ := testJar(t)
	gate := make(chan struct{})
	started := make(chan struct{})
	var calls atomic.Int32
	cfg := Config{
		MaxJobs:        1,
		RequestTimeout: timeout,
		packStarted: func() {
			if calls.Add(1) == 1 {
				close(started)
				<-gate
				panic("drill: encode panicked")
			}
		},
	}
	s, base, _ := startDrillServer(t, cfg)
	digest := s.cacheKey(jar)

	type outcome struct {
		status  int
		code    string
		elapsed time.Duration
		err     error
	}
	post := func(out chan<- outcome) {
		start := time.Now()
		resp, err := http.Post(base+"/pack", "application/octet-stream", bytes.NewReader(jar))
		if err != nil {
			out <- outcome{err: err}
			return
		}
		defer resp.Body.Close()
		var envelope struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&envelope)
		out <- outcome{status: resp.StatusCode, code: envelope.Error.Code, elapsed: time.Since(start)}
	}
	leader, follower := make(chan outcome, 1), make(chan outcome, 1)
	go post(leader)
	<-started
	go post(follower)
	deadline := time.Now().Add(10 * time.Second)
	for s.flight.waiting(digest) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the follower never coalesced onto the leader's flight")
		}
		time.Sleep(time.Millisecond)
	}
	errorsBefore := s.Metrics().Errors.Value()
	close(gate)

	for _, who := range []struct {
		name string
		out  chan outcome
	}{{"follower", follower}, {"leader", leader}} {
		o := <-who.out
		if o.err != nil {
			t.Fatalf("%s: %v", who.name, o.err)
		}
		if o.status != http.StatusInternalServerError || o.code != "internal" || o.elapsed >= timeout {
			t.Fatalf("%s got %d %q after %v, want a prompt 500 internal", who.name, o.status, o.code, o.elapsed)
		}
	}
	if n := s.Metrics().Errors.Value() - errorsBefore; n != 2 {
		t.Fatalf("errors_total rose by %d, want 2: the leader's and the follower's", n)
	}
	if n := s.flight.waiting(digest); n != 0 {
		t.Fatalf("%d followers still waiting on the retired flight", n)
	}
	if status, _, code := rawPack(t, base, jar); status != http.StatusOK {
		t.Fatalf("pack after the panic: %d %q, want 200", status, code)
	}
}

// TestDrillClientDoesNotRetryPanickedEncode packs through the Go client,
// with its default retry policy, against an encode that always panics.
// The 500 "internal" it gets reports a fault that a replay meets again,
// so the client makes one attempt and the server runs one encode.
func TestDrillClientDoesNotRetryPanickedEncode(t *testing.T) {
	jar, _ := testJar(t)
	var encodes atomic.Int32
	cfg := Config{
		MaxJobs:        1,
		RequestTimeout: 5 * time.Second,
		packStarted: func() {
			encodes.Add(1)
			panic("drill: encode panicked")
		},
	}
	_, base, _ := startDrillServer(t, cfg)
	rt := &countingTransport{}
	_, err := client.New(base, &http.Client{Transport: rt}).Pack(context.Background(), jar)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError || apiErr.Code != "internal" {
		t.Fatalf("Pack: %v, want a 500 internal", err)
	}
	if a, e := rt.attempts.Load(), encodes.Load(); a != 1 || e != 1 {
		t.Fatalf("one Pack made %d attempts and ran %d encodes, want 1 and 1", a, e)
	}
}

// countingTransport counts the requests it sends.
type countingTransport struct{ attempts atomic.Int32 }

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.attempts.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// rawPack posts a jar without client retry machinery and returns the
// response status, Retry-After header, and decoded error code (if any).
func rawPack(t *testing.T, base string, jar []byte) (status int, retryAfter string, code string) {
	t.Helper()
	resp, err := http.Post(base+"/pack", "application/octet-stream", bytes.NewReader(jar))
	if err != nil {
		t.Fatalf("raw pack: %v", err)
	}
	defer resp.Body.Close()
	var envelope struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	body, _ := io.ReadAll(resp.Body)
	json.Unmarshal(body, &envelope)
	return resp.StatusCode, resp.Header.Get("Retry-After"), envelope.Error.Code
}

// TestDrillOverloadSheds429 is the overload drill: with the single job
// slot held and the queue full, further requests are refused immediately
// with 429 + Retry-After instead of piling up.
func TestDrillOverloadSheds429(t *testing.T) {
	jar, _ := testJar(t)
	gate := make(chan struct{})
	started := make(chan struct{})
	once := false
	var mu sync.Mutex
	cfg := Config{
		MaxJobs:  1,
		MaxQueue: 2,
		packStarted: func() {
			mu.Lock()
			first := !once
			once = true
			mu.Unlock()
			if first {
				close(started)
				<-gate
			}
		},
	}
	s, base, _ := startDrillServer(t, cfg)
	c := client.New(base, nil)

	errs := make(chan error, 3)
	go func() { _, err := c.Pack(context.Background(), jar); errs <- err }()
	<-started
	for i := 1; i <= 2; i++ {
		queued := distinctJar(t, jar, i)
		go func() { _, err := c.Pack(context.Background(), queued); errs <- err }()
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.adm.waiters.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth = %d, want 2", s.adm.waiters.Load())
		}
		time.Sleep(time.Millisecond)
	}

	// Slot busy, queue full: the next arrival must be shed, not queued.
	status, retryAfter, code := rawPack(t, base, distinctJar(t, jar, 3))
	if status != http.StatusTooManyRequests || code != "overloaded" {
		t.Fatalf("shed response = %d/%q, want 429/overloaded", status, code)
	}
	if retryAfter == "" || retryAfter == "0" {
		t.Fatalf("Retry-After = %q, want a positive seconds hint", retryAfter)
	}
	if got := s.metrics.Shed.Value(); got < 1 {
		t.Fatalf("shed_total = %d, want >= 1", got)
	}

	close(gate)
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("admitted/queued pack failed after release: %v", err)
		}
	}
}

// TestDrillMemoryBudgetSheds: request bytes beyond the admission memory
// budget are shed even when job slots are free.
func TestDrillMemoryBudgetSheds(t *testing.T) {
	jar, _ := testJar(t)
	gate := make(chan struct{})
	started := make(chan struct{})
	once := false
	var mu sync.Mutex
	cfg := Config{
		MaxJobs:      4,
		MemoryBudget: int64(len(jar)) + 1, // one jar fits; two never do
		packStarted: func() {
			mu.Lock()
			first := !once
			once = true
			mu.Unlock()
			if first {
				close(started)
				<-gate
			}
		},
	}
	s, base, _ := startDrillServer(t, cfg)
	c := client.New(base, nil)

	done := make(chan error, 1)
	go func() { _, err := c.Pack(context.Background(), jar); done <- err }()
	<-started

	status, _, code := rawPack(t, base, distinctJar(t, jar, 1))
	if status != http.StatusTooManyRequests || code != "overloaded" {
		t.Fatalf("over-budget response = %d/%q, want 429/overloaded", status, code)
	}
	if got := s.metrics.MemInflight.Value(); got != int64(len(jar)) {
		t.Fatalf("mem_inflight_bytes = %d, want %d", got, len(jar))
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("in-budget pack: %v", err)
	}
	// Budget released: the same oversize-relative-to-remaining request is
	// admitted now that nothing is in flight.
	if _, err := c.Pack(context.Background(), distinctJar(t, jar, 1)); err != nil {
		t.Fatalf("pack after budget release: %v", err)
	}
}

// TestDrillDiskFullDegradesAndRecovers is the disk-fault drill: a full
// cache volume must not fail requests — the server flips to degraded
// (encode and serve, skip caching), reports it in /healthz and metrics,
// and recovers by itself once the volume heals.
func TestDrillDiskFullDegradesAndRecovers(t *testing.T) {
	jar, _ := testJar(t)
	cfs := faultinject.NewCrashFS()
	st, err := castore.OpenFS(t.TempDir(), 0, cfs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Store:         st,
		ProbeInterval: time.Millisecond,
	}
	s, base, _ := startDrillServer(t, cfg)
	c := client.New(base, nil)
	ctx := context.Background()

	if got := healthzStatus(t, base); got != "ok" {
		t.Fatalf("healthz before fault = %q, want ok", got)
	}

	// The disk fills. The next pack must still succeed — the cache write
	// fails and flips degraded mode.
	cfs.SetWriteError(syscall.ENOSPC)
	if _, err := c.Pack(ctx, jar); err != nil {
		t.Fatalf("pack on full disk: %v", err)
	}
	if !s.deg.active() || s.metrics.Degraded.Value() != 1 {
		t.Fatal("server not degraded after ENOSPC cache write")
	}
	if got := healthzStatus(t, base); got != "degraded" {
		t.Fatalf("healthz during fault = %q, want degraded", got)
	}

	// Degraded service keeps working: encodes succeed, cache writes are
	// bypassed rather than retried against the sick disk.
	other := distinctJar(t, jar, 1)
	if _, err := c.Pack(ctx, other); err != nil {
		t.Fatalf("pack while degraded: %v", err)
	}
	if got := s.metrics.CacheBypass.Value(); got < 1 {
		t.Fatalf("cache_bypass_total = %d, want >= 1", got)
	}

	// The disk heals: healthz visits double as recovery probes.
	cfs.SetWriteError(nil)
	deadline := time.Now().Add(10 * time.Second)
	for healthzStatus(t, base) != "ok" {
		if time.Now().After(deadline) {
			t.Fatal("server still degraded after the volume recovered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s.metrics.Degraded.Value() != 0 || s.metrics.DegradedTotal.Value() != 1 {
		t.Fatalf("degraded=%d degraded_total=%d after recovery, want 0/1",
			s.metrics.Degraded.Value(), s.metrics.DegradedTotal.Value())
	}

	// Caching resumed: pack, then pack again and observe the hit.
	if _, err := c.Pack(ctx, other); err != nil {
		t.Fatal(err)
	}
	res, err := c.Pack(ctx, other)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache != "hit" {
		t.Fatalf("post-recovery pack cache = %q, want hit — caching did not resume", res.Cache)
	}
}

// TestDrillDrainUnderLoad is the shutdown drill: SIGTERM with a request
// mid-encode and others queued must finish the admitted request (full
// body delivered) and shed the queued ones with 503, never dropping a
// connection mid-response.
func TestDrillDrainUnderLoad(t *testing.T) {
	jar, _ := testJar(t)
	gate := make(chan struct{})
	started := make(chan struct{})
	once := false
	var mu sync.Mutex
	cfg := Config{
		MaxJobs:      1,
		MaxQueue:     4,
		DrainTimeout: 30 * time.Second,
		packStarted: func() {
			mu.Lock()
			first := !once
			once = true
			mu.Unlock()
			if first {
				close(started)
				<-gate
			}
		},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(cfg)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	admitted := client.New(base, nil)
	admittedDone := make(chan error, 1)
	var admittedRes *client.PackResult
	go func() {
		res, err := admitted.Pack(context.Background(), jar)
		admittedRes = res
		admittedDone <- err
	}()
	<-started

	// Two more requests queue behind the held slot. Their clients must
	// not retry: the shed 503 is the assertion.
	queuedDone := make(chan error, 2)
	for i := 1; i <= 2; i++ {
		queued := distinctJar(t, jar, i)
		qc := client.NewRetry(base, nil, client.RetryPolicy{MaxAttempts: 1})
		go func() { _, err := qc.Pack(context.Background(), queued); queuedDone <- err }()
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.adm.waiters.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth = %d, want 2", s.adm.waiters.Load())
		}
		time.Sleep(time.Millisecond)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// The queued requests are woken and shed promptly — the drain window
	// belongs to admitted work.
	for i := 0; i < 2; i++ {
		select {
		case err := <-queuedDone:
			var apiErr *client.APIError
			if !errors.As(err, &apiErr) || apiErr.Status != 503 || apiErr.Code != "draining" {
				t.Fatalf("queued pack during drain: %v, want 503/draining", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("queued request not shed within 10s of SIGTERM")
		}
	}

	// The admitted request, released mid-drain, completes with a full,
	// valid body.
	close(gate)
	if err := <-admittedDone; err != nil {
		t.Fatalf("admitted pack failed during drain: %v", err)
	}
	if _, err := classpack.Unpack(admittedRes.Packed); err != nil {
		t.Fatalf("body delivered during drain does not unpack: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve after drain: %v", err)
	}
}
