// Package client is the Go client for jpackd (internal/serve): it
// uploads jars for packing, downloads packed archives back into jars
// (including salvage mode for damaged archives), runs remote
// verification, and fetches cached artifacts by digest. Transient
// failures — connection errors, 5xx responses, and 429 load shedding —
// are retried with capped, jittered exponential backoff (see
// RetryPolicy), honoring the server's Retry-After hint when it asks for
// a longer wait; jpackd requests are idempotent, so replays are safe.
// A 500 with error code "internal" is not retried: it reports a fault
// in the server's own work on the request (a panicking encode, a failed
// cache read or jar rebuild), which a replay would meet again.
// The jpack "remote" subcommand is built on it.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// APIError is a structured error returned by the server's JSON error
// envelope.
type APIError struct {
	Status  int    // HTTP status code
	Code    string // stable machine-readable code, e.g. "too_large"
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("jpackd: %s (%s, HTTP %d)", e.Message, e.Code, e.Status)
}

// RetryPolicy bounds the client's automatic retries. Every jpackd
// request is idempotent — the server is a pure function of the request
// body (with a cache in front) — so retrying is always safe; the policy
// only decides how hard to try. Zero fields take the defaults noted on
// each field.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first
	// (0 = 3; 1 disables retries).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (0 = 50ms); each
	// further retry doubles it.
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth (0 = 2s).
	MaxDelay time.Duration
	// MaxRetryAfter caps how long a server-sent Retry-After header can
	// stretch one wait beyond the computed backoff (0 = 30s). A shed or
	// draining server knows its own recovery horizon better than the
	// client's schedule does, so its hint is honored verbatim up to
	// this bound — without jitter, which the test pins.
	MaxRetryAfter time.Duration
}

// withDefaults fills zero fields.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.MaxRetryAfter <= 0 {
		p.MaxRetryAfter = 30 * time.Second
	}
	return p
}

// delay returns the jittered backoff before retry number retry (1-based):
// exponential growth capped at MaxDelay, then "equal jitter" — half
// fixed, half uniformly random — so synchronized clients spread out.
func (p RetryPolicy) delay(retry int, intn func(int64) int64) time.Duration {
	d := p.BaseDelay << (retry - 1)
	if d > p.MaxDelay || d <= 0 { // <= 0 guards shift overflow
		d = p.MaxDelay
	}
	half := int64(d) / 2
	if half <= 0 {
		return d
	}
	return time.Duration(half + intn(half))
}

// Client talks to one jpackd server. The zero value is not usable;
// call New or NewRetry.
type Client struct {
	base  string
	hc    *http.Client
	retry RetryPolicy
	intn  func(int64) int64 // jitter source; rand.Int63n outside tests
	sleep func(ctx context.Context, d time.Duration) error
}

// New returns a client for the server at base (e.g.
// "http://127.0.0.1:8750"). httpClient may be nil for
// http.DefaultClient; deadlines come from the per-call context. The
// default RetryPolicy applies; use NewRetry to change or disable it.
func New(base string, httpClient *http.Client) *Client {
	return NewRetry(base, httpClient, RetryPolicy{})
}

// NewRetry is New with an explicit retry policy.
func NewRetry(base string, httpClient *http.Client, policy RetryPolicy) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{
		base:  strings.TrimRight(base, "/"),
		hc:    httpClient,
		retry: policy.withDefaults(),
		intn:  rand.Int63n,
		sleep: sleepCtx,
	}
}

// sleepCtx waits for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// do sends req with retries per the client's policy. Transport errors,
// 5xx responses other than a 500 "internal", and 429 load shedding are
// retried with capped, jittered exponential backoff; when the server
// sends Retry-After with a longer wait than the backoff, the server's
// hint wins (capped at MaxRetryAfter). Context cancellation and
// deadline expiry stop retrying immediately, both between attempts and
// mid-backoff. The final attempt's response or error is returned as-is.
func (c *Client) do(req *http.Request) (*http.Response, error) {
	for attempt := 1; ; attempt++ {
		resp, err := c.hc.Do(req)
		retryable := false
		retryAfter := time.Duration(0)
		if err != nil {
			// A transport failure with a live context (connection refused,
			// reset, injected fault) is worth retrying; one caused by the
			// caller's context is not.
			retryable = req.Context().Err() == nil
		} else if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
			retryable = !internalError(resp)
			retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
		}
		if !retryable || attempt >= c.retry.MaxAttempts {
			return resp, err
		}
		if resp != nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
			resp.Body.Close()
		}
		wait := c.retry.delay(attempt, c.intn)
		if ra := min(retryAfter, c.retry.MaxRetryAfter); ra > wait {
			wait = ra
		}
		if serr := c.sleep(req.Context(), wait); serr != nil {
			if err == nil {
				err = fmt.Errorf("jpackd: giving up after HTTP %d: %w", resp.StatusCode, serr)
			}
			return nil, err
		}
		if req.GetBody != nil {
			body, berr := req.GetBody()
			if berr != nil {
				return nil, berr
			}
			req.Body = body
		}
	}
}

// parseRetryAfter reads a Retry-After header value in either RFC 9110
// form — delay seconds or an HTTP-date — returning 0 for absent,
// malformed, or already-elapsed values.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs <= 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// PackResult is what POST /pack returns.
type PackResult struct {
	Packed  []byte   // the packed archive
	Digest  string   // content digest; usable with Archive
	Cache   string   // "hit" or "miss"
	Skipped []string // non-class jar members (reported on misses only)
}

// Pack uploads a jar and returns the packed archive.
func (c *Client) Pack(ctx context.Context, jar []byte) (*PackResult, error) {
	resp, err := c.post(ctx, "/pack", jar)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	packed, err := c.payload(resp)
	if err != nil {
		return nil, err
	}
	res := &PackResult{
		Packed: packed,
		Digest: resp.Header.Get("X-Jpackd-Digest"),
		Cache:  resp.Header.Get("X-Jpackd-Cache"),
	}
	if raw := resp.Header.Get("X-Jpackd-Skipped"); raw != "" {
		if err := json.Unmarshal([]byte(raw), &res.Skipped); err != nil {
			return nil, fmt.Errorf("jpackd: malformed skipped header: %w", err)
		}
	}
	return res, nil
}

// Unpack uploads a packed archive and returns the rebuilt jar.
func (c *Client) Unpack(ctx context.Context, packed []byte) ([]byte, error) {
	resp, err := c.post(ctx, "/unpack", packed)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return c.payload(resp)
}

// DamageRegion mirrors one entry of the server's salvage damage report.
type DamageRegion struct {
	Stream      string `json:"stream"`
	Offset      int64  `json:"offset"`
	Cause       string `json:"cause"`
	ClassesLost int    `json:"classes_lost"`
}

// SalvageResult mirrors the server's POST /unpack?salvage=1 response:
// accounting, damage report, and the jar of recovered classes. Partial
// reports when the server answered 206 Partial Content (classes lost or
// damage found).
type SalvageResult struct {
	Total     int            `json:"total"`
	Recovered int            `json:"recovered"`
	Lost      int            `json:"lost"`
	Damage    []DamageRegion `json:"damage"`
	Jar       []byte         `json:"jar"`
	Partial   bool           `json:"-"`
}

// UnpackSalvage uploads a (possibly damaged) packed archive and returns
// whatever the server could recover plus its damage report. Damage is
// reported in the result, not as an error; err is non-nil only for
// transport failures or inputs the server rejected outright.
func (c *Client) UnpackSalvage(ctx context.Context, packed []byte) (*SalvageResult, error) {
	resp, err := c.post(ctx, "/unpack?salvage=1", packed)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusPartialContent {
		return nil, c.apiError(resp)
	}
	var res SalvageResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return nil, fmt.Errorf("jpackd: decoding salvage response: %w", err)
	}
	res.Partial = resp.StatusCode == http.StatusPartialContent
	return &res, nil
}

// VerifyResult mirrors the server's POST /verify response body.
type VerifyResult struct {
	Classes int `json:"classes"`
	Skipped int `json:"skipped"`
	Invalid []struct {
		Name  string `json:"name"`
		Error string `json:"error"`
	} `json:"invalid"`

	// Bytecode mode only (VerifyBytecode): per-method verdicts.
	Methods  int             `json:"methods"`
	Verdicts []MethodVerdict `json:"verdicts"`
}

// MethodVerdict mirrors one per-method entry of a ?bytecode=1 verify
// response.
type MethodVerdict struct {
	Name   string `json:"name"`
	Class  string `json:"class"`
	Method string `json:"method"`
	Desc   string `json:"desc"`
	OK     bool   `json:"ok"`
	PC     int    `json:"pc"`
	Op     string `json:"op"`
	Error  string `json:"error"`
}

// Verify uploads a jar for structural verification of its classes.
// Invalid classes are reported in the result, not as an error; err is
// non-nil only for transport or request failures.
func (c *Client) Verify(ctx context.Context, jar []byte, deep bool) (*VerifyResult, error) {
	path := "/verify"
	if deep {
		path += "?deep=1"
	}
	return c.verify(ctx, path, jar)
}

// VerifyBytecode uploads a jar for per-method dataflow bytecode
// verification; the result carries one verdict per method.
func (c *Client) VerifyBytecode(ctx context.Context, jar []byte) (*VerifyResult, error) {
	return c.verify(ctx, "/verify?bytecode=1", jar)
}

func (c *Client) verify(ctx context.Context, path string, jar []byte) (*VerifyResult, error) {
	resp, err := c.post(ctx, path, jar)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// 422 with a verify body is a successful call reporting invalid
	// classes; anything else non-2xx is an API error.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusUnprocessableEntity {
		return nil, c.apiError(resp)
	}
	var res VerifyResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return nil, fmt.Errorf("jpackd: decoding verify response: %w", err)
	}
	return &res, nil
}

// Archive fetches a previously packed artifact by its content digest.
func (c *Client) Archive(ctx context.Context, digest string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/archive/"+digest, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return c.payload(resp)
}

// ArchiveClass fetches one class file from a cached archive by name
// (".class" suffix optional). On version-3 archives the server decodes
// only the chunk containing the class.
func (c *Client) ArchiveClass(ctx context.Context, digest, name string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/archive/"+digest+"/class/"+name, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return c.payload(resp)
}

// ArchiveClasses fetches a subset jar from a cached archive: every
// class matching any of the exact-name-or-glob patterns, in archive
// order.
func (c *Client) ArchiveClasses(ctx context.Context, digest string, patterns []string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/archive/"+digest+"?classes="+url.QueryEscape(strings.Join(patterns, ",")), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return c.payload(resp)
}

// Delta fetches a CJPD patch transforming the cached archive with
// digest from into the cached archive with digest to. Apply it locally
// with classpack.ApplyDelta(oldArchive, patch, opts); unknown digests
// are APIErrors with code "not_found".
func (c *Client) Delta(ctx context.Context, from, to string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/delta/"+from+"/"+to, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return c.payload(resp)
}

// Metrics fetches the server's counters as a flat name -> value map.
func (c *Client) Metrics(ctx context.Context) (map[string]int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, c.apiError(resp)
	}
	var m map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("jpackd: decoding metrics: %w", err)
	}
	return m, nil
}

func (c *Client) post(ctx context.Context, path string, body []byte) (*http.Response, error) {
	// bytes.Reader bodies give the request a GetBody, which do uses to
	// replay the payload on retries.
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	return c.do(req)
}

// payload reads a binary response, converting error envelopes.
func (c *Client) payload(resp *http.Response) ([]byte, error) {
	if resp.StatusCode != http.StatusOK {
		return nil, c.apiError(resp)
	}
	return io.ReadAll(resp.Body)
}

// apiError decodes the server's JSON error envelope, falling back to a
// bare status error for non-JSON bodies (e.g. proxies in the path).
func (c *Client) apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	code, msg, ok := decodeEnvelope(body)
	if !ok {
		code, msg = "unknown", http.StatusText(resp.StatusCode)
	}
	return &APIError{Status: resp.StatusCode, Code: code, Message: msg}
}

// decodeEnvelope reads the code and message of the server's JSON error
// envelope; ok is false when body is not one.
func decodeEnvelope(body []byte) (code, msg string, ok bool) {
	var envelope struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if json.Unmarshal(body, &envelope) != nil || envelope.Error.Code == "" {
		return "", "", false
	}
	return envelope.Error.Code, envelope.Error.Message, true
}

// internalError reports whether resp is a 500 whose error code is
// "internal". It reads the body to tell, and puts it back for the
// caller.
func internalError(resp *http.Response) bool {
	if resp.StatusCode != http.StatusInternalServerError {
		return false
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	code, _, _ := decodeEnvelope(body)
	return code == "internal"
}
