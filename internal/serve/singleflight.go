package serve

import "sync"

// packFlight coalesces concurrent identical /pack requests: the first
// request for a digest becomes the leader and runs the encode; every
// request for the same digest arriving before the leader finishes waits
// on the leader's result instead of encoding (or even queueing) itself.
// A thundering herd of N identical packs therefore costs one job slot
// and one encode, with N-1 responses counted as coalesced_total.
//
// The key is the cache digest — input bytes plus the pack-option
// fingerprint — so "identical" means identical output, and sharing the
// leader's bytes is always correct, cache or no cache.
type packFlight struct {
	mu    sync.Mutex
	calls map[string]*packCall
}

// packCall is one in-flight leader encode and its shared outcome.
type packCall struct {
	done    chan struct{} // closed once res is final
	waiters int           // followers currently waiting (drill observability)
	res     packResult
}

// packResult is the shared outcome of a pack encode: the payload on
// success, or the structured error every coalesced caller repeats.
type packResult struct {
	packed  []byte
	skipped []string
	cache   string // "miss", or "hit" when the post-join double-check found it
	apiErr  *apiError
}

// join registers interest in digest: the first caller becomes the
// leader (leader == true) and must call finish exactly once, even if
// its encode panics; later callers get the same call to wait on.
func (g *packFlight) join(digest string) (c *packCall, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.calls == nil {
		g.calls = make(map[string]*packCall)
	}
	if c, ok := g.calls[digest]; ok {
		c.waiters++
		return c, false
	}
	c = &packCall{done: make(chan struct{})}
	g.calls[digest] = c
	return c, true
}

// finish publishes the leader's result and retires the flight, so the
// next request for the same digest starts fresh (and, on success, hits
// the cache instead).
func (g *packFlight) finish(digest string, c *packCall, res packResult) {
	g.mu.Lock()
	c.res = res
	delete(g.calls, digest)
	g.mu.Unlock()
	close(c.done)
}

// waiting reports how many followers are currently coalesced behind the
// digest's leader; the herd drill uses it to synchronize deterministically.
func (g *packFlight) waiting(digest string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[digest]; ok {
		return c.waiters
	}
	return 0
}
