// Package service is the analysis-as-a-service layer behind cmd/addsd: a
// content-addressed result cache with singleflight deduplication, a bounded
// worker pool behind an admission queue, HTTP handlers for the whole
// pipeline (analyze, software pipelining, experiments), and a
// Prometheus-text observability surface. The response bodies themselves are
// built by internal/respond, which addsc shares without linking the daemon.
//
// The cache key (respond.Key) is the SHA-256 of the request's canonical
// encoding plus the engine version (pathmatrix.EngineVersion), so a result
// can never outlive the engine that produced it, and two requests differing
// only in field order still share one entry.
package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/lru"
)

// Outcome classifies how a cache lookup was served.
type Outcome int

// Lookup outcomes. Coalesced requests joined an in-flight computation for
// the same key: the analysis ran once for the whole group.
const (
	Hit Outcome = iota
	Miss
	Coalesced
)

// String names the outcome for the X-Cache response header.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case Coalesced:
		return "coalesced"
	}
	return "?"
}

// flight is one in-progress computation that later identical requests join.
// The computation runs in its own goroutine on a context detached from any
// requester, bounded only by the cache's flight timeout and the reference
// count: refs counts the live waiters (leader included), and the last
// waiter to abandon the flight cancels the computation.
type flight struct {
	done   chan struct{} // closed after val/err are set
	cancel context.CancelFunc
	val    []byte // write-once before close(done)
	err    error  // write-once before close(done)
	refs   int    // guarded by Cache.mu
}

// Cache is a content-addressed LRU result cache with singleflight: at most
// one computation per key runs at a time, concurrent identical requests
// wait for it, and successful results are retained up to the entry bound.
// Errors are never cached — a failed computation reruns on the next request.
//
// Flights are cancellation-safe: the computation runs on a detached context
// bounded by FlightTimeout, so one waiter's cancellation (a disconnected
// client) never poisons the result for the others. Each waiter selects on
// its own context and leaves with its own error; only when the last waiter
// leaves is the shared computation cancelled.
type Cache struct {
	mu      sync.Mutex
	lru     *lru.Cache[string, []byte]
	flights map[string]*flight

	// FlightTimeout bounds each detached computation (zero = unbounded).
	// Set once before the first Do; the server wires it to RequestTimeout.
	FlightTimeout time.Duration
}

// NewCache returns a cache bounded to max entries (max < 1 keeps 1).
func NewCache(max int) *Cache {
	return &Cache{
		lru:     lru.New[string, []byte](max),
		flights: map[string]*flight{},
	}
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Peek returns the cached bytes for key without computing anything — the
// cluster cache-peek endpoint (GET /v1/cache/{key}): a peer asking "do you
// already have this?" before deciding to forward the full request. A found
// entry is refreshed in the LRU — a peer's interest is evidence of reuse.
// The returned bytes are shared; callers must not mutate them.
func (c *Cache) Peek(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Get(key)
}

// Do returns the cached value for key, or computes it with load. Concurrent
// calls with one key share a single load (singleflight); the caller that
// started it reports Miss, the ones that joined report Coalesced. The
// returned bytes are shared — callers must not mutate them.
//
// load runs in a detached goroutine on a context bounded by FlightTimeout,
// never by ctx: if this caller's ctx expires, Do returns ctx.Err() for this
// caller only, and the computation keeps serving the remaining waiters.
// When the last waiter leaves, the flight's context is cancelled so a
// cooperative load stops early; a load that ignores cancellation still has
// its successful result cached for the next identical request.
//
// onRefs, when non-nil, observes every waiter join (+1) and leave (-1) of
// the flight this call participates in — the server feeds it the
// per-endpoint flight-refcount gauge.
func (c *Cache) Do(ctx context.Context, key string, load func(context.Context) ([]byte, error), onRefs func(delta int)) ([]byte, Outcome, error) {
	// A dead request must not start (or hold a reference on) a flight.
	if err := ctx.Err(); err != nil {
		return nil, Miss, err
	}
	c.mu.Lock()
	if val, ok := c.lru.Get(key); ok {
		c.mu.Unlock()
		return val, Hit, nil
	}
	if f, ok := c.flights[key]; ok {
		f.refs++
		c.mu.Unlock()
		if onRefs != nil {
			onRefs(1)
		}
		return c.wait(ctx, key, f, Coalesced, onRefs)
	}
	fctx, cancel := c.flightContext()
	f := &flight{done: make(chan struct{}), cancel: cancel, refs: 1}
	c.flights[key] = f
	c.mu.Unlock()
	if onRefs != nil {
		onRefs(1)
	}
	go c.runFlight(key, f, fctx, load)
	return c.wait(ctx, key, f, Miss, onRefs)
}

// flightContext builds the detached context one computation runs under.
func (c *Cache) flightContext() (context.Context, context.CancelFunc) {
	if c.FlightTimeout > 0 {
		return context.WithTimeout(context.Background(), c.FlightTimeout)
	}
	return context.WithCancel(context.Background())
}

// runFlight executes one detached computation and publishes its result.
func (c *Cache) runFlight(key string, f *flight, fctx context.Context, load func(context.Context) ([]byte, error)) {
	defer f.cancel() // release the timeout's timer
	val, err := recoverLoad(fctx, load)

	c.mu.Lock()
	// The guard matters when every waiter left early: wait() already
	// unlinked this flight so a fresh request could start over, and the
	// key may now map to a successor flight that must not be removed.
	if c.flights[key] == f {
		delete(c.flights, key)
	}
	f.val, f.err = val, err
	if err == nil {
		// An abandoned flight can race a successor for the same key: keep
		// whichever result landed first rather than double-inserting.
		c.lru.Add(key, val)
	}
	c.mu.Unlock()
	close(f.done)
}

// recoverLoad runs load, turning a panic into an error: the flight runs on
// its own goroutine, where an unrecovered panic would kill the process. The
// error is uncached like any other, and its waiters answer 500.
func recoverLoad(ctx context.Context, load func(context.Context) ([]byte, error)) (val []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			val, err = nil, fmt.Errorf("internal error: analysis panicked: %v", r)
		}
	}()
	return load(ctx)
}

// wait blocks one caller on the flight, selecting on the caller's own
// context: a cancelled waiter gets its own ctx.Err() immediately and the
// flight keeps running for the rest — unless this waiter was the last one,
// in which case it cancels the computation on the way out.
func (c *Cache) wait(ctx context.Context, key string, f *flight, outcome Outcome, onRefs func(delta int)) ([]byte, Outcome, error) {
	select {
	case <-f.done:
		c.mu.Lock()
		f.refs--
		c.mu.Unlock()
		if onRefs != nil {
			onRefs(-1)
		}
		return f.val, outcome, f.err
	case <-ctx.Done():
		c.mu.Lock()
		f.refs--
		last := f.refs == 0
		if last && c.flights[key] == f {
			// Unlink now so the next identical request starts a fresh
			// flight instead of joining this dying one.
			delete(c.flights, key)
		}
		c.mu.Unlock()
		if onRefs != nil {
			onRefs(-1)
		}
		if last {
			f.cancel()
		}
		return nil, outcome, ctx.Err()
	}
}
