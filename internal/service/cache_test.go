package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// doBg is the no-frills Do call most tests want: background context, no
// refcount observer.
func doBg(c *Cache, key string, load func() ([]byte, error)) ([]byte, Outcome, error) {
	return c.Do(context.Background(), key, func(context.Context) ([]byte, error) {
		return load()
	}, nil)
}

func TestCacheHitSecondLookup(t *testing.T) {
	c := NewCache(4)
	calls := 0
	load := func() ([]byte, error) { calls++; return []byte("result"), nil }

	v, out, err := doBg(c, "k", load)
	if err != nil || string(v) != "result" || out != Miss {
		t.Fatalf("first Do = (%q, %v, %v), want (result, miss, nil)", v, out, err)
	}
	v, out, err = doBg(c, "k", load)
	if err != nil || string(v) != "result" || out != Hit {
		t.Fatalf("second Do = (%q, %v, %v), want (result, hit, nil)", v, out, err)
	}
	if calls != 1 {
		t.Fatalf("loader ran %d times, want 1", calls)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	mk := func(s string) func() ([]byte, error) {
		return func() ([]byte, error) { return []byte(s), nil }
	}
	doBg(c, "a", mk("A"))
	doBg(c, "b", mk("B"))
	doBg(c, "a", mk("A2")) // refresh a's recency: returns cached "A"
	doBg(c, "c", mk("C"))  // evicts b, the least recently used
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, out, _ := doBg(c, "a", mk("A3")); out != Hit {
		t.Errorf("a evicted, want retained")
	}
	if _, out, _ := doBg(c, "b", mk("B2")); out != Miss {
		t.Errorf("b retained, want evicted")
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := NewCache(4)
	calls := 0
	boom := errors.New("boom")
	load := func() ([]byte, error) { calls++; return nil, boom }
	if _, _, err := doBg(c, "k", load); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, _, err := doBg(c, "k", load); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 2 {
		t.Fatalf("loader ran %d times, want 2 (errors must not be cached)", calls)
	}
}

// TestCacheSingleflight proves N concurrent identical requests run the
// computation once: the loader blocks until every goroutine holds a flight
// reference, so the schedule cannot accidentally serialize.
func TestCacheSingleflight(t *testing.T) {
	const n = 8
	c := NewCache(4)
	var calls atomic.Int32
	release := make(chan struct{})
	load := func() ([]byte, error) {
		calls.Add(1)
		<-release
		return []byte("once"), nil
	}

	var wg sync.WaitGroup
	outcomes := make([]Outcome, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, out, err := doBg(c, "k", load)
			if err != nil || string(v) != "once" {
				t.Errorf("Do = (%q, %v), want (once, nil)", v, err)
			}
			outcomes[i] = out
		}(i)
	}
	// Wait until all n goroutines hold a reference on the flight, then let
	// the single loader finish.
	waitForRefs(t, c, "k", n)
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("loader ran %d times for %d concurrent requests, want 1", got, n)
	}
	misses, coalesced := 0, 0
	for _, out := range outcomes {
		switch out {
		case Miss:
			misses++
		case Coalesced:
			coalesced++
		}
	}
	if misses != 1 || coalesced != n-1 {
		t.Fatalf("outcomes: %d misses, %d coalesced; want 1 and %d", misses, coalesced, n-1)
	}
}

// waitForRefs spins until the key's flight holds exactly want references.
func waitForRefs(t *testing.T, c *Cache, key string, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.flightRefs(key) != want {
		if time.Now().After(deadline) {
			t.Fatalf("flight refs = %d, want %d", c.flightRefs(key), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCacheLeaderCancelDoesNotPoisonWaiters is the heart of the bugfix: the
// leader's context dies mid-computation, and the coalesced waiters must
// still receive the computed value, not the leader's context.Canceled.
func TestCacheLeaderCancelDoesNotPoisonWaiters(t *testing.T) {
	c := NewCache(4)
	release := make(chan struct{})
	started := make(chan struct{})
	load := func(ctx context.Context) ([]byte, error) {
		close(started)
		select {
		case <-release:
			return []byte("survived"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(leaderCtx, "k", load, nil)
		leaderErr <- err
	}()
	<-started

	waiterDone := make(chan struct{})
	var wv []byte
	var wout Outcome
	var werr error
	go func() {
		defer close(waiterDone)
		wv, wout, werr = c.Do(context.Background(), "k", load, nil)
	}()
	waitForRefs(t, c, "k", 2)

	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want its own context.Canceled", err)
	}
	// The flight must still be alive for the waiter.
	if got := c.flightRefs("k"); got != 1 {
		t.Fatalf("flight refs after leader left = %d, want 1", got)
	}
	close(release)
	<-waiterDone
	if werr != nil || string(wv) != "survived" || wout != Coalesced {
		t.Fatalf("waiter got (%q, %v, %v), want (survived, coalesced, nil)", wv, wout, werr)
	}
	// And the value is cached for the next request.
	if _, out, _ := doBg(c, "k", func() ([]byte, error) { return nil, errors.New("no") }); out != Hit {
		t.Errorf("post-flight lookup = %v, want hit", out)
	}
}

// TestCacheWaiterCancelIsPrompt proves a waiter's own cancellation returns
// its own error immediately without killing the shared flight.
func TestCacheWaiterCancelIsPrompt(t *testing.T) {
	c := NewCache(4)
	release := make(chan struct{})
	load := func(ctx context.Context) ([]byte, error) {
		select {
		case <-release:
			return []byte("v"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", load, nil)
		leaderDone <- err
	}()
	waitForRefs(t, c, "k", 1)

	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, out, err := c.Do(waiterCtx, "k", load, nil)
		if out != Coalesced {
			t.Errorf("waiter outcome = %v, want coalesced", out)
		}
		waiterDone <- err
	}()
	waitForRefs(t, c, "k", 2)

	cancelWaiter()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter did not return promptly")
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader err = %v, want nil (waiter's cancel must not kill the flight)", err)
	}
}

// TestCacheLastWaiterOutCancelsFlight proves the refcount actually cancels
// the computation when the last waiter abandons it.
func TestCacheLastWaiterOutCancelsFlight(t *testing.T) {
	c := NewCache(4)
	cancelled := make(chan struct{})
	load := func(ctx context.Context) ([]byte, error) {
		<-ctx.Done()
		close(cancelled)
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "k", load, nil)
		done <- err
	}()
	waitForRefs(t, c, "k", 1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("last waiter leaving did not cancel the flight's context")
	}
	// The dying flight is unlinked, so a fresh request starts over.
	waitForRefs(t, c, "k", 0)
	if _, out, err := doBg(c, "k", func() ([]byte, error) { return []byte("v"), nil }); err != nil || out != Miss {
		t.Fatalf("post-abandon Do = (%v, %v), want fresh miss", out, err)
	}
}

// TestCacheDeadContextNeverStartsFlight: a request that is already
// cancelled must not spawn a detached computation.
func TestCacheDeadContextNeverStartsFlight(t *testing.T) {
	c := NewCache(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	_, _, err := c.Do(ctx, "k", func(context.Context) ([]byte, error) {
		ran = true
		return nil, nil
	}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("load ran for a dead request")
	}
	if got := c.flightRefs("k"); got != 0 {
		t.Fatalf("flight refs = %d, want 0", got)
	}
}

// TestCacheFlightTimeout: the detached computation is bounded by the
// cache's flight budget even though the caller's context never expires.
func TestCacheFlightTimeout(t *testing.T) {
	c := NewCache(4)
	c.FlightTimeout = 10 * time.Millisecond
	_, _, err := c.Do(context.Background(), "k", func(ctx context.Context) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestCacheRefObserver: the onRefs hook sees every join and leave and sums
// to zero when the flight drains.
func TestCacheRefObserver(t *testing.T) {
	c := NewCache(4)
	var refs atomic.Int64
	onRefs := func(d int) { refs.Add(int64(d)) }
	release := make(chan struct{})
	load := func(ctx context.Context) ([]byte, error) {
		<-release
		return []byte("v"), nil
	}
	const n = 4
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Do(context.Background(), "k", load, onRefs) //nolint:errcheck
		}()
	}
	waitForRefs(t, c, "k", n)
	if got := refs.Load(); got != n {
		t.Fatalf("observed refs = %d, want %d", got, n)
	}
	close(release)
	wg.Wait()
	if got := refs.Load(); got != 0 {
		t.Fatalf("observed refs after drain = %d, want 0", got)
	}
}

func TestCacheConcurrentDistinctKeys(t *testing.T) {
	c := NewCache(64)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprint(i % 8)
			v, _, err := doBg(c, key, func() ([]byte, error) { return []byte(key), nil })
			if err != nil || string(v) != key {
				t.Errorf("Do(%q) = (%q, %v)", key, v, err)
			}
		}(i)
	}
	wg.Wait()
	if c.Len() != 8 {
		t.Fatalf("Len = %d, want 8", c.Len())
	}
}
