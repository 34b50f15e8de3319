package service

// Lifecycle and overload tests for the detached-flight singleflight: the
// fault-injection seam (Server.computeHook) stands in slow, failing, and
// hanging computations so the tests control exactly when a flight finishes,
// while requests are driven in-process with per-request contexts playing
// the disconnecting clients.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/adds/wire"
)

// doCtx drives one in-process request under ctx and returns the recorder.
// ServeHTTP runs synchronously, so cancelling ctx from another goroutine is
// exactly a client disconnect: the handler notices and writes its status.
func doCtx(s *Server, ctx context.Context, method, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func analyzeBody(t *testing.T, source string) []byte {
	t.Helper()
	b, err := json.Marshal(wire.AnalyzeRequest{Source: source})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// waitFor spins until cond holds (refcounts, gauges, goroutine counts).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// assertGoroutinesDrain fails if the goroutine count does not return to the
// baseline (goleak-style final accounting; +2 tolerates runtime helpers).
func assertGoroutinesDrain(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCoalescedWaitersSurviveLeaderDisconnect is the acceptance regression:
// 3-worker pool, one slow flight; the leader's client disconnects
// mid-computation and every coalesced waiter still gets 200 with
// X-Cache: coalesced. Afterwards the flight refcount returns to zero and
// no goroutine outlives the requests.
func TestCoalescedWaitersSurviveLeaderDisconnect(t *testing.T) {
	const waiters = 4
	s := New(Config{Workers: 3})
	release := make(chan struct{})
	started := make(chan struct{})
	var startedOnce sync.Once
	s.computeHook = func(endpoint string) func(context.Context) (response, error) {
		return func(ctx context.Context) (response, error) {
			startedOnce.Do(func() { close(started) })
			select {
			case <-release:
				return testBody{"answer": "survived"}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
	base := runtime.NumGoroutine()
	body := analyzeBody(t, "leader-disconnect")

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderRec := make(chan *httptest.ResponseRecorder, 1)
	go func() { leaderRec <- doCtx(s, leaderCtx, "POST", "/v1/analyze", body) }()
	<-started

	var wg sync.WaitGroup
	recs := make([]*httptest.ResponseRecorder, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = doCtx(s, context.Background(), "POST", "/v1/analyze", body)
		}(i)
	}
	waitFor(t, "all waiters on the flight", func() bool {
		return s.metrics.FlightRefsFor("analyze") == waiters+1
	})

	// The leader's client disconnects: it gets 499 itself, the flight
	// keeps running for the waiters.
	cancelLeader()
	if rec := <-leaderRec; rec.Code != StatusClientClosedRequest {
		t.Fatalf("leader status = %d, want %d", rec.Code, StatusClientClosedRequest)
	}
	if got := s.metrics.FlightRefsFor("analyze"); got != waiters {
		t.Fatalf("flight refs after leader left = %d, want %d", got, waiters)
	}

	close(release)
	wg.Wait()
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Errorf("waiter %d status = %d, body %s", i, rec.Code, rec.Body)
		}
		if got := rec.Header().Get("X-Cache"); got != "coalesced" {
			t.Errorf("waiter %d X-Cache = %q, want coalesced", i, got)
		}
		if !bytes.Contains(rec.Body.Bytes(), []byte("survived")) {
			t.Errorf("waiter %d body = %s, want the computed answer", i, rec.Body)
		}
	}
	waitFor(t, "flight refs drain to zero", func() bool {
		return s.metrics.FlightRefsFor("analyze") == 0
	})
	assertGoroutinesDrain(t, base)
}

// TestWaiterCancelReturns499Promptly: a waiter's own disconnect answers 499
// immediately and leaves the shared flight running for the leader.
func TestWaiterCancelReturns499Promptly(t *testing.T) {
	s := New(Config{Workers: 3})
	release := make(chan struct{})
	s.computeHook = func(endpoint string) func(context.Context) (response, error) {
		return func(ctx context.Context) (response, error) {
			select {
			case <-release:
				return testBody{"answer": "ok"}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
	body := analyzeBody(t, "waiter-cancel")

	leaderRec := make(chan *httptest.ResponseRecorder, 1)
	go func() { leaderRec <- doCtx(s, context.Background(), "POST", "/v1/analyze", body) }()
	waitFor(t, "leader on the flight", func() bool {
		return s.metrics.FlightRefsFor("analyze") == 1
	})

	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	waiterRec := make(chan *httptest.ResponseRecorder, 1)
	go func() { waiterRec <- doCtx(s, waiterCtx, "POST", "/v1/analyze", body) }()
	waitFor(t, "waiter on the flight", func() bool {
		return s.metrics.FlightRefsFor("analyze") == 2
	})

	cancelWaiter()
	select {
	case rec := <-waiterRec:
		if rec.Code != StatusClientClosedRequest {
			t.Fatalf("waiter status = %d, want %d", rec.Code, StatusClientClosedRequest)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter did not get its 499 promptly")
	}

	close(release)
	if rec := <-leaderRec; rec.Code != http.StatusOK {
		t.Fatalf("leader status = %d (waiter's cancel must not kill the flight), body %s",
			rec.Code, rec.Body)
	}
}

// TestOverloadShedsWith429 is the acceptance overload test: with the run
// slot held and no queue, the next request is shed with 429 + Retry-After
// well inside the request timeout, and addsd_shed_total increments.
func TestOverloadShedsWith429(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: -1, RequestTimeout: 30 * time.Second})
	release := make(chan struct{})
	started := make(chan struct{})
	var startedOnce sync.Once
	s.computeHook = func(endpoint string) func(context.Context) (response, error) {
		return func(ctx context.Context) (response, error) {
			startedOnce.Do(func() { close(started) })
			select {
			case <-release:
				return testBody{"slow": "done"}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
	slowBody := analyzeBody(t, "slow")
	slowRec := make(chan *httptest.ResponseRecorder, 1)
	defer func() { <-slowRec }() // drain the slow flight before the test ends
	defer close(release)
	go func() {
		slowRec <- doCtx(s, context.Background(), "POST", "/v1/analyze", slowBody)
	}()
	<-started

	start := time.Now()
	rec := doCtx(s, context.Background(), "POST", "/v1/analyze", analyzeBody(t, "shed-me"))
	elapsed := time.Since(start)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("Retry-After"); got == "" {
		t.Error("429 response missing Retry-After")
	}
	if elapsed >= s.cfg.RequestTimeout {
		t.Errorf("shed took %v, want < RequestTimeout %v", elapsed, s.cfg.RequestTimeout)
	}
	if got := s.metrics.Count(Shed); got != 1 {
		t.Errorf("Count(Shed) = %d, want 1", got)
	}

	// The shed is visible on the scrape, per endpoint and in aggregate.
	mrec := doCtx(s, context.Background(), "GET", "/metrics", nil)
	for _, want := range []string{
		"addsd_shed_total 1",
		`addsd_endpoint_shed_total{endpoint="analyze"} 1`,
		"addsd_queue_capacity 0",
	} {
		if !bytes.Contains(mrec.Body.Bytes(), []byte(want)) {
			t.Errorf("metrics missing %q\n%s", want, mrec.Body)
		}
	}
}

// TestOverloadQueueAdmitsThenSheds: a queue of depth 1 absorbs the first
// extra flight (which completes fine) and sheds the second.
func TestOverloadQueueAdmitsThenSheds(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	s.computeHook = func(endpoint string) func(context.Context) (response, error) {
		return func(ctx context.Context) (response, error) {
			select {
			case <-release:
				return testBody{"ok": "1"}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}

	var wg sync.WaitGroup
	recs := make([]*httptest.ResponseRecorder, 2)
	for i := 0; i < 2; i++ {
		body := analyzeBody(t, string(rune('a'+i)))
		wg.Add(1)
		go func(i int, body []byte) {
			defer wg.Done()
			recs[i] = doCtx(s, context.Background(), "POST", "/v1/analyze", body)
		}(i, body)
	}
	waitFor(t, "one running and one queued flight", func() bool {
		return s.pool.inUse() == 1 && s.pool.queued() == 1
	})

	rec := doCtx(s, context.Background(), "POST", "/v1/analyze", analyzeBody(t, "third"))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("third request status = %d, want 429", rec.Code)
	}

	close(release)
	wg.Wait()
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Errorf("request %d status = %d, want 200 (queued work must complete)", i, rec.Code)
		}
	}
}

// TestFailingFlightFansOutErrorOnce: a failing computation reports its real
// error to the waiters of that flight only; nothing is cached and the next
// request recomputes.
func TestFailingFlightFansOutErrorOnce(t *testing.T) {
	s := New(Config{Workers: 2})
	var calls atomic.Int32
	s.computeHook = func(endpoint string) func(context.Context) (response, error) {
		return func(ctx context.Context) (response, error) {
			if calls.Add(1) == 1 {
				return nil, errors.New("injected failure")
			}
			return testBody{"second": "try"}, nil
		}
	}
	body := analyzeBody(t, "fails-once")
	if rec := doCtx(s, context.Background(), "POST", "/v1/analyze", body); rec.Code != http.StatusInternalServerError {
		t.Fatalf("first status = %d, want 500", rec.Code)
	}
	rec := doCtx(s, context.Background(), "POST", "/v1/analyze", body)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
		t.Fatalf("second = %d/%q, want 200/miss (errors are not cached)",
			rec.Code, rec.Header().Get("X-Cache"))
	}
}

// TestHangingFlightBoundedByTimeout: a computation that ignores every
// signal until its context fires is still bounded by the flight budget, and
// the waiter gets 504 — the flight's deadline, not its own.
func TestHangingFlightBoundedByTimeout(t *testing.T) {
	s := New(Config{Workers: 1, RequestTimeout: 30 * time.Millisecond})
	s.computeHook = func(endpoint string) func(context.Context) (response, error) {
		return func(ctx context.Context) (response, error) {
			<-ctx.Done() // hang until the flight budget expires
			return nil, ctx.Err()
		}
	}
	rec := doCtx(s, context.Background(), "POST", "/v1/analyze", analyzeBody(t, "hang"))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", rec.Code, rec.Body)
	}
}

// TestExperimentDisconnectResultReused covers the handleExperiment leak
// fix: the computation (like exper.ByID) ignores cancellation, the only
// client disconnects mid-run, and the finished result is still cached so
// the next identical request is a hit — the work is reused, not leaked and
// not rerun.
func TestExperimentDisconnectResultReused(t *testing.T) {
	s := New(Config{})
	release := make(chan struct{})
	started := make(chan struct{})
	var calls atomic.Int32
	s.computeHook = func(endpoint string) func(context.Context) (response, error) {
		if endpoint != "experiment:E4" {
			return nil
		}
		return func(ctx context.Context) (response, error) {
			calls.Add(1)
			close(started)
			<-release // not context-aware, exactly like exper.ByID
			return testBody{"id": "E4"}, nil
		}
	}
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	recc := make(chan *httptest.ResponseRecorder, 1)
	go func() { recc <- doCtx(s, ctx, "GET", "/v1/experiments/E4", nil) }()
	<-started
	cancel()
	if rec := <-recc; rec.Code != StatusClientClosedRequest {
		t.Fatalf("disconnected client status = %d, want %d", rec.Code, StatusClientClosedRequest)
	}

	// The detached computation finishes on its own and lands in the cache.
	close(release)
	waitFor(t, "abandoned result cached", func() bool { return s.cache.Len() == 1 })
	rec := doCtx(s, context.Background(), "GET", "/v1/experiments/E4", nil)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
		t.Fatalf("retry = %d/%q, want 200/hit", rec.Code, rec.Header().Get("X-Cache"))
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("experiment computed %d times, want 1 (reused, not rerun)", got)
	}
	assertGoroutinesDrain(t, base)
}

// TestSingleKeyStressWithClientKills hammers one key from many clients
// while killing a random half mid-flight, across several rounds. Survivors
// must always get the computed answer (never a peer's cancellation), and
// every round must drain its refcounts and goroutines. Run under -race this
// is the ISSUE's fault-injection stress.
func TestSingleKeyStressWithClientKills(t *testing.T) {
	const clients = 16
	rng := rand.New(rand.NewSource(1))
	s := New(Config{Workers: 3, CacheEntries: 1})
	s.computeHook = func(endpoint string) func(context.Context) (response, error) {
		return func(ctx context.Context) (response, error) {
			select {
			case <-time.After(20 * time.Millisecond):
				return testBody{"answer": "stress"}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
	base := runtime.NumGoroutine()

	for round := 0; round < 5; round++ {
		// One key per round; CacheEntries=1 evicts it next round, so every
		// round exercises a live flight rather than a cache hit.
		body := analyzeBody(t, string(rune('a'+round)))
		var wg sync.WaitGroup
		cancels := make([]context.CancelFunc, clients)
		killed := make([]bool, clients)
		recs := make([]*httptest.ResponseRecorder, clients)
		for i := 0; i < clients; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			cancels[i] = cancel
			killed[i] = rng.Intn(2) == 0
			wg.Add(1)
			go func(i int, ctx context.Context) {
				defer wg.Done()
				recs[i] = doCtx(s, ctx, "POST", "/v1/analyze", body)
			}(i, ctx)
		}
		for i, kill := range killed {
			if kill {
				time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
				cancels[i]()
			}
		}
		wg.Wait()
		for i := range cancels {
			cancels[i]()
		}
		for i, rec := range recs {
			if killed[i] {
				// A killed client may have finished before its cancel
				// landed; both 200 and 499 are legal. 5xx is not.
				if rec.Code != http.StatusOK && rec.Code != StatusClientClosedRequest {
					t.Errorf("round %d killed client %d: status = %d", round, i, rec.Code)
				}
				continue
			}
			if rec.Code != http.StatusOK {
				t.Errorf("round %d surviving client %d: status = %d, body %s",
					round, i, rec.Code, rec.Body)
			} else if !bytes.Contains(rec.Body.Bytes(), []byte("stress")) {
				t.Errorf("round %d client %d: wrong body %s", round, i, rec.Body)
			}
		}
		waitFor(t, "round refcount drain", func() bool {
			return s.metrics.FlightRefsFor("analyze") == 0
		})
	}
	assertGoroutinesDrain(t, base)
}

// TestFlightPanicIsolated: a computation that panics answers 500 with the
// error envelope instead of killing the process. In a batch only the
// panicking item fails, nothing is cached, and the single pool slot is
// given back, so the next request is served.
func TestFlightPanicIsolated(t *testing.T) {
	s := New(Config{Workers: 1}) // one slot: a leaked slot would hang the rest
	var calls, panicAt atomic.Int32
	s.computeHook = func(endpoint string) func(context.Context) (response, error) {
		return func(ctx context.Context) (response, error) {
			if calls.Add(1) == panicAt.Load() {
				panic("injected panic")
			}
			return testBody{"answer": "served"}, nil
		}
	}

	panicAt.Store(1)
	body := analyzeBody(t, "panics")
	rec := doCtx(s, context.Background(), "POST", "/v1/analyze", body)
	var env wire.ErrorEnvelope
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("/v1/analyze status = %d, want 500; body %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || !strings.Contains(env.Error, "injected panic") {
		t.Fatalf("/v1/analyze body = %s, want an error envelope naming the panic", rec.Body)
	}

	// The batch's first computation panics; which item that is depends on
	// scheduling, so the lines are checked by count.
	panicAt.Store(calls.Load() + 1)
	batch, err := json.Marshal(wire.BatchRequest{Items: []wire.AnalyzeRequest{
		{Source: "batch-a"}, {Source: "batch-b"}, {Source: "batch-c"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	rec = doCtx(s, context.Background(), "POST", "/v1/batch", batch)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/batch status = %d, want 200; body %s", rec.Code, rec.Body)
	}
	statuses := map[int]int{}
	for i, line := range bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte{'\n'}) {
		var item wire.BatchItemResult
		if err := json.Unmarshal(line, &item); err != nil || item.Index != i {
			t.Fatalf("batch line %d = %s", i, line)
		}
		statuses[item.Status]++
		if item.Status == http.StatusInternalServerError &&
			(item.Error == nil || !strings.Contains(item.Error.Error, "injected panic")) {
			t.Errorf("500 line %d = %s, want an error envelope naming the panic", i, line)
		}
	}
	if statuses[http.StatusInternalServerError] != 1 || statuses[http.StatusOK] != 2 {
		t.Fatalf("batch statuses = %v, want one 500 and two 200", statuses)
	}

	// The panic was not cached: the first request now computes and answers.
	rec = doCtx(s, context.Background(), "POST", "/v1/analyze", body)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
		t.Fatalf("after the panics = %d/%q, want 200/miss; body %s",
			rec.Code, rec.Header().Get("X-Cache"), rec.Body)
	}
}
