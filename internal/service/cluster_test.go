package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/adds/wire"
	"repro/internal/core/pathmatrix"
	"repro/internal/respond"
)

// startCluster launches n in-process shards that share one peer list, each
// bound to a pre-allocated ephemeral port so every ring is built over the
// final addresses. Returns the shards and their base URLs.
func startCluster(t *testing.T, n int, mut func(i int, cfg *Config)) ([]*Server, []string) {
	t.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	servers := make([]*Server, n)
	urls := make([]string, n)
	for i := range servers {
		cfg := Config{Peers: addrs, Self: addrs[i], PeerTimeout: 2 * time.Second}
		if mut != nil {
			mut(i, &cfg)
		}
		servers[i] = New(cfg)
		ts := &httptest.Server{
			Listener: listeners[i],
			Config:   &http.Server{Handler: servers[i].Handler()},
		}
		ts.Start()
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return servers, urls
}

func postAnalyze(t *testing.T, base, source string) (*http.Response, []byte) {
	t.Helper()
	req, _ := json.Marshal(map[string]string{"source": source})
	resp, err := http.Post(base+"/v1/analyze", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, body
}

// A 3-shard cluster must answer byte-identically to a single process, from
// every shard, whatever the routing path (local, forwarded, peer-hit).
func TestClusterByteIdenticalToSingleProcess(t *testing.T) {
	_, single := newTestServer(t, Config{})
	_, urls := startCluster(t, 3, nil)

	sources := []string{
		shiftSrc,
		shiftSrc + "\nvoid probe(TwoWayLL *q) { if (q != NULL) { q->data = 1; } }\n",
	}
	for si, src := range sources {
		resp, want := postAnalyze(t, single.URL, src)
		if resp.StatusCode != 200 {
			t.Fatalf("single-process analyze = %d %s", resp.StatusCode, want)
		}
		for round := 0; round < 2; round++ {
			for ni, u := range urls {
				resp, got := postAnalyze(t, u, src)
				if resp.StatusCode != 200 {
					t.Fatalf("source %d node %d round %d: status %d %s", si, ni, round, resp.StatusCode, got)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("source %d node %d round %d: cluster answer differs from single process\ncluster: %s\nsingle:  %s",
						si, ni, round, got, want)
				}
			}
		}
	}
}

// The first non-owner request forwards to the owner (planting the key in
// the owner's cache); every later non-owner request must be answered by the
// peek protocol as a peer hit.
func TestClusterPeerCacheHit(t *testing.T) {
	servers, urls := startCluster(t, 3, nil)

	// Post to the non-owners first: placement depends on the ephemeral
	// ports, and a request that lands on the owner forwards nothing.
	src := shiftSrc
	canonical, _ := json.Marshal(&wire.AnalyzeRequest{Source: src})
	key := respond.Key("analyze", pathmatrix.EngineVersion, string(canonical))
	owner := servers[0].cluster.ring.Owner(key)
	order := make([]string, 0, len(urls))
	for i, s := range servers {
		if s.cluster.self != owner {
			order = append(order, urls[i])
		}
	}
	for i, s := range servers {
		if s.cluster.self == owner {
			order = append(order, urls[i])
		}
	}
	for _, u := range order {
		if resp, body := postAnalyze(t, u, src); resp.StatusCode != 200 {
			t.Fatalf("analyze = %d %s", resp.StatusCode, body)
		}
	}
	var peerHits, forwards uint64
	for _, s := range servers {
		peerHits += s.Metrics().Count(ClusterPeerHits)
		forwards += s.Metrics().Count(ClusterForwarded)
	}
	if forwards == 0 {
		t.Error("no request was forwarded to its owning shard")
	}
	if peerHits == 0 {
		t.Error("no request was served from a peer's cache (peek protocol)")
	}
	// And the serving side: someone answered a peek.
	var peekHits uint64
	for _, s := range servers {
		peekHits += s.Metrics().Count(ClusterPeekHits)
	}
	if peekHits == 0 {
		t.Error("no shard served a cache peek")
	}
}

// X-Cache must name the cluster path taken so operators can see routing.
func TestClusterXCacheHeaders(t *testing.T) {
	servers, urls := startCluster(t, 2, nil)

	// Find which node owns shiftSrc's key by asking the ring directly.
	canonical, _ := json.Marshal(&wire.AnalyzeRequest{Source: shiftSrc})
	key := respond.Key("analyze", pathmatrix.EngineVersion, string(canonical))
	owner := servers[0].cluster.ring.Owner(key)
	ownerIdx, otherIdx := 0, 1
	if servers[1].cluster.self == owner {
		ownerIdx, otherIdx = 1, 0
	}

	resp, _ := postAnalyze(t, urls[otherIdx], shiftSrc)
	if got := resp.Header.Get("X-Cache"); got != "forwarded" {
		t.Errorf("first non-owner request X-Cache = %q, want forwarded", got)
	}
	resp, _ = postAnalyze(t, urls[otherIdx], shiftSrc)
	if got := resp.Header.Get("X-Cache"); got != "peer-hit" {
		t.Errorf("second non-owner request X-Cache = %q, want peer-hit", got)
	}
	resp, _ = postAnalyze(t, urls[ownerIdx], shiftSrc)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("owner request X-Cache = %q, want hit", got)
	}
}

// When the owning shard is dead, requests for its keys must still be
// answered — computed locally after the timeout+retry, marked fallback.
func TestClusterDeadPeerFallback(t *testing.T) {
	// A real listener for shard 0, a dead address for shard 1.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	peers := []string{ln.Addr().String(), deadAddr}
	s := New(Config{Peers: peers, Self: ln.Addr().String(), PeerTimeout: 300 * time.Millisecond})
	ts := &httptest.Server{Listener: ln, Config: &http.Server{Handler: s.Handler()}}
	ts.Start()
	t.Cleanup(ts.Close)

	// Generate sources until one's key is owned by the dead peer.
	var src string
	for i := 0; ; i++ {
		if i > 200 {
			t.Fatal("no generated key landed on the dead peer")
		}
		src = shiftSrc + fmt.Sprintf("\nvoid probe%d(TwoWayLL *q) { q = NULL; }\n", i)
		canonical, _ := json.Marshal(&wire.AnalyzeRequest{Source: src})
		key := respond.Key("analyze", pathmatrix.EngineVersion, string(canonical))
		if s.cluster.ring.Owner(key) == deadAddr {
			break
		}
	}

	resp, body := postAnalyze(t, ts.URL, src)
	if resp.StatusCode != 200 {
		t.Fatalf("fallback analyze = %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "fallback-miss" {
		t.Errorf("X-Cache = %q, want fallback-miss", got)
	}
	if s.Metrics().Count(ClusterFallbacks) == 0 {
		t.Error("fallback counter did not move")
	}
	// The local cache now holds the result: repeat is a fallback-hit, no
	// second peer round-trip cost beyond the peek/forward attempts.
	resp, _ = postAnalyze(t, ts.URL, src)
	if got := resp.Header.Get("X-Cache"); got != "fallback-hit" {
		t.Errorf("repeat X-Cache = %q, want fallback-hit", got)
	}
}

// A forwarded request must always be answered locally, even by a shard
// whose ring says another peer owns the key — one hop maximum.
func TestClusterForwardedRequestStaysLocal(t *testing.T) {
	servers, urls := startCluster(t, 2, nil)
	canonical, _ := json.Marshal(&wire.AnalyzeRequest{Source: shiftSrc})
	key := respond.Key("analyze", pathmatrix.EngineVersion, string(canonical))
	// Pick the NON-owner and send it a pre-forwarded request.
	idx := 0
	if servers[0].cluster.ring.Owner(key) == servers[0].cluster.self {
		idx = 1
	}
	req, _ := http.NewRequest(http.MethodPost, urls[idx]+"/v1/analyze", bytes.NewReader(canonical))
	req.Header.Set("X-Adds-Forwarded", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("forwarded request = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("forwarded request X-Cache = %q, want miss (local compute)", got)
	}
	if servers[idx].Metrics().Count(ClusterForwarded) != 0 {
		t.Error("forwarded request made a second hop")
	}
}

func TestCachePeekEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	// Miss before anything is cached.
	resp, err := http.Get(ts.URL + "/v1/cache/0000000000000000000000000000000000000000000000000000000000000000")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("peek of empty cache = %d, want 404", resp.StatusCode)
	}

	// Populate, then peek the exact key.
	aresp, want := postAnalyze(t, ts.URL, shiftSrc)
	if aresp.StatusCode != 200 {
		t.Fatalf("analyze = %d", aresp.StatusCode)
	}
	canonical, _ := json.Marshal(&wire.AnalyzeRequest{Source: shiftSrc})
	key := respond.Key("analyze", pathmatrix.EngineVersion, string(canonical))
	resp, err = http.Get(ts.URL + "/v1/cache/" + key)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("peek = %d", resp.StatusCode)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("peek body differs from analyze body:\npeek:    %s\nanalyze: %s", got, want)
	}
	if s.metrics.Count(ClusterPeekHits) != 1 || s.metrics.Count(ClusterPeekMisses) != 1 {
		t.Errorf("peek counters = %d hits %d misses, want 1/1",
			s.metrics.Count(ClusterPeekHits), s.metrics.Count(ClusterPeekMisses))
	}
}

func TestReadyzStates(t *testing.T) {
	// Plain server: ready.
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 2})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("readyz = %d %s", resp.StatusCode, body)
	}

	// Misconfigured ring (self not in peers): alive but not ready.
	_, tsBad := newTestServer(t, Config{Peers: []string{"a:1", "b:2"}, Self: "c:3"})
	resp, err = http.Get(tsBad.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "not in the peer list") {
		t.Fatalf("misconfigured readyz = %d %s, want 503 naming the config error", resp.StatusCode, body)
	}
	resp, err = http.Get(tsBad.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz of misconfigured server = %d, want 200 (liveness)", resp.StatusCode)
	}
}

// While the admission queue is saturated, /healthz must stay 200 (alive)
// and /readyz must flip to 503 — the split this PR exists to fix.
func TestReadyzQueueSaturation(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	s.computeHook = func(string) func(context.Context) (response, error) {
		return func(ctx context.Context) (response, error) {
			select {
			case <-release:
				return testBody{"ok": "true"}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
	defer close(release)

	// Fill the 1 worker slot + 1 queue ticket with distinct keys. Errors
	// stay off this goroutine: t.Fatal must not be called from these.
	for i := 0; i < 2; i++ {
		go func(i int) {
			body, _ := json.Marshal(map[string]string{"source": fmt.Sprintf("void f%d() { }", i)})
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
			if err == nil {
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !s.pool.saturated() {
		if time.Now().After(deadline) {
			t.Fatal("pool never saturated")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "admission queue full") {
		t.Fatalf("saturated readyz = %d %s, want 503 admission queue full", resp.StatusCode, body)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("saturated healthz = %d, want 200 (liveness only)", resp.StatusCode)
	}
}

// Cluster metrics must appear on the scrape.
func TestClusterMetricsExposition(t *testing.T) {
	_, urls := startCluster(t, 2, nil)
	for _, u := range urls {
		postAnalyze(t, u, shiftSrc)
	}
	resp, err := http.Get(urls[0] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"addsd_cluster_peer_hit_total",
		"addsd_cluster_forwarded_total",
		"addsd_cluster_fallback_total",
		"addsd_cluster_peek_hit_total",
		"addsd_cluster_ring_peers 2",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
