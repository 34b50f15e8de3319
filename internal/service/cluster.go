package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core/pathmatrix"
	"repro/internal/obs"
)

// clusterState is the shard/proxy wiring of one addsd process: the ring
// every peer agrees on, this process's own address on it, and the client
// that speaks to the others.
type clusterState struct {
	ring   *cluster.Ring
	self   string
	client *cluster.Client
}

// newClusterState builds the cluster wiring from the config. A
// misconfiguration (bad peer list, self missing from it) does not kill the
// server — it keeps answering single-process — but the returned error
// string makes /readyz report not-ready, so a proxy never routes through a
// shard whose ring view is broken.
func newClusterState(cfg Config) (*clusterState, string) {
	if len(cfg.Peers) == 0 {
		return nil, ""
	}
	ring, err := cluster.New(cfg.Peers)
	if err != nil {
		return nil, err.Error()
	}
	if cfg.Self == "" {
		return nil, "cluster: peers configured without a self address"
	}
	if !ring.Has(cfg.Self) {
		return nil, fmt.Sprintf("cluster: self %q is not in the peer list %v", cfg.Self, ring.Peers())
	}
	return &clusterState{ring: ring, self: cfg.Self, client: cluster.NewClient(cfg.PeerTimeout)}, ""
}

// isForwarded reports whether the request already made a cluster hop.
func isForwarded(r *http.Request) bool {
	return r.Header.Get(cluster.ForwardedHeader) != ""
}

// forwardRoute maps a cache-key endpoint to the method and /v1 path a
// forwarded request uses, whether the original arrived as its own request
// or as a batch item.
func forwardRoute(endpoint string) (method, path string) {
	if id, ok := strings.CutPrefix(endpoint, "experiment:"); ok {
		return http.MethodGet, "/v1/experiments/" + id
	}
	return http.MethodPost, "/v1/" + endpoint
}

// viaPeer answers a request whose key the owner shard holds: first a cache
// peek (GET /v1/cache/{key} — one map lookup on the owner), then a full
// forward so the owner computes and caches it in its own keyspace
// partition. Returns ok=false when the owner is unreachable after the
// client's single retry, or is shedding (429) — the caller computes locally
// rather than failing the request. The hop runs under a "proxy" span whose
// traceparent rides the outbound request, so the owner's phases land on
// this request's distributed trace.
func (s *Server) viaPeer(ctx context.Context, owner, endpoint, key string, canonical []byte) (resolved, bool) {
	ctx, span := obs.Start(ctx, "proxy")
	defer span.End()
	span.SetAttr("peer", owner)
	span.SetAttr("endpoint", endpoint)

	hdr := http.Header{}
	if tp := obs.Outbound(ctx); tp != "" {
		hdr.Set("Traceparent", tp)
	}

	if body, found, err := s.cluster.client.Peek(ctx, owner, key, hdr); err == nil && found {
		s.metrics.add(ClusterPeerHits, 1)
		span.SetAttr("outcome", "peer-hit")
		return resolved{status: http.StatusOK, body: body, cache: "peer-hit"}, true
	} else if err == nil {
		s.metrics.add(ClusterPeerMisses, 1)
	}
	// A peek transport error is not yet a fallback: Forward retries with its
	// own budget, and only its failure demotes the request to local compute.

	method, path := forwardRoute(endpoint)
	var reqBody []byte
	if method != http.MethodGet {
		reqBody = canonical
	}
	status, body, err := s.cluster.client.Forward(ctx, owner, method, path, reqBody, hdr)
	if err != nil || status == http.StatusTooManyRequests {
		s.metrics.add(ClusterFallbacks, 1)
		span.SetAttr("outcome", "fallback")
		return resolved{}, false
	}
	s.metrics.add(ClusterForwarded, 1)
	span.SetAttr("outcome", "forwarded")
	return resolved{status: status, body: body, cache: "forwarded"}, true
}

// handleCachePeek serves GET /v1/cache/{key}: the owner side of the peek
// protocol. 200 with the cached response body on a hit, the typed 404
// envelope on a miss — never a computation, so a peek storm costs map
// lookups only.
func (s *Server) handleCachePeek(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if val, ok := s.cache.Peek(key); ok {
		s.metrics.add(ClusterPeekHits, 1)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "hit")
		w.WriteHeader(http.StatusOK)
		w.Write(val) //nolint:errcheck
		if len(val) == 0 || val[len(val)-1] != '\n' {
			io.WriteString(w, "\n") //nolint:errcheck
		}
		return
	}
	s.metrics.add(ClusterPeekMisses, 1)
	writeError(w, fmt.Errorf("%w: no cached result for key %.16s…", ErrNotFound, key))
}

// readiness is the /readyz body: the routing-relevant state of this shard.
type readiness struct {
	Status        string `json:"status"` // "ok" or "unavailable"
	Reason        string `json:"reason,omitempty"`
	Engine        string `json:"engine"`
	QueueDepth    int    `json:"queueDepth"`
	QueueCapacity int    `json:"queueCapacity"`
	Workers       int    `json:"workers"`
	Peers         int    `json:"peers,omitempty"`
	Self          string `json:"self,omitempty"`
}

// handleReadyz is the routing gate, split from /healthz: liveness says "the
// process is up" (always 200 while serving), readiness says "sending a
// request here right now will not be shed". It returns 503 while the
// admission queue is saturated — the state in which /healthz's 200 used to
// lure proxies into guaranteed 429s — and while the cluster ring is
// misconfigured, so a proxy never routes to a shard with a broken ring view.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	body := readiness{
		Status:        "ok",
		Engine:        pathmatrix.EngineVersion,
		QueueDepth:    s.pool.queued(),
		QueueCapacity: s.pool.queueCapacity(),
		Workers:       s.pool.capacity(),
	}
	if s.cluster != nil {
		body.Peers = s.cluster.ring.Len()
		body.Self = s.cluster.self
	}
	code := http.StatusOK
	switch {
	case s.clusterErr != "":
		code = http.StatusServiceUnavailable
		body.Status, body.Reason = "unavailable", s.clusterErr
	case s.pool.saturated():
		code = http.StatusServiceUnavailable
		body.Status, body.Reason = "unavailable", "admission queue full"
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, body)
}
