package service

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alias/smg"
	"repro/internal/core/pathmatrix"
)

// Metrics collects the daemon's counters. Everything is monotone except the
// gauges (inflight, cache entries, pool slots), and rendering is the
// Prometheus text exposition format, so any scraper — or curl — can read it.
type Metrics struct {
	mu         sync.Mutex
	requests   map[[2]string]uint64 // {endpoint, code} -> count
	shedBy     map[string]uint64    // endpoint -> shed count
	flightRefs map[string]int64     // endpoint -> live flight waiters
	phases     map[string]*histogram

	fixpointIters histogram

	hits      atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64
	shed      atomic.Uint64

	inflight atomic.Int64
	latNanos atomic.Int64
	latCount atomic.Uint64

	// Cluster counters. The requester side: peek answered from the owner's
	// cache (peerHits), clean peek miss then full forward (forwarded), owner
	// unreachable/shedding so computed locally (fallbacks). The serving
	// side: peeks this process answered (peekHits/peekMisses). ringPeers is
	// a config gauge (0 = single-process).
	peerHits   atomic.Uint64
	peerMisses atomic.Uint64
	forwarded  atomic.Uint64
	fallbacks  atomic.Uint64
	peekHits   atomic.Uint64
	peekMisses atomic.Uint64
	ringPeers  atomic.Int64

	batchRequests atomic.Uint64
	batchItems    atomic.Uint64
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	m := &Metrics{
		requests:   map[[2]string]uint64{},
		shedBy:     map[string]uint64{},
		flightRefs: map[string]int64{},
		phases:     map[string]*histogram{},
	}
	m.fixpointIters.bounds = iterBounds
	return m
}

// phaseBounds buckets phase durations (seconds): the pipeline's phases run
// from microseconds (parse) to tens of milliseconds (fixpoints on large
// functions), with the +Inf bucket catching pathological runs.
var phaseBounds = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 5}

// iterBounds buckets fixpoint iteration counts per analysis.
var iterBounds = []float64{10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// maxPhaseSeries bounds the phase label set; span names come from a fixed
// in-tree vocabulary, so the cap only guards against an instrumentation bug
// minting names dynamically.
const maxPhaseSeries = 64

// histogram is a fixed-bucket Prometheus histogram (cumulative buckets plus
// sum and count). The zero value needs bounds before first Observe.
type histogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1; last is +Inf
	sum    float64
	total  uint64
}

func (h *histogram) observe(v float64) {
	if h.counts == nil {
		h.counts = make([]uint64, len(h.bounds)+1)
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.total++
}

// writeProm renders the histogram with cumulative le buckets. labels is the
// rendered label pairs without the le label ("" or `phase="parse"`).
func (h *histogram) writeProm(w io.Writer, name, labels string) {
	set := func(extra string) string {
		switch {
		case labels == "" && extra == "":
			return ""
		case labels == "":
			return "{" + extra + "}"
		case extra == "":
			return "{" + labels + "}"
		}
		return "{" + labels + "," + extra + "}"
	}
	cum := uint64(0)
	for i, b := range h.bounds {
		if h.counts != nil {
			cum += h.counts[i]
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, set(fmt.Sprintf("le=%q", trimFloat(b))), cum)
	}
	if h.counts != nil {
		cum += h.counts[len(h.bounds)]
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, set(`le="+Inf"`), cum)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, set(""), h.sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, set(""), h.total)
}

// trimFloat renders bucket bounds the Prometheus way (no trailing zeros).
func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// ObservePhase records one finished pipeline phase (span) duration.
func (m *Metrics) ObservePhase(phase string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.phases[phase]
	if h == nil {
		if len(m.phases) >= maxPhaseSeries {
			return
		}
		h = &histogram{bounds: phaseBounds}
		m.phases[phase] = h
	}
	h.observe(d.Seconds())
}

// ObserveFixpointIters records the iteration count of one fixpoint run.
func (m *Metrics) ObserveFixpointIters(n int) {
	m.mu.Lock()
	m.fixpointIters.observe(float64(n))
	m.mu.Unlock()
}

// PhaseCount reports how many observations a phase histogram holds (tests
// and the smoke job assert phases actually record).
func (m *Metrics) PhaseCount(phase string) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h := m.phases[phase]; h != nil {
		return h.total
	}
	return 0
}

// ObserveRequest records one finished request.
func (m *Metrics) ObserveRequest(endpoint string, code int, d time.Duration) {
	m.mu.Lock()
	m.requests[[2]string{endpoint, fmt.Sprint(code)}]++
	m.mu.Unlock()
	m.latNanos.Add(int64(d))
	m.latCount.Add(1)
}

// ObserveCache records one cache lookup outcome.
func (m *Metrics) ObserveCache(o Outcome) {
	switch o {
	case Hit:
		m.hits.Add(1)
	case Miss:
		m.misses.Add(1)
	case Coalesced:
		m.coalesced.Add(1)
	}
}

// CacheHits returns the hit counter (tests and the smoke job assert on it).
func (m *Metrics) CacheHits() uint64 { return m.hits.Load() }

// CacheMisses returns the miss counter.
func (m *Metrics) CacheMisses() uint64 { return m.misses.Load() }

// CacheCoalesced returns the singleflight-join counter.
func (m *Metrics) CacheCoalesced() uint64 { return m.coalesced.Load() }

// ObserveShed records one request shed by the admission queue.
func (m *Metrics) ObserveShed(endpoint string) {
	m.shed.Add(1)
	m.mu.Lock()
	m.shedBy[endpoint]++
	m.mu.Unlock()
}

// ShedTotal returns the process-wide shed counter (the overload tests and
// the smoke job assert on it).
func (m *Metrics) ShedTotal() uint64 { return m.shed.Load() }

// FlightRefs moves the endpoint's flight-refcount gauge: +1 when a request
// joins (or starts) a flight, -1 when it leaves. The cache calls it through
// the per-endpoint hook the server installs.
func (m *Metrics) FlightRefs(endpoint string, delta int) {
	m.mu.Lock()
	m.flightRefs[endpoint] += int64(delta)
	m.mu.Unlock()
}

// FlightRefsFor reads the endpoint's flight-refcount gauge (tests use it to
// sequence waiters deterministically and to prove refs drain to zero).
func (m *Metrics) FlightRefsFor(endpoint string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.flightRefs[endpoint]
}

// ClusterPeerHit records a request answered from a peer's cache via the
// peek protocol — the cross-process dedup the ring exists for.
func (m *Metrics) ClusterPeerHit() { m.peerHits.Add(1) }

// ClusterPeerHits reads the peer-hit counter (tests and the cluster-smoke
// job assert it grows).
func (m *Metrics) ClusterPeerHits() uint64 { return m.peerHits.Load() }

// ClusterPeerMiss records a clean peek miss (the owner will get the
// forwarded request instead).
func (m *Metrics) ClusterPeerMiss() { m.peerMisses.Add(1) }

// ClusterForwarded records a request proxied in full to its owning shard.
func (m *Metrics) ClusterForwarded() { m.forwarded.Add(1) }

// ClusterForwards reads the forwarded counter.
func (m *Metrics) ClusterForwards() uint64 { return m.forwarded.Load() }

// ClusterFallback records a local computation of a remotely-owned key
// because the owner was unreachable or shedding.
func (m *Metrics) ClusterFallback() { m.fallbacks.Add(1) }

// ClusterFallbacks reads the fallback counter (the dead-peer tests assert
// availability won over partitioning).
func (m *Metrics) ClusterFallbacks() uint64 { return m.fallbacks.Load() }

// ClusterPeekServed records one answered GET /v1/cache/{key}.
func (m *Metrics) ClusterPeekServed(found bool) {
	if found {
		m.peekHits.Add(1)
	} else {
		m.peekMisses.Add(1)
	}
}

// SetRingPeers publishes the configured cluster size (0 = single-process).
func (m *Metrics) SetRingPeers(n int) { m.ringPeers.Store(int64(n)) }

// BatchRequest records one /v1/batch request carrying n items.
func (m *Metrics) BatchRequest(n int) {
	m.batchRequests.Add(1)
	m.batchItems.Add(uint64(n))
}

// RequestStarted/RequestDone maintain the inflight gauge.
func (m *Metrics) RequestStarted() { m.inflight.Add(1) }

// RequestDone decrements the inflight gauge.
func (m *Metrics) RequestDone() { m.inflight.Add(-1) }

// sortedKeys returns the map's keys in sorted order so scrapes are
// deterministic.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteProm renders every counter in Prometheus text format. cacheLen and
// the pool/queue gauges are read at scrape time; engine counters come from
// the pathmatrix engine itself.
func (m *Metrics) WriteProm(w io.Writer, cacheLen, poolInUse, poolCap, queued, queueCap int) {
	fmt.Fprintf(w, "# HELP addsd_requests_total Requests served, by endpoint and status code.\n")
	fmt.Fprintf(w, "# TYPE addsd_requests_total counter\n")
	m.mu.Lock()
	keys := make([][2]string, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		fmt.Fprintf(w, "addsd_requests_total{endpoint=%q,code=%q} %d\n", k[0], k[1], m.requests[k])
	}
	m.mu.Unlock()

	fmt.Fprintf(w, "# TYPE addsd_cache_hits_total counter\n")
	fmt.Fprintf(w, "addsd_cache_hits_total %d\n", m.hits.Load())
	fmt.Fprintf(w, "# TYPE addsd_cache_misses_total counter\n")
	fmt.Fprintf(w, "addsd_cache_misses_total %d\n", m.misses.Load())
	fmt.Fprintf(w, "# TYPE addsd_cache_coalesced_total counter\n")
	fmt.Fprintf(w, "addsd_cache_coalesced_total %d\n", m.coalesced.Load())
	fmt.Fprintf(w, "# TYPE addsd_cache_entries gauge\n")
	fmt.Fprintf(w, "addsd_cache_entries %d\n", cacheLen)

	fmt.Fprintf(w, "# HELP addsd_shed_total Requests shed by the admission queue (429).\n")
	fmt.Fprintf(w, "# TYPE addsd_shed_total counter\n")
	fmt.Fprintf(w, "addsd_shed_total %d\n", m.shed.Load())
	m.mu.Lock()
	fmt.Fprintf(w, "# TYPE addsd_endpoint_shed_total counter\n")
	for _, k := range sortedKeys(m.shedBy) {
		fmt.Fprintf(w, "addsd_endpoint_shed_total{endpoint=%q} %d\n", k, m.shedBy[k])
	}
	fmt.Fprintf(w, "# HELP addsd_flight_refs Live waiters per endpoint across in-flight computations.\n")
	fmt.Fprintf(w, "# TYPE addsd_flight_refs gauge\n")
	for _, k := range sortedKeys(m.flightRefs) {
		fmt.Fprintf(w, "addsd_flight_refs{endpoint=%q} %d\n", k, m.flightRefs[k])
	}
	m.mu.Unlock()

	fmt.Fprintf(w, "# HELP addsd_cluster_peer_hit_total Requests answered from a peer shard's cache (peek protocol).\n")
	fmt.Fprintf(w, "# TYPE addsd_cluster_peer_hit_total counter\n")
	fmt.Fprintf(w, "addsd_cluster_peer_hit_total %d\n", m.peerHits.Load())
	fmt.Fprintf(w, "# TYPE addsd_cluster_peer_miss_total counter\n")
	fmt.Fprintf(w, "addsd_cluster_peer_miss_total %d\n", m.peerMisses.Load())
	fmt.Fprintf(w, "# HELP addsd_cluster_forwarded_total Requests proxied in full to their owning shard.\n")
	fmt.Fprintf(w, "# TYPE addsd_cluster_forwarded_total counter\n")
	fmt.Fprintf(w, "addsd_cluster_forwarded_total %d\n", m.forwarded.Load())
	fmt.Fprintf(w, "# HELP addsd_cluster_fallback_total Remotely-owned keys computed locally because the owner was unreachable or shedding.\n")
	fmt.Fprintf(w, "# TYPE addsd_cluster_fallback_total counter\n")
	fmt.Fprintf(w, "addsd_cluster_fallback_total %d\n", m.fallbacks.Load())
	fmt.Fprintf(w, "# TYPE addsd_cluster_peek_hit_total counter\n")
	fmt.Fprintf(w, "addsd_cluster_peek_hit_total %d\n", m.peekHits.Load())
	fmt.Fprintf(w, "# TYPE addsd_cluster_peek_miss_total counter\n")
	fmt.Fprintf(w, "addsd_cluster_peek_miss_total %d\n", m.peekMisses.Load())
	fmt.Fprintf(w, "# TYPE addsd_cluster_ring_peers gauge\n")
	fmt.Fprintf(w, "addsd_cluster_ring_peers %d\n", m.ringPeers.Load())

	fmt.Fprintf(w, "# TYPE addsd_batch_requests_total counter\n")
	fmt.Fprintf(w, "addsd_batch_requests_total %d\n", m.batchRequests.Load())
	fmt.Fprintf(w, "# TYPE addsd_batch_items_total counter\n")
	fmt.Fprintf(w, "addsd_batch_items_total %d\n", m.batchItems.Load())

	fmt.Fprintf(w, "# TYPE addsd_inflight_requests gauge\n")
	fmt.Fprintf(w, "addsd_inflight_requests %d\n", m.inflight.Load())
	fmt.Fprintf(w, "# TYPE addsd_pool_in_use gauge\n")
	fmt.Fprintf(w, "addsd_pool_in_use %d\n", poolInUse)
	fmt.Fprintf(w, "# TYPE addsd_pool_capacity gauge\n")
	fmt.Fprintf(w, "addsd_pool_capacity %d\n", poolCap)
	fmt.Fprintf(w, "# TYPE addsd_queue_depth gauge\n")
	fmt.Fprintf(w, "addsd_queue_depth %d\n", queued)
	fmt.Fprintf(w, "# TYPE addsd_queue_capacity gauge\n")
	fmt.Fprintf(w, "addsd_queue_capacity %d\n", queueCap)

	fmt.Fprintf(w, "# TYPE addsd_request_duration_seconds_sum counter\n")
	fmt.Fprintf(w, "addsd_request_duration_seconds_sum %g\n",
		time.Duration(m.latNanos.Load()).Seconds())
	fmt.Fprintf(w, "# TYPE addsd_request_duration_seconds_count counter\n")
	fmt.Fprintf(w, "addsd_request_duration_seconds_count %d\n", m.latCount.Load())

	m.mu.Lock()
	fmt.Fprintf(w, "# HELP addsd_phase_duration_seconds Time per pipeline phase (span durations).\n")
	fmt.Fprintf(w, "# TYPE addsd_phase_duration_seconds histogram\n")
	for _, phase := range sortedKeys(m.phases) {
		m.phases[phase].writeProm(w, "addsd_phase_duration_seconds", fmt.Sprintf("phase=%q", phase))
	}
	fmt.Fprintf(w, "# HELP addsd_fixpoint_iterations Worklist iterations per path-matrix fixpoint run.\n")
	fmt.Fprintf(w, "# TYPE addsd_fixpoint_iterations histogram\n")
	m.fixpointIters.writeProm(w, "addsd_fixpoint_iterations", "")
	m.mu.Unlock()

	es := pathmatrix.ReadStats()
	fmt.Fprintf(w, "# HELP addsd_engine_analyses_total Completed path-matrix analyses (process-wide).\n")
	fmt.Fprintf(w, "# TYPE addsd_engine_analyses_total counter\n")
	fmt.Fprintf(w, "addsd_engine_analyses_total %d\n", es.Analyses)
	fmt.Fprintf(w, "# TYPE addsd_engine_iterations_total counter\n")
	fmt.Fprintf(w, "addsd_engine_iterations_total %d\n", es.Iterations)
	fmt.Fprintf(w, "# TYPE addsd_engine_widenings_total counter\n")
	fmt.Fprintf(w, "addsd_engine_widenings_total %d\n", es.Widenings)
	fmt.Fprintf(w, "# TYPE addsd_engine_matrix_clones_total counter\n")
	fmt.Fprintf(w, "addsd_engine_matrix_clones_total %d\n", es.Clones)
	fmt.Fprintf(w, "# TYPE addsd_engine_interned_paths gauge\n")
	fmt.Fprintf(w, "addsd_engine_interned_paths %d\n", es.InternedPaths)
	fmt.Fprintf(w, "# TYPE addsd_engine_shared_rows_total counter\n")
	fmt.Fprintf(w, "addsd_engine_shared_rows_total %d\n", es.SharedRows)
	fmt.Fprintf(w, "# HELP addsd_engine_summary_computed_total Function summaries computed (content-addressed cache misses).\n")
	fmt.Fprintf(w, "# TYPE addsd_engine_summary_computed_total counter\n")
	fmt.Fprintf(w, "addsd_engine_summary_computed_total %d\n", es.SummaryComputed)
	fmt.Fprintf(w, "# TYPE addsd_engine_summary_reused_total counter\n")
	fmt.Fprintf(w, "addsd_engine_summary_reused_total %d\n", es.SummaryReused)
	fmt.Fprintf(w, "# TYPE addsd_engine_summary_entries gauge\n")
	fmt.Fprintf(w, "addsd_engine_summary_entries %d\n", es.SummaryEntries)
	fmt.Fprintf(w, "# TYPE addsd_engine_summary_applied_total counter\n")
	fmt.Fprintf(w, "addsd_engine_summary_applied_total %d\n", es.SummaryApplied)
	fmt.Fprintf(w, "# TYPE addsd_engine_summary_fallbacks_total counter\n")
	fmt.Fprintf(w, "addsd_engine_summary_fallbacks_total %d\n", es.SummaryFallbacks)

	ss := smg.ReadStats()
	fmt.Fprintf(w, "# HELP addsd_engine_smg_analyses_total Completed SMG-lite analyses (process-wide).\n")
	fmt.Fprintf(w, "# TYPE addsd_engine_smg_analyses_total counter\n")
	fmt.Fprintf(w, "addsd_engine_smg_analyses_total %d\n", ss.Analyses)
	fmt.Fprintf(w, "# TYPE addsd_engine_smg_nodes_total counter\n")
	fmt.Fprintf(w, "addsd_engine_smg_nodes_total %d\n", ss.Nodes)
	fmt.Fprintf(w, "# TYPE addsd_engine_smg_segments_total counter\n")
	fmt.Fprintf(w, "addsd_engine_smg_segments_total %d\n", ss.Segments)
	fmt.Fprintf(w, "# TYPE addsd_engine_smg_materializations_total counter\n")
	fmt.Fprintf(w, "addsd_engine_smg_materializations_total %d\n", ss.Materializations)
}
