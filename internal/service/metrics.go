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

// Counter names one of the daemon's unlabeled monotone counters.
type Counter int

// The unlabeled counters, in exposition order. The cluster counters split
// by side: the requester's peek answered from the owner's cache
// (ClusterPeerHits), clean peek miss then full forward (ClusterPeerMisses,
// ClusterForwarded), owner unreachable or shedding so computed locally
// (ClusterFallbacks); and the peeks this process answered as owner
// (ClusterPeekHits, ClusterPeekMisses).
const (
	CacheHits Counter = iota
	CacheMisses
	CacheCoalesced
	Shed // requests shed by the admission queue, all endpoints
	ClusterPeerHits
	ClusterPeerMisses
	ClusterForwarded
	ClusterFallbacks
	ClusterPeekHits
	ClusterPeekMisses
	BatchRequests
	BatchItems
	numCounters
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

	counts [numCounters]atomic.Uint64

	inflight  atomic.Int64
	ringPeers atomic.Int64 // configured cluster size (0 = single-process)
	latNanos  atomic.Int64
	latCount  atomic.Uint64
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

func (m *Metrics) add(c Counter, n uint64) { m.counts[c].Add(n) }

// Count reads one counter (cmd/addsd's shutdown line and the tests).
func (m *Metrics) Count(c Counter) uint64 { return m.counts[c].Load() }

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
		m.add(CacheHits, 1)
	case Miss:
		m.add(CacheMisses, 1)
	case Coalesced:
		m.add(CacheCoalesced, 1)
	}
}

// ObserveShed records one request shed by the admission queue.
func (m *Metrics) ObserveShed(endpoint string) {
	m.add(Shed, 1)
	m.mu.Lock()
	m.shedBy[endpoint]++
	m.mu.Unlock()
}

// FlightRefs moves the endpoint's flight-refcount gauge: +1 when a request
// joins (or starts) a flight, -1 when it leaves. The cache calls it through
// the per-endpoint hook the server installs.
func (m *Metrics) FlightRefs(endpoint string, delta int) {
	m.mu.Lock()
	m.flightRefs[endpoint] += int64(delta)
	m.mu.Unlock()
}

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

// writeSeries renders one unlabeled series: the HELP line when help is set,
// the TYPE line, and the value.
func writeSeries(w io.Writer, name, typ, help string, v any) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n%s %v\n", name, typ, name, v)
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

	writeSeries(w, "addsd_cache_hits_total", "counter", "", m.Count(CacheHits))
	writeSeries(w, "addsd_cache_misses_total", "counter", "", m.Count(CacheMisses))
	writeSeries(w, "addsd_cache_coalesced_total", "counter", "", m.Count(CacheCoalesced))
	writeSeries(w, "addsd_cache_entries", "gauge", "", cacheLen)

	writeSeries(w, "addsd_shed_total", "counter", "Requests shed by the admission queue (429).", m.Count(Shed))
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

	writeSeries(w, "addsd_cluster_peer_hit_total", "counter",
		"Requests answered from a peer shard's cache (peek protocol).", m.Count(ClusterPeerHits))
	writeSeries(w, "addsd_cluster_peer_miss_total", "counter", "", m.Count(ClusterPeerMisses))
	writeSeries(w, "addsd_cluster_forwarded_total", "counter",
		"Requests proxied in full to their owning shard.", m.Count(ClusterForwarded))
	writeSeries(w, "addsd_cluster_fallback_total", "counter",
		"Remotely-owned keys computed locally because the owner was unreachable or shedding.", m.Count(ClusterFallbacks))
	writeSeries(w, "addsd_cluster_peek_hit_total", "counter", "", m.Count(ClusterPeekHits))
	writeSeries(w, "addsd_cluster_peek_miss_total", "counter", "", m.Count(ClusterPeekMisses))
	writeSeries(w, "addsd_cluster_ring_peers", "gauge", "", m.ringPeers.Load())

	writeSeries(w, "addsd_batch_requests_total", "counter", "", m.Count(BatchRequests))
	writeSeries(w, "addsd_batch_items_total", "counter", "", m.Count(BatchItems))

	writeSeries(w, "addsd_inflight_requests", "gauge", "", m.inflight.Load())
	writeSeries(w, "addsd_pool_in_use", "gauge", "", poolInUse)
	writeSeries(w, "addsd_pool_capacity", "gauge", "", poolCap)
	writeSeries(w, "addsd_queue_depth", "gauge", "", queued)
	writeSeries(w, "addsd_queue_capacity", "gauge", "", queueCap)

	writeSeries(w, "addsd_request_duration_seconds_sum", "counter", "", time.Duration(m.latNanos.Load()).Seconds())
	writeSeries(w, "addsd_request_duration_seconds_count", "counter", "", m.latCount.Load())

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
	writeSeries(w, "addsd_engine_analyses_total", "counter", "Completed path-matrix analyses (process-wide).", es.Analyses)
	writeSeries(w, "addsd_engine_iterations_total", "counter", "", es.Iterations)
	writeSeries(w, "addsd_engine_widenings_total", "counter", "", es.Widenings)
	writeSeries(w, "addsd_engine_matrix_clones_total", "counter", "", es.Clones)
	writeSeries(w, "addsd_engine_shared_rows_total", "counter", "", es.SharedRows)
	writeSeries(w, "addsd_engine_summary_computed_total", "counter",
		"Function summaries computed (content-addressed cache misses).", es.SummaryComputed)
	writeSeries(w, "addsd_engine_summary_reused_total", "counter", "", es.SummaryReused)
	writeSeries(w, "addsd_engine_summary_entries", "gauge", "", es.SummaryEntries)
	writeSeries(w, "addsd_engine_summary_applied_total", "counter", "", es.SummaryApplied)
	writeSeries(w, "addsd_engine_summary_fallbacks_total", "counter", "", es.SummaryFallbacks)

	ss := smg.ReadStats()
	writeSeries(w, "addsd_engine_smg_analyses_total", "counter", "Completed SMG-lite analyses (process-wide).", ss.Analyses)
	writeSeries(w, "addsd_engine_smg_nodes_total", "counter", "", ss.Nodes)
	writeSeries(w, "addsd_engine_smg_segments_total", "counter", "", ss.Segments)
	writeSeries(w, "addsd_engine_smg_materializations_total", "counter", "", ss.Materializations)
}
