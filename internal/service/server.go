package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/adds"
	"repro/adds/wire"
	"repro/internal/core/pathmatrix"
	"repro/internal/exper"
	"repro/internal/obs"
	"repro/internal/respond"
)

// DefaultMaxBodyBytes bounds request bodies when Config.MaxBodyBytes is
// zero; mini sources are small, and the cap keeps a hostile client from
// ballooning the cache key hashing. Oversized bodies are a 413 with a typed
// TooLargeError envelope, rejected before the JSON decoder runs.
const DefaultMaxBodyBytes = 4 << 20

// DefaultMaxBatchItems bounds /v1/batch item counts when
// Config.MaxBatchItems is zero.
const DefaultMaxBatchItems = 256

// StatusClientClosedRequest reports a request whose context was cancelled
// by the client (nginx's 499 convention; Go has no named constant).
const StatusClientClosedRequest = 499

// Config sizes the server. Zero values select the defaults.
type Config struct {
	CacheEntries   int           // bound on cached results (default 512)
	Workers        int           // concurrent analyses (default GOMAXPROCS)
	QueueDepth     int           // flights queued for a slot before shedding (default 4×workers; <0 = no queue)
	RequestTimeout time.Duration // per-flight analysis budget (default 30s)
	MaxBodyBytes   int64         // request-body bound, 413 beyond it (default DefaultMaxBodyBytes)
	MaxBatchItems  int           // /v1/batch item bound, 413 beyond it (default DefaultMaxBatchItems)

	// Peers enables cluster shard/proxy mode: the full peer list (host:port,
	// this process included as Self). Each request's content-address key is
	// placed on a consistent-hash ring over Peers; a request for a key
	// another shard owns is answered by peeking that shard's cache, then
	// forwarding, then — if the owner is unreachable — computing locally.
	Peers       []string
	Self        string        // this process's advertised addr within Peers
	PeerTimeout time.Duration // per peer-attempt budget (default cluster.DefaultPeerTimeout)

	Logger    *slog.Logger // access + lifecycle log (default: discard)
	TraceRing int          // finished traces kept for /debug/trace/{id} (default obs.DefaultRingSize)
}

func (c Config) withDefaults() Config {
	if c.CacheEntries == 0 {
		c.CacheEntries = 512
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.MaxBatchItems == 0 {
		c.MaxBatchItems = DefaultMaxBatchItems
	}
	return c
}

// Server is the addsd daemon core: handlers plus the cache, pool, and
// metrics they share. Construct with New and mount Handler.
type Server struct {
	cfg     Config
	cache   *Cache
	pool    *pool
	metrics *Metrics
	logger  *slog.Logger
	tracer  *obs.Tracer
	mux     *http.ServeMux

	// cluster is non-nil in shard/proxy mode (Config.Peers). clusterErr
	// records a misconfiguration (self missing from the peer list, bad
	// ring): the server still serves single-process, but /readyz reports
	// not-ready so no proxy routes to a shard with a broken ring view.
	cluster    *clusterState
	clusterErr string

	// computeHook, when non-nil, replaces an endpoint's compute function.
	// It is a fault-injection seam for tests (slow, failing, or hanging
	// computations); returning nil keeps the real compute. Never set in
	// production.
	computeHook func(endpoint string) func(ctx context.Context) (response, error)
}

// New builds a server from the config.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   NewCache(cfg.CacheEntries),
		pool:    newPool(cfg.Workers, cfg.QueueDepth),
		metrics: NewMetrics(),
		logger:  cfg.Logger,
		tracer:  obs.NewTracer(cfg.TraceRing),
		mux:     http.NewServeMux(),
	}
	if s.logger == nil {
		s.logger = obs.Nop()
	}
	s.cluster, s.clusterErr = newClusterState(cfg)
	if s.cluster != nil {
		s.metrics.ringPeers.Store(int64(s.cluster.ring.Len()))
	}
	// Every finished span feeds the per-phase duration histograms (and the
	// fixpoint spans their iteration counts).
	s.tracer.OnEnd = s.observeSpan
	// Flights run detached from any single request's context; the request
	// timeout bounds the shared computation, not the wait of one client.
	s.cache.FlightTimeout = cfg.RequestTimeout

	// The versioned API.
	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/depgraph", s.handleDepgraph)
	s.mux.HandleFunc("POST /v1/pipeline", s.handlePipeline)
	s.mux.HandleFunc("POST /v1/reanalyze", s.handleReanalyze)
	s.mux.HandleFunc("GET /v1/cache/{key}", s.handleCachePeek)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperimentList)
	s.mux.HandleFunc("GET /v1/oracles", s.handleOracleList)
	s.mux.HandleFunc("GET /v1/experiments/{id}", s.handleExperiment)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/trace/{id}", s.handleTrace)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Metrics exposes the registry (cmd/addsd logs a summary on shutdown).
func (s *Server) Metrics() *Metrics { return s.metrics }

// observeSpan feeds a finished span into the phase-duration histograms.
// Root request spans are excluded — request latency already has its own
// endpoint-labeled histogram.
func (s *Server) observeSpan(rec obs.SpanRecord) {
	if strings.HasPrefix(rec.Name, "http ") {
		return
	}
	s.metrics.ObservePhase(rec.Name, rec.Dur)
	if rec.Name != "fixpoint" {
		return
	}
	for _, a := range rec.Attrs {
		if n, ok := a.Value.(int); ok && a.Key == "iterations" {
			s.metrics.ObserveFixpointIters(n)
		}
	}
}

// traced reports whether requests to this endpoint get a root span. Infra
// scrapes (health checks, metrics, pprof, the trace viewer itself) do not:
// a 10s healthz poll would churn the whole trace ring between two requests
// anyone cares about.
func traced(label string) bool {
	switch label {
	case "analyze", "batch", "depgraph", "pipeline", "reanalyze", "experiments":
		return true
	}
	return false
}

// reqStats is the per-request channel from serveCached back to the access
// log: which cache outcome answered, how long the flight queued for a pool
// slot, and whether admission shed the request. Mutex-guarded because the
// leader's flight writes queueWait from its own goroutine.
type reqStats struct {
	mu         sync.Mutex
	outcome    string // cache outcome, possibly cluster-qualified (peer-hit, forwarded, fallback-miss)
	hasOutcome bool
	queueWait  time.Duration
	shed       bool
}

type reqStatsKey struct{}

func reqStatsFrom(ctx context.Context) *reqStats {
	rs, _ := ctx.Value(reqStatsKey{}).(*reqStats)
	return rs
}

func (rs *reqStats) setOutcome(o string) {
	if rs == nil {
		return
	}
	rs.mu.Lock()
	rs.outcome, rs.hasOutcome = o, true
	rs.mu.Unlock()
}

func (rs *reqStats) setQueueWait(d time.Duration) {
	if rs == nil {
		return
	}
	rs.mu.Lock()
	rs.queueWait = d
	rs.mu.Unlock()
}

func (rs *reqStats) setShed() {
	if rs == nil {
		return
	}
	rs.mu.Lock()
	rs.shed = true
	rs.mu.Unlock()
}

func (rs *reqStats) snapshot() (o string, has bool, wait time.Duration, shed bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.outcome, rs.hasOutcome, rs.queueWait, rs.shed
}

// Handler returns the daemon's root handler: the route mux wrapped with
// request-id/traceparent ingest, the root span, the typed 404/405
// envelope, the inflight/latency metrics, and one structured access-log
// line per request.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.inflight.Add(1)
		defer s.metrics.inflight.Add(-1)
		start := time.Now()
		label := endpointLabel(r.URL.Path)

		reqID := r.Header.Get("X-Request-Id")
		if reqID == "" {
			reqID = obs.NewSpanID().String()
		}
		w.Header().Set("X-Request-Id", reqID)

		var root *obs.Span
		rs := &reqStats{}
		ctx := context.WithValue(r.Context(), reqStatsKey{}, rs)
		if traced(label) {
			var traceID obs.TraceID
			if h := r.Header.Get("Traceparent"); h != "" {
				if tp, err := obs.ParseTraceparent(h); err == nil {
					traceID = tp.TraceID
				}
			}
			ctx, root = s.tracer.StartRoot(ctx, "http "+label, traceID)
			root.SetAttr("requestId", reqID)
			root.SetAttr("method", r.Method)
			root.SetAttr("path", r.URL.Path)
			w.Header().Set("Traceparent",
				obs.Traceparent{TraceID: root.TraceID(), Parent: root.ID(), Flags: 0x01}.Format())
		}
		r = r.WithContext(ctx)

		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		if h, pattern := s.mux.Handler(r); pattern == "" {
			writeRouteError(sw, r, h)
		} else {
			s.mux.ServeHTTP(sw, r)
		}

		dur := time.Since(start)
		if root != nil {
			root.SetAttr("status", sw.code)
			root.End()
		}
		s.metrics.ObserveRequest(label, sw.code, dur)

		outcome, hasOutcome, queueWait, shed := rs.snapshot()
		attrs := []slog.Attr{
			slog.String("requestId", reqID),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("endpoint", label),
			slog.Int("status", sw.code),
			slog.Duration("duration", dur),
		}
		if root != nil {
			attrs = append(attrs, slog.String("traceId", root.TraceID().String()))
		}
		if hasOutcome {
			attrs = append(attrs,
				slog.String("cache", outcome),
				slog.Duration("queueWait", queueWait))
		}
		if shed {
			attrs = append(attrs, slog.Bool("shed", true))
		}
		s.logger.LogAttrs(context.Background(), slog.LevelInfo, "request", attrs...)
	})
}

// headerRecorder captures what the mux's built-in error handler would have
// answered (404, or 405 with an Allow header) so the middleware can rewrite
// it as the typed JSON envelope.
type headerRecorder struct {
	header http.Header
	code   int
}

func (h *headerRecorder) Header() http.Header         { return h.header }
func (h *headerRecorder) Write(p []byte) (int, error) { return len(p), nil }
func (h *headerRecorder) WriteHeader(code int)        { h.code = code }

// writeRouteError serves an unrouted request (no pattern matched) through
// the JSON error envelope instead of net/http's plain-text defaults.
func writeRouteError(w http.ResponseWriter, r *http.Request, h http.Handler) {
	rec := &headerRecorder{header: make(http.Header), code: http.StatusNotFound}
	h.ServeHTTP(rec, r)
	if rec.code == http.StatusMethodNotAllowed {
		if allow := rec.header.Get("Allow"); allow != "" {
			w.Header().Set("Allow", allow)
		}
		writeJSON(w, http.StatusMethodNotAllowed,
			wire.ErrorEnvelope{Error: fmt.Sprintf("method %s not allowed on %s", r.Method, r.URL.Path)})
		return
	}
	writeJSON(w, http.StatusNotFound,
		wire.ErrorEnvelope{Error: fmt.Sprintf("no such endpoint: %s %s", r.Method, r.URL.Path)})
}

// statusWriter captures the response code for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so streaming responses (pprof
// traces, long profiles) are not buffered until EOF by the middleware.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController, which
// discovers Flusher/Hijacker/etc. through it.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// endpointLabel buckets paths into a bounded label set so metrics
// cardinality cannot grow with traffic.
func endpointLabel(path string) string {
	if p, ok := strings.CutPrefix(path, "/v1/"); ok {
		switch {
		case p == "analyze", p == "batch", p == "depgraph", p == "pipeline",
			p == "reanalyze", p == "experiments", p == "oracles":
			return p
		case strings.HasPrefix(p, "experiments/"):
			return "experiments"
		case strings.HasPrefix(p, "cache/"):
			return "cache"
		}
		return "other"
	}
	switch {
	case path == "/healthz":
		return "healthz"
	case path == "/readyz":
		return "readyz"
	case path == "/metrics":
		return "metrics"
	case strings.HasPrefix(path, "/debug/trace"):
		return "trace"
	case strings.HasPrefix(path, "/debug/pprof"):
		return "pprof"
	}
	return "other"
}

// statusFor maps an error to its HTTP status and envelope. Shared by
// writeError and the per-item envelopes of /v1/batch.
func statusFor(err error) (int, wire.ErrorEnvelope) {
	code := http.StatusInternalServerError
	body := wire.ErrorEnvelope{Error: err.Error()}
	var se *adds.SourceError
	var ufe *UnknownFieldError
	var tle *TooLargeError
	switch {
	case errors.As(err, &se):
		code = http.StatusUnprocessableEntity
		body.Line, body.Col = se.Line, se.Col
	case errors.As(err, &ufe):
		code = http.StatusBadRequest
		body.Field = ufe.Field
	case errors.As(err, &tle):
		code = http.StatusRequestEntityTooLarge
	case errors.Is(err, respond.ErrBadRequest), errors.Is(err, adds.ErrBadWidth):
		code = http.StatusBadRequest
	case errors.Is(err, adds.ErrUnknownFunction), errors.Is(err, adds.ErrNoSuchLoop),
		errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrOverloaded):
		code = http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		code = StatusClientClosedRequest
	}
	return code, body
}

// writeError maps an error to its HTTP status and writes the envelope.
func writeError(w http.ResponseWriter, err error) {
	code, body := statusFor(err)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, body)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v) //nolint:errcheck // client gone is the only failure
}

// decodeBody parses a JSON request body into v. Unknown fields are a 400,
// not a silent default: a typoed "orcale" key must fail loudly instead of
// answering for the default oracle. Bodies over the configured -max-body
// bound are a 413 with a typed TooLargeError, rejected before the decoder
// reads unbounded input.
func (s *Server) decodeBody(r *http.Request, v any) error {
	limit := s.cfg.MaxBodyBytes
	body, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		return fmt.Errorf("%w: reading body: %v", respond.ErrBadRequest, err)
	}
	if int64(len(body)) > limit {
		return &TooLargeError{What: "body", Limit: limit}
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		// encoding/json reports the offender only in the message, as
		// `json: unknown field "name"`; surface it as a typed error so the
		// envelope can echo the field.
		if rest, ok := strings.CutPrefix(err.Error(), `json: unknown field "`); ok {
			return &UnknownFieldError{Field: strings.TrimSuffix(rest, `"`)}
		}
		return fmt.Errorf("%w: %v", respond.ErrBadRequest, err)
	}
	return nil
}

// serveCached answers one POST endpoint through the content-addressed
// cache: canonicalize the request, derive the key, and on miss run compute
// as a detached flight — on a pool slot charged to the flight, under the
// flight timeout, alive as long as any waiter remains. The handler itself
// only waits, selecting on its own request context, so one client's
// disconnect never decides another client's answer. The cached value is the
// encoded response body, so hits cost one map lookup and one write.
//
// The leader's flight adopts the trace of the request that started it, so
// compute-side spans (queue wait, analysis phases) land on that request's
// trace; coalesced waiters keep only their own root span.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, endpoint string, req any, compute func(ctx context.Context) (response, error)) {
	key, canonical, compute, err := s.keyed(endpoint, req, compute)
	if err != nil {
		writeError(w, err)
		return
	}
	label := endpointLabel(r.URL.Path)
	res := s.resolve(r.Context(), label, endpoint, key, canonical, isForwarded(r), compute)
	if res.err != nil {
		writeError(w, res.err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", res.cache)
	w.WriteHeader(res.status)
	w.Write(res.body) //nolint:errcheck
	if len(res.body) == 0 || res.body[len(res.body)-1] != '\n' {
		io.WriteString(w, "\n") //nolint:errcheck
	}
}

// resolved is the outcome of resolving one content-addressed request:
// either err (mapped through statusFor), or status plus the response body —
// which for a forwarded 4xx is the owning peer's error envelope, relayed
// verbatim so single-process and cluster answers stay byte-identical.
type resolved struct {
	status int
	body   []byte
	cache  string // X-Cache value: hit|miss|coalesced, peer-hit|forwarded, or fallback-*
	err    error
}

// resolve serves one request through the cluster (when configured) and the
// local cache. A key another shard owns is answered by peeking that shard's
// cache, then forwarding the canonical request; if the owner is unreachable
// or shedding, the request is computed locally — availability beats
// placement. A request that already made a hop (ForwardedHeader) is always
// local, so disagreeing ring views can never bounce it a second time.
func (s *Server) resolve(ctx context.Context, label, endpoint, key string, canonical []byte, forwarded bool, compute func(ctx context.Context) (response, error)) resolved {
	if s.cluster != nil && !forwarded {
		if owner := s.cluster.ring.Owner(key); owner != s.cluster.self {
			if res, ok := s.viaPeer(ctx, owner, endpoint, key, canonical); ok {
				rs := reqStatsFrom(ctx)
				rs.setOutcome(res.cache)
				return res
			}
			return s.localResolve(ctx, label, key, "fallback-", compute)
		}
	}
	return s.localResolve(ctx, label, key, "", compute)
}

// admit takes a pool slot behind the admission queue for one computation,
// under a "queue" span that is marked shed when the slot is refused, and
// records the request's queue wait. The caller releases the slot once admit
// returns nil; counting a shed stays with the caller.
func (s *Server) admit(ctx context.Context, rs *reqStats) error {
	qstart := time.Now()
	_, qspan := obs.Start(ctx, "queue")
	if err := s.pool.acquire(ctx); err != nil {
		qspan.SetAttr("shed", true)
		qspan.End()
		return err
	}
	qspan.End()
	rs.setQueueWait(time.Since(qstart))
	return nil
}

// response is what a cached endpoint computes: an answer that appends its
// own JSON encoding (wire.AnalyzeResponse, DepgraphResponse,
// PipelineResponse and exper.Report), the bytes json.Marshal writes for it.
type response interface{ AppendJSON(dst []byte) []byte }

// encodeBufs holds the scratch buffers responses are encoded into.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledEncode caps the scratch buffers kept for reuse, so one huge
// response does not pin its buffer.
const maxPooledEncode = 1 << 20

// encode writes resp in one pass into a reused scratch buffer and returns a
// copy of just its bytes, as json.Marshal does, so a cached body carries no
// buffer slack.
func encode(resp response) []byte {
	bp := encodeBufs.Get().(*[]byte)
	buf := resp.AppendJSON((*bp)[:0])
	body := bytes.Clone(buf)
	if cap(buf) <= maxPooledEncode {
		*bp = buf
		encodeBufs.Put(bp)
	}
	return body
}

// localResolve is the single-process path: the content-addressed cache with
// singleflight, computing on a pool slot behind the admission queue. prefix
// qualifies the cache outcome when this is a cluster fallback.
func (s *Server) localResolve(reqCtx context.Context, label, key, prefix string, compute func(ctx context.Context) (response, error)) resolved {
	rs := reqStatsFrom(reqCtx)
	val, outcome, err := s.cache.Do(reqCtx, key, func(ctx context.Context) ([]byte, error) {
		ctx = obs.Adopt(ctx, reqCtx)
		if err := s.admit(ctx, rs); err != nil {
			return nil, err
		}
		defer s.pool.release()
		resp, err := compute(ctx)
		if err != nil {
			return nil, err
		}
		return encode(resp), nil
	}, func(delta int) { s.metrics.FlightRefs(label, delta) })
	s.metrics.ObserveCache(outcome)
	rs.setOutcome(prefix + outcome.String())
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.metrics.ObserveShed(label)
			rs.setShed()
		}
		return resolved{err: err}
	}
	return resolved{status: http.StatusOK, body: val, cache: prefix + outcome.String()}
}

// keyed returns the key and canonical body one request is cached and
// forwarded under, and compute unless the computeHook replaces it. An
// analyze request keys with Workers zeroed, as its result does not depend
// on the worker count (see pathmatrix.AnalyzeProgramCtx).
func (s *Server) keyed(endpoint string, req any, compute func(ctx context.Context) (response, error)) (key string, canonical []byte, _ func(ctx context.Context) (response, error), err error) {
	if s.computeHook != nil {
		if h := s.computeHook(endpoint); h != nil {
			compute = h
		}
	}
	if a, ok := req.(*wire.AnalyzeRequest); ok {
		workerless := *a
		workerless.Workers = 0
		req = &workerless
	}
	if canonical, err = json.Marshal(req); err != nil {
		return "", nil, nil, fmt.Errorf("%w: %v", respond.ErrBadRequest, err)
	}
	return respond.Key(endpoint, pathmatrix.EngineVersion, string(canonical)), canonical, compute, nil
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req wire.AnalyzeRequest
	if err := s.decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	s.serveCached(w, r, "analyze", &req, func(ctx context.Context) (response, error) {
		return respond.BuildAnalyze(ctx, &req)
	})
}

func (s *Server) handleDepgraph(w http.ResponseWriter, r *http.Request) {
	var req wire.DepgraphRequest
	if err := s.decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	s.serveCached(w, r, "depgraph", &req, func(ctx context.Context) (response, error) {
		return respond.BuildDepgraph(ctx, &req)
	})
}

func (s *Server) handlePipeline(w http.ResponseWriter, r *http.Request) {
	var req wire.PipelineRequest
	if err := s.decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	s.serveCached(w, r, "pipeline", &req, func(ctx context.Context) (response, error) {
		return respond.BuildPipeline(ctx, &req)
	})
}

// handleReanalyze runs whole-program analysis uncached: the response's
// summary counters are per-run facts (how much the content-addressed summary
// cache absorbed THIS time), so serving a cached body would be wrong by
// construction. It still runs on a pool slot under the request timeout, with
// the same queue span and shed accounting as the cached endpoints.
func (s *Server) handleReanalyze(w http.ResponseWriter, r *http.Request) {
	var req wire.ReanalyzeRequest
	if err := s.decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	ctx := r.Context()
	rs := reqStatsFrom(ctx)
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	if err := s.admit(ctx, rs); err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.metrics.ObserveShed("reanalyze")
			rs.setShed()
		}
		writeError(w, err)
		return
	}
	defer s.pool.release()
	resp, err := respond.BuildReanalyze(ctx, &req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleExperimentList(w http.ResponseWriter, _ *http.Request) {
	defs := []wire.ExperimentDef{}
	for _, d := range adds.ExperimentDefs() {
		defs = append(defs, wire.ExperimentDef{ID: d.ID, Title: d.Title})
	}
	writeJSON(w, http.StatusOK, defs)
}

// handleOracleList answers GET /v1/oracles with the alias-oracle table,
// in listing order — the same list the -oracle flag accepts and the
// analyze/depgraph "oracle" field validates against. The rows derive from
// the table, so a new oracle appears here without a server change.
func (s *Server) handleOracleList(w http.ResponseWriter, _ *http.Request) {
	infos := []wire.OracleInfo{}
	for _, o := range adds.Oracles() {
		infos = append(infos, wire.OracleInfo{Name: o.Name, Description: o.Description, AcceptsK: o.NeedsK})
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Experiments take no input, so the id plus engine version is the whole
	// content address. exper.ByID is not context-aware, but the flight it
	// runs on already is the detachment mechanism: a client that gives up
	// waiting leaves the flight, the computation finishes on its own
	// goroutine, and the result is cached for (or coalesced with) the next
	// identical request — reused, never leaked per-request.
	s.serveCached(w, r, "experiment:"+id, struct{}{}, func(ctx context.Context) (response, error) {
		rep := exper.ByID(id)
		if rep == nil {
			return nil, fmt.Errorf("%w: experiment %q (known: E1..E10)", ErrNotFound, id)
		}
		return rep, nil
	})
}

// handleTrace serves one finished trace from the ring, as the span-tree
// JSON by default or the addsc -trace text rendering with ?format=text.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id, err := obs.ParseTraceID(r.PathValue("id"))
	if err != nil {
		writeError(w, fmt.Errorf("%w: %v", respond.ErrBadRequest, err))
		return
	}
	t := s.tracer.Ring().Get(id)
	if t == nil {
		writeError(w, fmt.Errorf("%w: trace %s (ring keeps the last %d finished traces)",
			ErrNotFound, id, s.tracer.Ring().Len()))
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		obs.WriteTree(w, t)
		return
	}
	writeJSON(w, http.StatusOK, obs.ToJSON(t))
}

// handleHealthz is liveness only: 200 whenever the process is serving,
// regardless of load. Routing decisions (queue saturation, ring
// configuration) belong to /readyz — a saturated shard is alive but must
// not receive new traffic.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{
		"status": "ok",
		"engine": pathmatrix.EngineVersion,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteProm(w, s.cache.Len(), s.pool.inUse(), s.pool.capacity(),
		s.pool.queued(), s.pool.queueCapacity())
}
