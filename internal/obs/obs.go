// Package obs is the observability spine shared by the adds facade, the
// analysis engine, the service layer, and the CLIs: a context-carried
// tracer (spans with parent links and W3C traceparent interop), a bounded
// ring of recently finished traces, and log/slog construction helpers so
// every tool spells -log-level and -log-format the same way.
//
// Tracing is strictly opt-in and free when off: Start on a context that
// carries no tracer returns a nil *Span, and every *Span method is a no-op
// on a nil receiver, so instrumented code pays one context lookup and one
// nil check per phase — nothing else.
package obs

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Values are kept as any and
// rendered with %v; spans carry engine stats (iteration counts, matrix
// clones), not user payloads.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// Span is one timed phase of a trace. Spans are created by Tracer.Start
// (usually via the package-level Start) and finished with End; attributes
// may be attached any time in between. All methods are nil-safe so callers
// never branch on whether tracing is enabled.
type Span struct {
	tracer *Tracer
	trace  *Trace
	id     SpanID
	parent SpanID
	name   string
	start  time.Time

	mu    sync.Mutex
	attrs []Attr
}

// SetAttr attaches one attribute to the span. Nil-safe.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// End finishes the span and records it on its trace. Ending the trace's
// root span flushes the trace to the tracer's ring and OnEnd hook; spans
// that end later (detached flights finishing after their request) still
// land on the same trace record. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	s.mu.Lock()
	attrs := s.attrs
	s.attrs = nil
	s.mu.Unlock()
	rec := SpanRecord{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Start:  s.start,
		Dur:    end.Sub(s.start),
		Attrs:  attrs,
	}
	s.trace.add(rec)
	if s.tracer != nil {
		if h := s.tracer.OnEnd; h != nil {
			h(rec)
		}
		if s.parent == (SpanID{}) {
			s.tracer.finish(s.trace)
		}
	}
}

// TraceID reports the span's trace identity (for response headers and
// request-scoped log fields). Nil receivers report the zero id.
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.trace.ID
}

// ID reports the span id (the parent id for traceparent propagation
// downstream). Nil receivers report the zero id.
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// SpanRecord is one finished span as stored on a trace. Wire renderings
// (the /debug/trace endpoint, addsc -trace) go through the explicit DTOs
// in render.go rather than marshaling this struct directly.
type SpanRecord struct {
	ID     SpanID
	Parent SpanID
	Name   string
	Start  time.Time
	Dur    time.Duration
	Attrs  []Attr
}

// Trace collects the finished spans of one trace. The record stays live
// while detached work ends spans after the root finished, so reads go
// through Snapshot.
type Trace struct {
	ID TraceID

	mu    sync.Mutex
	spans []SpanRecord
}

func (t *Trace) add(rec SpanRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
}

// Snapshot returns the finished spans ordered by start time (ties broken
// by name so renderings are deterministic).
func (t *Trace) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]SpanRecord(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Tracer mints spans and keeps the ring of recently finished traces. The
// zero value is usable; construct with NewTracer to size the ring.
type Tracer struct {
	// OnEnd, when set, observes every finished span (the service feeds
	// phase-duration histograms from it). It runs on the goroutine that
	// called End; keep it cheap and concurrency-safe.
	OnEnd func(SpanRecord)

	ring *Ring
}

// NewTracer returns a tracer whose ring keeps the last n finished traces
// (n <= 0 selects DefaultRingSize).
func NewTracer(n int) *Tracer {
	return &Tracer{ring: NewRing(n)}
}

// Ring exposes the finished-trace ring (nil until a trace finished when
// the tracer was not built by NewTracer).
func (t *Tracer) Ring() *Ring { return t.ring }

func (t *Tracer) finish(tr *Trace) {
	if t.ring != nil {
		t.ring.Put(tr)
	}
}

// StartRoot opens a root span under the given trace id, minting a fresh
// trace id when the argument is zero (no incoming traceparent). It is the
// entry point for request boundaries; in-process phases use Start.
func (t *Tracer) StartRoot(ctx context.Context, name string, id TraceID) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if id == (TraceID{}) {
		id = NewTraceID()
	}
	sp := &Span{
		tracer: t,
		trace:  &Trace{ID: id},
		id:     NewSpanID(),
		name:   name,
		start:  time.Now(),
	}
	ctx = context.WithValue(ctx, tracerKey{}, t)
	ctx = context.WithValue(ctx, spanKey{}, sp)
	return ctx, sp
}

type (
	tracerKey struct{}
	spanKey   struct{}
)

// With attaches a tracer to the context so Start opens real spans below.
func With(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey{}, t)
}

// FromContext returns the context's tracer, or nil.
func FromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// SpanFromContext returns the context's current span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// Start opens a child span of the context's current span (a root span when
// the context carries a tracer but no span yet). When the context carries
// no tracer it returns (ctx, nil) without allocating — the nil-tracer fast
// path every instrumented phase relies on.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	t := FromContext(ctx)
	if t == nil {
		return ctx, nil
	}
	parent := SpanFromContext(ctx)
	if parent == nil {
		return t.StartRoot(ctx, name, TraceID{})
	}
	sp := &Span{
		tracer: t,
		trace:  parent.trace,
		id:     NewSpanID(),
		parent: parent.id,
		name:   name,
		start:  time.Now(),
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// Adopt grafts the trace context of from onto ctx: the returned context
// carries from's tracer and current span but ctx's deadline and values
// otherwise. It is how a detached computation (a cache flight outliving
// any one request) keeps its spans on the trace of the request that
// started it.
func Adopt(ctx, from context.Context) context.Context {
	t := FromContext(from)
	if t == nil {
		return ctx
	}
	ctx = context.WithValue(ctx, tracerKey{}, t)
	if sp := SpanFromContext(from); sp != nil {
		ctx = context.WithValue(ctx, spanKey{}, sp)
	}
	return ctx
}
