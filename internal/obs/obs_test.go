package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerFastPath(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := Start(ctx, "phase")
	if sp != nil {
		t.Fatalf("Start without a tracer: got span %v, want nil", sp)
	}
	if ctx2 != ctx {
		t.Fatalf("Start without a tracer should return the context unchanged")
	}
	// Every span method must be a no-op on nil.
	sp.SetAttr("k", 1)
	sp.End()
	if got := sp.TraceID(); got != (TraceID{}) {
		t.Fatalf("nil span TraceID = %v, want zero", got)
	}
	if got := sp.ID(); got != (SpanID{}) {
		t.Fatalf("nil span ID = %v, want zero", got)
	}
}

func TestSpanTreeParentLinks(t *testing.T) {
	tr := NewTracer(4)
	ctx := With(context.Background(), tr)
	ctx, root := Start(ctx, "root")
	cctx, child := Start(ctx, "child")
	_, grand := Start(cctx, "grandchild")
	grand.SetAttr("iterations", 42)
	grand.End()
	child.End()
	// A sibling opened from the root context, after the first child ended.
	_, sib := Start(ctx, "sibling")
	sib.End()
	root.End()

	trace := tr.Ring().Get(root.TraceID())
	if trace == nil {
		t.Fatalf("finished trace %s not in ring", root.TraceID())
	}
	spans := trace.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["child"].Parent != byName["root"].ID {
		t.Errorf("child parent = %s, want root %s", byName["child"].Parent, byName["root"].ID)
	}
	if byName["grandchild"].Parent != byName["child"].ID {
		t.Errorf("grandchild parent = %s, want child %s", byName["grandchild"].Parent, byName["child"].ID)
	}
	if byName["sibling"].Parent != byName["root"].ID {
		t.Errorf("sibling parent = %s, want root %s", byName["sibling"].Parent, byName["root"].ID)
	}

	js := ToJSON(trace)
	if js.TraceID != root.TraceID().String() {
		t.Errorf("ToJSON trace id = %s, want %s", js.TraceID, root.TraceID())
	}
	if len(js.Spans) != 1 || js.Spans[0].Name != "root" {
		t.Fatalf("want one root span, got %+v", js.Spans)
	}
	if len(js.Spans[0].Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(js.Spans[0].Children))
	}
	var b strings.Builder
	WriteTree(&b, trace)
	out := b.String()
	for _, want := range []string{"root", "  child", "    grandchild", "iterations=42", "  sibling"} {
		if !strings.Contains(out, want) {
			t.Errorf("tree rendering missing %q:\n%s", want, out)
		}
	}
}

func TestLateSpanAfterRootEnds(t *testing.T) {
	// A detached flight may end its spans after the request's root span
	// already flushed the trace to the ring; the late span must still land
	// on the same record.
	tr := NewTracer(4)
	ctx := With(context.Background(), tr)
	ctx, root := Start(ctx, "root")
	_, late := Start(ctx, "flight")
	root.End()
	late.End()
	trace := tr.Ring().Get(root.TraceID())
	if got := len(trace.Snapshot()); got != 2 {
		t.Fatalf("got %d spans after late End, want 2", got)
	}
}

func TestStartRootAdoptsIncomingTraceID(t *testing.T) {
	tr := NewTracer(4)
	want, err := ParseTraceID("0af7651916cd43dd8448eb211c80319c")
	if err != nil {
		t.Fatal(err)
	}
	_, sp := tr.StartRoot(context.Background(), "http", want)
	sp.End()
	if sp.TraceID() != want {
		t.Fatalf("root trace id = %s, want %s", sp.TraceID(), want)
	}
	if tr.Ring().Get(want) == nil {
		t.Fatalf("trace %s not in ring", want)
	}
}

func TestAdoptCarriesTraceAcrossContexts(t *testing.T) {
	tr := NewTracer(4)
	reqCtx := With(context.Background(), tr)
	reqCtx, root := Start(reqCtx, "request")

	flightCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	flightCtx = Adopt(flightCtx, reqCtx)
	_, sp := Start(flightCtx, "compute")
	sp.End()
	root.End()

	if sp.TraceID() != root.TraceID() {
		t.Fatalf("adopted span trace = %s, want %s", sp.TraceID(), root.TraceID())
	}
	spans := tr.Ring().Get(root.TraceID()).Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
}

func TestRingEviction(t *testing.T) {
	r := NewRing(2)
	ids := make([]TraceID, 3)
	for i := range ids {
		ids[i] = NewTraceID()
		r.Put(&Trace{ID: ids[i]})
	}
	if r.Len() != 2 {
		t.Fatalf("ring len = %d, want 2", r.Len())
	}
	if r.Get(ids[0]) != nil {
		t.Errorf("oldest trace should be evicted")
	}
	if r.Get(ids[1]) == nil || r.Get(ids[2]) == nil {
		t.Errorf("newest traces should survive")
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer(4)
	ctx := With(context.Background(), tr)
	ctx, root := Start(ctx, "root")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, sp := Start(ctx, "worker")
			sp.SetAttr("n", 1)
			sp.End()
		}()
	}
	wg.Wait()
	root.End()
	if got := len(tr.Ring().Get(root.TraceID()).Snapshot()); got != 17 {
		t.Fatalf("got %d spans, want 17", got)
	}
}
