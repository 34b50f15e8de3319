package adds

import (
	"context"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestTracedAnalysisPhases: loading and analyzing under a root span records
// every front-end and engine phase on one trace, the phase durations are
// explained by the root duration, and the fixpoint span carries its engine
// stats.
func TestTracedAnalysisPhases(t *testing.T) {
	tr := NewTracer(4)
	ctx, root := tr.StartRoot(context.Background(), "test", obs.TraceID{})

	u, err := LoadCtx(ctx, []byte(shiftSrc))
	if err != nil {
		t.Fatal(err)
	}
	an, err := u.AnalyzeOpt(ctx, "shift")
	if err != nil {
		t.Fatal(err)
	}
	an.DependencesCtx(ctx, 0, an.GPMOracle())
	root.End()

	trace := tr.Ring().Get(root.TraceID())
	if trace == nil {
		t.Fatal("root trace did not land in the ring")
	}
	totals := map[string]time.Duration{}
	for _, rec := range trace.Snapshot() {
		totals[rec.Name] += rec.Dur
	}
	for _, want := range []string{"test", "parse", "shape", "typecheck", "normalize", "fixpoint", "ir", "depgraph"} {
		if _, ok := totals[want]; !ok {
			t.Errorf("trace is missing phase %q (have %v)", want, totals)
		}
	}

	// The phase spans are disjoint children of the root, so their summed
	// duration cannot exceed the root's.
	var phases time.Duration
	for name, d := range totals {
		if name != "test" {
			phases += d
		}
	}
	if phases > totals["test"] {
		t.Errorf("phases sum to %v, more than the root's %v", phases, totals["test"])
	}

	var iterations any
	for _, rec := range trace.Snapshot() {
		if rec.Name != "fixpoint" {
			continue
		}
		for _, a := range rec.Attrs {
			if a.Key == "iterations" {
				iterations = a.Value
			}
		}
	}
	if n, ok := iterations.(int); !ok || n < 1 {
		t.Errorf("fixpoint span iterations attr = %v, want a positive int", iterations)
	}
}

// TestWithTracerOption: the option alone (no context plumbing) is enough to
// get engine phases traced — the documented one-configuration path.
func TestWithTracerOption(t *testing.T) {
	u := MustLoad(shiftSrc)
	tr := NewTracer(8)
	if _, err := u.AnalyzeOpt(context.Background(), "shift", WithTracer(tr)); err != nil {
		t.Fatal(err)
	}
	// Without a surrounding root span each phase is its own trace; the ring
	// must have seen at least the fixpoint.
	if tr.Ring().Len() == 0 {
		t.Fatal("WithTracer recorded no traces")
	}
}

// TestUntracedContextIsFree: the nil-tracer fast path returns the same
// results with no tracer attached (guarding the zero-overhead claim; the
// perf half is BenchmarkAnalyzeShift).
func TestUntracedContextIsFree(t *testing.T) {
	u := MustLoad(shiftSrc)
	an, err := u.AnalyzeOpt(context.Background(), "shift")
	if err != nil {
		t.Fatal(err)
	}
	if an.Loops() != 1 {
		t.Fatalf("loops = %d, want 1", an.Loops())
	}
}
