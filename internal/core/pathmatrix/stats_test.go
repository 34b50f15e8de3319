package pathmatrix

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// traceSpans runs fn under a fresh tracer and returns the finished spans
// called name, in the order they ended.
func traceSpans(t *testing.T, name string, fn func(ctx context.Context)) []obs.SpanRecord {
	t.Helper()
	tr := obs.NewTracer(1)
	ctx, root := tr.StartRoot(context.Background(), "test", obs.TraceID{})
	fn(ctx)
	root.End()
	var out []obs.SpanRecord
	for _, rec := range tr.Ring().Get(root.TraceID()).Snapshot() {
		if rec.Name == name {
			out = append(out, rec)
		}
	}
	return out
}

// spanAttr returns the value of rec's attribute key, or nil.
func spanAttr(rec obs.SpanRecord, key string) any {
	for _, a := range rec.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

// renderSpans writes one line of key=value attributes per span.
func renderSpans(recs []obs.SpanRecord) string {
	var b strings.Builder
	for _, rec := range recs {
		for _, a := range rec.Attrs {
			fmt.Fprintf(&b, " %s=%v", a.Key, a.Value)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestConcurrentRunStats: each fixpoint run counts its own work, so the
// span attributes of listops.mini's function runs are the same whether the
// program is analysed alone or while two goroutines analyse treeops.mini.
func TestConcurrentRunStats(t *testing.T) {
	dir := filepath.Join("..", "..", "..", "testdata")
	list := loadMini(t, filepath.Join(dir, "listops.mini"))
	tree := loadMini(t, filepath.Join(dir, "treeops.mini"))
	render := func() string {
		return renderSpans(traceSpans(t, "fixpoint", func(ctx context.Context) {
			if _, err := AnalyzeProgramCtx(ctx, list, list.Env, 1); err != nil {
				t.Fatal(err)
			}
		}))
	}
	render() // fill the summary cache, so no later render runs summaries
	alone := render()
	if strings.Count(alone, "fn=") != len(list.Funcs) {
		t.Fatalf("want one fixpoint span per function, got:\n%s", alone)
	}

	stop := make(chan struct{})
	var running, done sync.WaitGroup
	defer func() {
		close(stop)
		done.Wait()
	}()
	for w := 0; w < 2; w++ {
		running.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			for i := 0; ; i++ {
				if _, err := AnalyzeProgramCtx(context.Background(), tree, tree.Env, 1); err != nil {
					t.Error(err)
				}
				if i == 0 {
					running.Done()
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	running.Wait()
	bad := 0
	for i := 0; i < 20; i++ {
		if got := render(); got != alone {
			if bad++; bad == 1 {
				t.Errorf("span attributes under concurrent analyses:\n%s\nwant (alone):\n%s", got, alone)
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of 20 renders differ from the one made alone", bad)
	}
}
