package respond

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/adds"
	"repro/adds/wire"
	"repro/internal/obs"
)

// TestBuildRunsEachFixpointOnce: no request runs the same path-matrix
// fixpoint twice. BuildAnalyze of listops.mini analyzes its six functions
// once each and builds one classic comparison oracle for each of the four
// functions with loops; every gpm oracle answers from those analyses.
// BuildPipeline analyzes the one function it pipelines. Not parallel: the
// engine counter is process-wide.
func TestBuildRunsEachFixpointOnce(t *testing.T) {
	read := func(path string) string {
		t.Helper()
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(src)
	}
	ctx := context.Background()
	analyze := &wire.AnalyzeRequest{Source: read("../../testdata/listops.mini")}
	pipeline := &wire.PipelineRequest{Source: read("../../examples/shift.mini"), Fn: "shift"}
	for _, c := range []struct {
		name  string
		want  uint64
		build func() error
	}{
		{"BuildAnalyze listops.mini", 10, func() error { _, err := BuildAnalyze(ctx, analyze); return err }},
		{"BuildPipeline shift", 1, func() error { _, err := BuildPipeline(ctx, pipeline); return err }},
	} {
		// The first call fills the summary cache, whose misses are
		// fixpoints of their own.
		if err := c.build(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		before := adds.ReadEngineStats().Analyses
		if err := c.build(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := adds.ReadEngineStats().Analyses - before; got != c.want {
			t.Errorf("%s ran %d fixpoints, want %d", c.name, got, c.want)
		}
	}
}

// TestBuildAnalyzeBuildsTablesOnce: one request lowers its unit once and
// builds two summary tables, the ADDS-informed one and the stripped one
// every classic comparison oracle of the request shares. The stripped table
// summarizes only what the looped functions' classic runs call, under a
// "summaries" span of its own only when that is anything: a traced
// BuildAnalyze of each testdata program opens one "normalize" span and
// exactly as many "summaries" spans as its call graph implies. treeops'
// main has a loop and calls summarizable functions; no looped function of
// the other two programs does.
func TestBuildAnalyzeBuildsTablesOnce(t *testing.T) {
	wantSummaries := map[string]int{"listops.mini": 1, "matrixops.mini": 1, "treeops.mini": 2}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.mini"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer(1)
		ctx, root := tr.StartRoot(context.Background(), "test", obs.TraceID{})
		if _, err := BuildAnalyze(ctx, &wire.AnalyzeRequest{Source: string(src)}); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		root.End()
		count := map[string]int{}
		for _, rec := range tr.Ring().Get(root.TraceID()).Snapshot() {
			count[rec.Name]++
		}
		name := filepath.Base(file)
		if want := wantSummaries[name]; count["normalize"] != 1 || count["summaries"] != want {
			t.Errorf("%s: %d normalize and %d summaries spans, want 1 and %d",
				name, count["normalize"], count["summaries"], want)
		}
	}
}

// TestEngineSumsMatchSpans: the engine sums are the runs' own counts, added
// once per run. Over a serial, traced BuildAnalyze of each testdata
// program, the ReadEngineStats delta equals the sum of the trace's
// fixpoint and summaries span attributes, and Analyses counts the fixpoint
// spans. Not parallel: the sums are process-wide.
func TestEngineSumsMatchSpans(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.mini"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer(1)
		ctx, root := tr.StartRoot(context.Background(), "test", obs.TraceID{})
		before := adds.ReadEngineStats()
		if _, err := BuildAnalyze(ctx, &wire.AnalyzeRequest{Source: string(src), Workers: 1}); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		after := adds.ReadEngineStats()
		root.End()

		var spans adds.EngineStats
		var memoHits uint64
		for _, rec := range tr.Ring().Get(root.TraceID()).Snapshot() {
			attr := func(key string) uint64 {
				for _, a := range rec.Attrs {
					if a.Key != key {
						continue
					}
					switch v := a.Value.(type) {
					case int:
						return uint64(v)
					case uint64:
						return v
					}
					t.Fatalf("%s attribute %s = %#v, want a count", rec.Name, key, a.Value)
				}
				return 0
			}
			switch rec.Name {
			case "fixpoint":
				spans.Analyses++
				spans.Iterations += attr("iterations")
				spans.Widenings += attr("widenings")
				spans.Clones += attr("matrixClones")
				spans.SharedRows += attr("sharedRows")
				// The run's own entry table: it holds at least the three
				// fixed one-relation entries. Neither count is an engine sum.
				if n := attr("entries"); n < 3 {
					t.Errorf("%s: fixpoint span reports %d table entries, want at least 3", filepath.Base(file), n)
				}
				memoHits += attr("joinMemoHits")
				spans.SummaryApplied += attr("summaryApplied")
				spans.SummaryFallbacks += attr("summaryFallbacks")
			case "summaries":
				spans.SummaryComputed += attr("computed")
				spans.SummaryReused += attr("reused")
			}
		}
		delta := adds.EngineStats{
			Analyses:         after.Analyses - before.Analyses,
			Iterations:       after.Iterations - before.Iterations,
			Widenings:        after.Widenings - before.Widenings,
			Clones:           after.Clones - before.Clones,
			SharedRows:       after.SharedRows - before.SharedRows,
			SummaryComputed:  after.SummaryComputed - before.SummaryComputed,
			SummaryReused:    after.SummaryReused - before.SummaryReused,
			SummaryApplied:   after.SummaryApplied - before.SummaryApplied,
			SummaryFallbacks: after.SummaryFallbacks - before.SummaryFallbacks,
		}
		if delta != spans {
			t.Errorf("%s: engine sums moved by\n%+v\nbut the trace's spans add up to\n%+v", filepath.Base(file), delta, spans)
		}
		if spans.Analyses == 0 {
			t.Errorf("%s: the trace has no fixpoint span", filepath.Base(file))
		}
		if memoHits == 0 {
			t.Errorf("%s: no fixpoint run answered a join from its memo", filepath.Base(file))
		}
	}
}

func TestKeyDistinguishesParts(t *testing.T) {
	if Key("ab", "c") == Key("a", "bc") {
		t.Error("part boundaries must be part of the key")
	}
	if Key("a", "b") != Key("a", "b") {
		t.Error("key not deterministic")
	}
}

// TestKeyPinned pins Key's digests: cluster peers place and look up cached
// bodies by these keys, and addsfuzz names its corpus files after them, so
// they must not change while the engine version stays the same.
func TestKeyPinned(t *testing.T) {
	for _, tc := range []struct {
		parts []string
		want  string
	}{
		{[]string{"analyze", "gpm-5", "x"}, "f9ef536a6c03966e074a8ac9fe7cde29ddb3df65543d8d7a1f9333696f6551cd"},
		{[]string{"pipeline", "gpm-5", `{"source":"void f() { return; }"}`}, "44c15c847bb840184c208b9f00d5dbdddb293776a83ecae64f039cb1d79eeded"},
	} {
		if got := Key(tc.parts...); got != tc.want {
			t.Errorf("Key(%q) = %s, want %s", tc.parts, got, tc.want)
		}
	}
}
