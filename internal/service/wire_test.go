package service

import (
	"context"
	"os"
	"testing"

	"repro/adds"
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
	analyze := &AnalyzeRequest{Source: read("../../testdata/listops.mini")}
	pipeline := &PipelineRequest{Source: read("../../examples/shift.mini"), Fn: "shift"}
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
