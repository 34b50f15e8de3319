package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/adds"
	"repro/adds/wire"
	"repro/internal/gen"
	"repro/internal/respond"
)

// encoderJSON is the document -format json printed before it was written
// with the append writers: the builders' responses encoded by reflection
// through an indenting json.Encoder that does not escape HTML. The core
// types' MarshalJSON bytes pass through it with their escapes intact, so
// one document mixes escaped and raw '<', '>' and '&'.
func encoderJSON(src, fn, oracle string, width int, withPipeline bool) ([]byte, error) {
	req := &wire.AnalyzeRequest{Source: src, Fn: fn, Oracle: oracle, K: 2}
	out := struct {
		*wire.AnalyzeResponse
		Pipelines []*wire.PipelineResponse `json:"pipelines,omitempty"`
	}{}
	var err error
	if withPipeline {
		out.AnalyzeResponse, out.Pipelines, err = respond.BuildAnalyzePipelines(context.Background(), req, width)
	} else {
		out.AnalyzeResponse, err = respond.BuildAnalyze(context.Background(), req)
	}
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	err = enc.Encode(out)
	return b.Bytes(), err
}

// TestJSONMatchesEncoder pins -format json byte for byte to encoderJSON
// over the testdata programs, examples/shift.mini and every generator
// profile at seeds 1–5, under every oracle, with and without -show
// pipeline, plus a -fn and a -width case.
func TestJSONMatchesEncoder(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.mini"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	files = append(files, filepath.Join("..", "..", "examples", "shift.mini"))
	dir := t.TempDir()
	for _, pr := range gen.Profiles() {
		for seed := int64(1); seed <= 5; seed++ {
			f := filepath.Join(dir, fmt.Sprintf("%s-%d.mini", pr.Name, seed))
			if err := os.WriteFile(f, gen.Generate(seed, pr).Source(), 0o644); err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
	}
	type runCase struct {
		file, fn, oracle string
		width            int
		pipeline         bool
	}
	var cases []runCase
	for _, f := range files {
		for _, oracle := range adds.OracleNames() {
			cases = append(cases, runCase{f, "", oracle, 8, false}, runCase{f, "", oracle, 8, true})
		}
	}
	listops := filepath.Join("..", "..", "testdata", "listops.mini")
	cases = append(cases, runCase{listops, "shift", "gpm", 8, true}, runCase{listops, "", "gpm", 2, true})

	for _, c := range cases {
		args := []string{"-format", "json", "-oracle", c.oracle, "-width", fmt.Sprint(c.width)}
		if c.fn != "" {
			args = append(args, "-fn", c.fn)
		}
		if c.pipeline {
			args = append(args, "-show", "pipeline")
		}
		name := fmt.Sprint(filepath.Base(c.file), args)
		status, got, stderr := runCmd(t, append(args, c.file)...)
		if status != 0 {
			t.Fatalf("%s: status %d, stderr %q", name, status, stderr)
		}
		src, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatal(err)
		}
		want, err := encoderJSON(string(src), c.fn, c.oracle, c.width, c.pipeline)
		if err != nil {
			t.Fatalf("%s: reference encoding: %v", name, err)
		}
		if got != string(want) {
			t.Errorf("%s: output differs from the json.Encoder document\ngot:\n%s\nwant:\n%s", name, got, want)
		}
	}
}
