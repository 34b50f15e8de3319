package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"

	"repro/adds"
	"repro/adds/wire"
	"repro/internal/gen"
	"repro/internal/service"
)

// The layer walk must encode exactly what service.BuildAnalyze answers, for
// one program of every generator profile.
func TestWalkMatchesBuildAnalyze(t *testing.T) {
	for _, pr := range gen.Profiles() {
		src := genPrograms(pr.Name, 1, 1)[0].Source()
		resp, err := service.BuildAnalyze(context.Background(), &wire.AnalyzeRequest{Source: string(src)})
		if err != nil {
			t.Fatalf("%s: %v", pr.Name, err)
		}
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := newWalker().run(job{kind: kindAnalyze, src: src})
		if err != nil {
			t.Fatalf("%s: walk: %v", pr.Name, err)
		}
		if !bytes.Equal(got, append(want, '\n')) {
			t.Errorf("%s: walk and BuildAnalyze encode differently", pr.Name)
		}
	}
}

// Reanalyze bodies report the summary cache's behavior, so both sides start
// from an empty cache.
func TestWalkMatchesBuildReanalyze(t *testing.T) {
	src, err := os.ReadFile("../testdata/listops.mini")
	if err != nil {
		t.Fatal(err)
	}
	adds.ResetEngineSummaryCache()
	resp, err := service.BuildReanalyze(context.Background(), &wire.ReanalyzeRequest{Source: string(src)})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(resp); err != nil {
		t.Fatal(err)
	}
	adds.ResetEngineSummaryCache()
	got, err := newWalker().run(job{kind: kindEdit, src: src})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("walk %s, BuildReanalyze %s", got, want.Bytes())
	}
}

func TestWalkTimesEveryLayerItCalls(t *testing.T) {
	src, err := os.ReadFile("../examples/shift.mini")
	if err != nil {
		t.Fatal(err)
	}
	w := newWalker()
	out, err := w.run(job{kind: kindCLI, src: src})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkShift(out); err != nil {
		t.Fatal(err)
	}
	for l, ns := range w.ns {
		if ns <= 0 {
			t.Errorf("layer %s was not timed on the addsc path", layerNames[l])
		}
	}
}
