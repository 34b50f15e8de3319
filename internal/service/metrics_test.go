package service

import (
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/adds/wire"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden /metrics exposition")

// maskedSeries matches the series whose values depend on timing or on
// process-wide engine state: every duration series, the fixpoint-iteration
// histogram, and the engine counters other tests in this process also bump.
var maskedSeries = regexp.MustCompile(`^addsd_(\w*duration\w*|fixpoint_iterations\w*|engine_\w*)$`)

// maskExposition replaces the value of every masked sample line with "*",
// keeping HELP/TYPE lines, series names, labels and order.
func maskExposition(text string) string {
	lines := strings.SplitAfter(text, "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		name, _, _ = strings.Cut(name, "{")
		if maskedSeries.MatchString(name) {
			if j := strings.LastIndexByte(line, ' '); j >= 0 {
				lines[i] = line[:j+1] + "*\n"
			}
		}
	}
	return strings.Join(lines, "")
}

// TestMetricsExposition pins the whole /metrics text — series names, HELP
// and TYPE lines, label sets, series order and every deterministic value —
// after a fixed request sequence against a fresh server. Run
// `go test ./internal/service -run MetricsExposition -update` to regenerate
// after an intentional exposition change.
func TestMetricsExposition(t *testing.T) {
	// Workers pins the pool and queue gauges, which default to GOMAXPROCS.
	_, ts := newTestServer(t, Config{Workers: 2})
	analyze := wire.AnalyzeRequest{Source: shiftSrc, Fn: "shift"}
	postJSON(t, ts.URL+"/v1/analyze", analyze)
	postJSON(t, ts.URL+"/v1/analyze", analyze)
	postJSON(t, ts.URL+"/v1/batch", wire.BatchRequest{Items: []wire.AnalyzeRequest{
		analyze, {Source: "not a program {"},
	}})
	resp, err := http.Get(ts.URL + "/no/such/endpoint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	postJSON(t, ts.URL+"/v1/depgraph", wire.DepgraphRequest{Source: shiftSrc, Fn: "shift", Oracle: "smg"})

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	got := maskExposition(string(data))

	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden %s: %v (run with -update to create)", path, err)
	}
	if got != string(want) {
		t.Errorf("/metrics drifted from %s.\ngot:\n%s\nwant:\n%s\n(run with -update if intentional)", path, got, want)
	}
}
