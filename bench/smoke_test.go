package main

import (
	"bytes"
	"os"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// benchmark re-executes itself as a pass, walk or serve child.
func TestMain(m *testing.M) {
	if role := os.Getenv(childEnv); role != "" {
		os.Exit(childMain(role, os.Args[1:]))
	}
	os.Exit(m.Run())
}

// smokeJobs shortens each workload's pass; hit-edit needs ten requests to
// reach its first edit.
var smokeJobs = map[string]int{"miss-mixed": 5, "miss-hostile": 5, "hit-edit": 10, "cold-cli": 5}

// A short run of every workload, untraced and traced, through the real
// child processes (addsc included) must pass every check and report exactly
// the metrics BENCHMARK.json declares, with their units.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range s.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range s.PerLayer {
		layers[m.Name] = m.Unit
	}
	build := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var log bytes.Buffer
			cfg := runConfig{
				childArgs: childArgs{workload: w, seed: 1, root: "..", limit: smokeJobs[w]},
				build:     build, trace: traced, minPasses: 1, minSetups: 2,
			}
			res, err := runWorkload(cfg, &log)
			if err != nil {
				t.Fatalf("%s trace=%t: %v\n%s", w, traced, err, log.Bytes())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s",
					w, traced, res.Correct, res.Attempted, res.Failed, log.Bytes())
			}
			want := e2e
			if traced {
				want = layers
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", w, traced, name, m, unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w, name, m.Value)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json declares %d", w, traced, len(res.Metrics), len(want))
			}
		}
	}
}
