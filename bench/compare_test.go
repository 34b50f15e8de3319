package main

import (
	"io"
	"strings"
	"testing"
)

func TestVerdicts(t *testing.T) {
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	for _, c := range []struct {
		name, better string
		old, new     []float64
		want         string
	}{
		{"small change", "lower", steady, []float64{10.3, 10.4, 10.2}, withinBound},
		{"slower", "lower", steady, []float64{12, 12.1, 11.9}, regressed},
		{"faster", "lower", steady, []float64{8, 8.1, 7.9}, improved},
		{"throughput down", "higher", steady, []float64{8, 8.1, 7.9}, regressed},
		{"throughput up", "higher", steady, []float64{12, 12.1, 11.9}, improved},
		{"noisy parent", "lower", []float64{5, 15, 10, 20}, []float64{11, 12}, unresolved},
		{"noisy parent, clear win", "lower", []float64{5, 15, 10, 20}, []float64{1, 2}, improved},
		{"one run each, inside bound", "lower", []float64{10}, []float64{9.5}, withinBound},
	} {
		if got, _ := verdict(c.better, 0.1, c.old, c.new); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRefusesDifferentPlans(t *testing.T) {
	s := &spec{}
	a := &resultFile{Workloads: map[string]*workloadResult{"hit-edit": {PlanDigest: "sha256:a"}}}
	b := &resultFile{Workloads: map[string]*workloadResult{"hit-edit": {PlanDigest: "sha256:b"}}}
	if _, err := compare(io.Discard, s, a, b); err == nil || !strings.Contains(err.Error(), "plan digests differ") {
		t.Fatalf("compare of different plans: %v", err)
	}
}
