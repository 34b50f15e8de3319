package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb strings.Builder
	status := run(args, &out, &errb)
	return status, out.String(), errb.String()
}

func TestList(t *testing.T) {
	status, out, _ := runCmd(t, "-list")
	if status != 0 {
		t.Fatalf("status = %d", status)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 10 {
		t.Fatalf("listed %d experiments, want 10:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "E1 ") {
		t.Errorf("first line %q", lines[0])
	}
}

func TestUnknownExperiment(t *testing.T) {
	status, _, stderr := runCmd(t, "E99")
	if status != 1 {
		t.Errorf("status = %d, want 1", status)
	}
	if !strings.Contains(stderr, "unknown experiment") {
		t.Errorf("stderr = %q", stderr)
	}
	if strings.Contains(stderr, "goroutine") {
		t.Errorf("stderr looks like a stack trace:\n%s", stderr)
	}
}

func TestSelectedExperiments(t *testing.T) {
	status, out, stderr := runCmd(t, "E1", "E4")
	if status != 0 {
		t.Fatalf("status %d, stderr %q", status, stderr)
	}
	i1, i4 := strings.Index(out, "== E1:"), strings.Index(out, "== E4:")
	if i1 < 0 || i4 < 0 || i4 < i1 {
		t.Errorf("reports missing or out of order (E1 at %d, E4 at %d)", i1, i4)
	}
}

// TestParallelMatchesSerial: -par must not change the output or its order.
func TestParallelMatchesSerial(t *testing.T) {
	ids := []string{"E1", "E3", "E4", "E5"}
	_, serial, _ := runCmd(t, append([]string{"-par", "1"}, ids...)...)
	status, parallel, stderr := runCmd(t, append([]string{"-par", "4"}, ids...)...)
	if status != 0 {
		t.Fatalf("parallel status %d, stderr %q", status, stderr)
	}
	if serial != parallel {
		t.Errorf("-par 4 output differs from -par 1")
	}
}

func TestEffectiveWorkers(t *testing.T) {
	cases := []struct {
		par       int
		profiling bool
		want      int
		wantNote  bool
	}{
		{par: 0, profiling: false, want: 0}, // par.Each reads 0 as GOMAXPROCS
		{par: 8, profiling: false, want: 8}, // and caps the count at the experiments
		{par: 2, profiling: false, want: 2},
		{par: 4, profiling: true, want: 1, wantNote: true},
		{par: 0, profiling: true, want: 1, wantNote: true},
		{par: 1, profiling: true, want: 1}, // already serial: no note
	}
	for _, c := range cases {
		got, note := effectiveWorkers(c.par, c.profiling)
		if got != c.want || (note != "") != c.wantNote {
			t.Errorf("effectiveWorkers(%d, %t) = %d, %q; want %d, note=%t",
				c.par, c.profiling, got, note, c.want, c.wantNote)
		}
	}
}

// TestCPUProfileSerializes: -cpuprofile with -par > 1 must run serially and
// say so, instead of producing an interleaved multi-worker profile.
func TestCPUProfileSerializes(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	status, out, stderr := runCmd(t, "-cpuprofile", prof, "-par", "4", "E1", "E3")
	if status != 0 {
		t.Fatalf("status %d, stderr %q", status, stderr)
	}
	if !strings.Contains(stderr, "forces serial execution") {
		t.Errorf("stderr missing serialization note: %q", stderr)
	}
	if _, err := os.Stat(prof); err != nil {
		t.Errorf("profile not written: %v", err)
	}
	_, serial, _ := runCmd(t, "E1", "E3")
	if out != serial {
		t.Errorf("profiled output differs from plain serial output")
	}
}
