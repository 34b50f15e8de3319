package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/adds"
	"repro/adds/wire"
	"repro/internal/respond"
)

var updateGolden = flag.Bool("update", false, "rewrite golden addsc dumps")

// runCmd drives run() in-process and returns (status, stdout, stderr).
func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb strings.Builder
	status := run(args, &out, &errb)
	return status, out.String(), errb.String()
}

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "prog.mini")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// assertOneLineError: failures must be a single diagnostic line, never a
// panic stack trace.
func assertOneLineError(t *testing.T, status int, stderr string) {
	t.Helper()
	if status == 0 {
		t.Fatalf("status = 0, want non-zero (stderr %q)", stderr)
	}
	if strings.Contains(stderr, "goroutine") || strings.Contains(stderr, "panic:") {
		t.Fatalf("stderr looks like a stack trace:\n%s", stderr)
	}
	if n := strings.Count(strings.TrimRight(stderr, "\n"), "\n"); n != 0 {
		t.Fatalf("stderr has %d extra lines:\n%s", n, stderr)
	}
}

func TestUnparseableInput(t *testing.T) {
	p := writeTemp(t, "this is } not { mini ;;; %%%")
	status, _, stderr := runCmd(t, "-show", "check", p)
	assertOneLineError(t, status, stderr)
	if !strings.HasPrefix(stderr, "addsc:") {
		t.Errorf("stderr not prefixed with the command name: %q", stderr)
	}
}

func TestMissingFile(t *testing.T) {
	status, _, stderr := runCmd(t, "-show", "check", filepath.Join(t.TempDir(), "nope.mini"))
	assertOneLineError(t, status, stderr)
}

func TestUnknownFunction(t *testing.T) {
	p := writeTemp(t, "void f() { return; }")
	status, _, stderr := runCmd(t, "-fn", "nope", p)
	assertOneLineError(t, status, stderr)
}

func TestUnknownOracle(t *testing.T) {
	p := writeTemp(t, "void f() { return; }")
	status, _, stderr := runCmd(t, "-oracle", "psychic", p)
	assertOneLineError(t, status, stderr)
}

func TestUnknownShowItem(t *testing.T) {
	p := writeTemp(t, "void f() { return; }")
	status, _, stderr := runCmd(t, "-show", "bogus", p)
	assertOneLineError(t, status, stderr)
	if !strings.Contains(stderr, `"bogus"`) {
		t.Errorf("stderr does not name the bad item: %q", stderr)
	}
}

func TestUsage(t *testing.T) {
	if status, _, _ := runCmd(t); status != 2 {
		t.Errorf("no-args status = %d, want 2", status)
	}
}

func TestTestdataPrograms(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.mini"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, f := range files {
		status, out, stderr := runCmd(t, "-show", "matrix,iter,validate", f)
		if status != 0 {
			t.Errorf("%s: status %d, stderr %q", f, status, stderr)
		}
		if !strings.Contains(out, "=== function") {
			t.Errorf("%s: output missing function header", f)
		}
	}
}

// TestGoldenDumps pins the text dump of every testdata program byte for
// byte: matrices, iteration matrices, validation and dependences. Run
// `go test ./cmd/addsc -run GoldenDumps -update` to regenerate after an
// intentional output change; the diff then documents what moved.
func TestGoldenDumps(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.mini"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".mini")
		t.Run(name, func(t *testing.T) {
			status, out, stderr := runCmd(t, "-show", "matrix,iter,validate,deps", f)
			if status != 0 {
				t.Fatalf("status %d, stderr %q", status, stderr)
			}
			path := filepath.Join("testdata", "golden", name+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden %s: %v (run with -update to create)", path, err)
			}
			if out != string(want) {
				t.Errorf("output drifted from %s.\ngot:\n%s\nwant:\n%s\n(run with -update if intentional)", path, out, want)
			}
		})
	}
}

// TestGoldenJSONDigests pins the bytes of addsc -format json -show pipeline
// for every testdata program and examples/shift.mini by their SHA-256, one
// "digest  file" line each in testdata/golden/json.sha256 (the digests keep
// a few hundred KB of indented JSON out of the repo). Regenerate with
// `go test ./cmd/addsc -run GoldenJSONDigests -update`.
func TestGoldenJSONDigests(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.mini"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	files = append(files, filepath.Join("..", "..", "examples", "shift.mini"))
	var got strings.Builder
	for _, f := range files {
		status, out, stderr := runCmd(t, "-format", "json", "-show", "pipeline", f)
		if status != 0 {
			t.Fatalf("%s: status %d, stderr %q", f, status, stderr)
		}
		fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256([]byte(out)), strings.TrimPrefix(filepath.ToSlash(f), "../../"))
	}
	path := filepath.Join("testdata", "golden", "json.sha256")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden %s: %v (run with -update to create)", path, err)
	}
	if got.String() != string(want) {
		t.Errorf("JSON output drifted from %s.\ngot:\n%s\nwant:\n%s\n(run with -update if intentional)", path, got.String(), want)
	}
}

// TestParallelMatchesSerial: -par must not change the output.
func TestParallelMatchesSerial(t *testing.T) {
	f := filepath.Join("..", "..", "testdata", "listops.mini")
	_, serial, _ := runCmd(t, "-par", "1", "-show", "matrix,iter", f)
	_, parallel, _ := runCmd(t, "-par", "8", "-show", "matrix,iter", f)
	if serial != parallel {
		t.Errorf("-par 8 output differs from -par 1:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

func TestCPUProfileFlag(t *testing.T) {
	p := writeTemp(t, "void f() { return; }")
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	status, _, stderr := runCmd(t, "-cpuprofile", prof, "-show", "check", p)
	if status != 0 {
		t.Fatalf("status %d, stderr %q", status, stderr)
	}
	if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
		t.Errorf("profile not written: %v", err)
	}
}

// TestExitCodes pins the shared exit-code convention: each failure class has
// its own status so scripts can branch without parsing stderr.
func TestExitCodes(t *testing.T) {
	good := writeTemp(t, "void f() { return; }")
	bad := writeTemp(t, "void f() { x = ; }")
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"source error", []string{"-show", "check", bad}, adds.ExitSource},
		{"unknown function", []string{"-fn", "nope", good}, adds.ExitNoFunc},
		{"unknown oracle", []string{"-oracle", "psychic", good}, adds.ExitUsage},
		{"unknown show item", []string{"-show", "bogus", good}, adds.ExitUsage},
		{"bad format", []string{"-format", "yaml", good}, adds.ExitUsage},
		{"json source error", []string{"-format", "json", bad}, adds.ExitSource},
		{"json unknown function", []string{"-format", "json", "-fn", "nope", good}, adds.ExitNoFunc},
		{"json unknown oracle", []string{"-format", "json", "-oracle", "psychic", good}, adds.ExitUsage},
		{"bad width", []string{"-show", "pipeline", "-width", "0", good}, adds.ExitWidth},
		{"json bad width", []string{"-format", "json", "-show", "pipeline", "-width", "0", good}, adds.ExitWidth},
	}
	for _, tc := range cases {
		status, _, stderr := runCmd(t, tc.args...)
		if status != tc.want {
			t.Errorf("%s: status = %d, want %d (stderr %q)", tc.name, status, tc.want, stderr)
		}
	}
}

// TestJSONFormat checks -format json emits the daemon's wire encoding.
func TestJSONFormat(t *testing.T) {
	f := filepath.Join("..", "..", "testdata", "listops.mini")
	status, out, stderr := runCmd(t, "-format", "json", f)
	if status != 0 {
		t.Fatalf("status %d, stderr %q", status, stderr)
	}
	var resp struct {
		EngineVersion string `json:"engineVersion"`
		Functions     []struct {
			Name string `json:"name"`
		} `json:"functions"`
	}
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if resp.EngineVersion == "" || len(resp.Functions) == 0 {
		t.Fatalf("wire fields missing: %+v", resp)
	}
}

// TestJSONPipeline: -show pipeline in JSON mode appends per-loop pipeline
// responses.
func TestJSONPipeline(t *testing.T) {
	f := filepath.Join("..", "..", "testdata", "listops.mini")
	status, out, stderr := runCmd(t, "-format", "json", "-show", "pipeline", f)
	if status != 0 {
		t.Fatalf("status %d, stderr %q", status, stderr)
	}
	var resp struct {
		Pipelines []struct {
			Fn   string `json:"fn"`
			Loop int    `json:"loop"`
		} `json:"pipelines"`
	}
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if len(resp.Pipelines) == 0 {
		t.Fatal("no pipeline responses in JSON output")
	}
}

// traceLine is one parsed span-tree line: nesting depth, span name, and
// the printed duration.
type traceLine struct {
	depth int
	name  string
	ms    float64
	attrs string
}

func parseTraceTree(t *testing.T, stderr string) []traceLine {
	t.Helper()
	lines := strings.Split(strings.TrimRight(stderr, "\n"), "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "trace ") {
		t.Fatalf("stderr does not start with a trace header:\n%s", stderr)
	}
	var out []traceLine
	for _, line := range lines[1:] {
		trimmed := strings.TrimLeft(line, " ")
		indent := len(line) - len(trimmed)
		fields := strings.Fields(trimmed)
		if len(fields) < 2 || !strings.HasSuffix(fields[1], "ms") {
			t.Fatalf("unparseable span line %q in:\n%s", line, stderr)
		}
		var ms float64
		if _, err := fmt.Sscanf(fields[1], "%fms", &ms); err != nil {
			t.Fatalf("bad duration in %q: %v", line, err)
		}
		out = append(out, traceLine{
			depth: indent / 2,
			name:  fields[0],
			ms:    ms,
			attrs: strings.Join(fields[2:], " "),
		})
	}
	return out
}

// TestTraceSpanTree: -trace renders the whole run as one span tree on
// stderr — root "addsc", the analysis phases as its children in pipeline
// order, the fixpoint span carrying engine stats — and the phase durations
// are explained by (sum to no more than) the root's.
func TestTraceSpanTree(t *testing.T) {
	f := filepath.Join("..", "..", "examples", "shift.mini")
	status, out, stderr := runCmd(t, "-trace", "-fn", "shift", "-show", "deps", f)
	if status != 0 {
		t.Fatalf("status %d, stderr:\n%s", status, stderr)
	}
	if !strings.Contains(out, "=== function shift ===") {
		t.Errorf("stdout lost the analysis output:\n%s", out)
	}

	spans := parseTraceTree(t, stderr)
	if len(spans) == 0 || spans[0].name != "addsc" || spans[0].depth != 0 {
		t.Fatalf("first span is not the addsc root: %+v", spans)
	}
	var phaseOrder []string
	var phaseSum float64
	for _, sp := range spans[1:] {
		if sp.depth == 1 {
			phaseOrder = append(phaseOrder, sp.name)
			phaseSum += sp.ms
		}
		if sp.name == "fixpoint" && !strings.Contains(sp.attrs, "iterations=") {
			t.Errorf("fixpoint span has no iterations attr: %q", sp.attrs)
		}
	}
	want := []string{"parse", "shape", "typecheck", "normalize", "summaries", "fixpoint", "ir", "depgraph"}
	if strings.Join(phaseOrder, ",") != strings.Join(want, ",") {
		t.Errorf("phase order = %v, want %v", phaseOrder, want)
	}
	// Printed durations round to 0.01ms, so allow one rounding step per
	// phase of slack.
	if slack := 0.01 * float64(len(phaseOrder)+1); phaseSum > spans[0].ms+slack {
		t.Errorf("phases sum to %.2fms, more than the %.2fms root", phaseSum, spans[0].ms)
	}
}

// TestJSONPipelineTraceCounts: JSON mode builds its pipelines from the
// analyses it already ran, so listops.mini is parsed once, opens one
// "summaries" span (the ADDS-informed table; its looped functions call
// nothing the stripped table would summarize) and pipelines its four loops.
func TestJSONPipelineTraceCounts(t *testing.T) {
	f := filepath.Join("..", "..", "testdata", "listops.mini")
	status, _, stderr := runCmd(t, "-trace", "-format", "json", "-show", "pipeline", f)
	if status != 0 {
		t.Fatalf("status %d, stderr:\n%s", status, stderr)
	}
	count := map[string]int{}
	for _, sp := range parseTraceTree(t, stderr) {
		count[sp.name]++
	}
	for name, want := range map[string]int{"parse": 1, "summaries": 1, "pipeline": 4} {
		if count[name] != want {
			t.Errorf("%d %s spans, want %d", count[name], name, want)
		}
	}
}

// TestJSONPipelinesMatchDaemon: every element of JSON mode's pipelines is
// the body POST /v1/pipeline answers for the same fn and loop, under the
// default and the classic oracle.
func TestJSONPipelinesMatchDaemon(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.mini"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	files = append(files, filepath.Join("..", "..", "examples", "shift.mini"))
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, oracle := range []string{"gpm", "classic"} {
			status, out, stderr := runCmd(t, "-format", "json", "-show", "pipeline", "-oracle", oracle, f)
			if status != 0 {
				t.Fatalf("%s %s: status %d, stderr %q", f, oracle, status, stderr)
			}
			var resp struct {
				Pipelines []json.RawMessage `json:"pipelines"`
			}
			if err := json.Unmarshal([]byte(out), &resp); err != nil {
				t.Fatalf("%s %s: output is not JSON: %v", f, oracle, err)
			}
			if len(resp.Pipelines) == 0 {
				t.Fatalf("%s %s: no pipelines", f, oracle)
			}
			for _, raw := range resp.Pipelines {
				var key struct {
					Fn   string `json:"fn"`
					Loop int    `json:"loop"`
				}
				if err := json.Unmarshal(raw, &key); err != nil {
					t.Fatal(err)
				}
				want, err := respond.BuildPipeline(context.Background(), &wire.PipelineRequest{
					Source: string(src), Fn: key.Fn, Loop: key.Loop, Oracle: oracle,
				})
				if err != nil {
					t.Fatalf("%s %s loop %d: %v", key.Fn, oracle, key.Loop, err)
				}
				var got, wantJSON bytes.Buffer
				if err := json.Compact(&got, raw); err != nil {
					t.Fatal(err)
				}
				enc := json.NewEncoder(&wantJSON)
				enc.SetEscapeHTML(false)
				if err := enc.Encode(want); err != nil {
					t.Fatal(err)
				}
				if got.String() != strings.TrimSuffix(wantJSON.String(), "\n") {
					t.Errorf("%s %s %s loop %d:\naddsc:  %s\ndaemon: %s",
						filepath.Base(f), oracle, key.Fn, key.Loop, got.String(), wantJSON.String())
				}
			}
		}
	}
}

// TestTraceJSONModeKeepsStdoutClean: -trace with -format json must not
// corrupt the wire output (the tree goes to stderr).
func TestTraceJSONModeKeepsStdoutClean(t *testing.T) {
	f := filepath.Join("..", "..", "examples", "shift.mini")
	status, out, stderr := runCmd(t, "-trace", "-format", "json", f)
	if status != 0 {
		t.Fatalf("status %d, stderr:\n%s", status, stderr)
	}
	var resp map[string]any
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatalf("stdout is not JSON with -trace: %v", err)
	}
	if !strings.Contains(stderr, "trace ") || !strings.Contains(stderr, "fixpoint") {
		t.Errorf("stderr has no span tree:\n%s", stderr)
	}
}

// TestLogFlagValidation: the shared -log-level/-log-format vocabulary is
// enforced with usage errors.
func TestLogFlagValidation(t *testing.T) {
	good := writeTemp(t, "void f() { return; }")
	if status, _, _ := runCmd(t, "-log-level", "loud", good); status != adds.ExitUsage {
		t.Errorf("-log-level loud status = %d, want %d", status, adds.ExitUsage)
	}
	if status, _, _ := runCmd(t, "-log-format", "xml", good); status != adds.ExitUsage {
		t.Errorf("-log-format xml status = %d, want %d", status, adds.ExitUsage)
	}
}
