// Command bench is the repository's end-to-end benchmark. It drives four
// workloads — miss-mixed, miss-hostile, hit-edit and cold-cli — against an
// in-process addsd (service.New behind httptest) and the addsc binary,
// checks every answer, and splits requests into the analysis layers they
// call with a layer walk. See README.md for the workloads, metrics and
// bounds. From the repository root:
//
//	bash bench/run.sh --workload miss-mixed --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --seed 1 --out result.json    # every workload, both modes
//	bash bench/run.sh compare old.json new.json
//
// A run with --workload prints its report and then, as the last line, one
// JSON object with correct, attempted, failed and metrics. It exits 1 when
// any answer or correctness gate fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/core/pathmatrix"
)

func main() {
	if role := os.Getenv(childEnv); role != "" {
		os.Exit(childMain(role, os.Args[1:]))
	}
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:])
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload to run (default: every workload, untraced and traced)")
	seed := fs.Int64("seed", 1, "plan seed")
	seconds := fs.Float64("seconds", 0, "how long an untraced run measures (default: BENCHMARK.json run_seconds)")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	root := fs.String("root", defaultRoot(), "repository checkout")
	out := fs.String("out", "", "result file of a run over every workload (default: <root>/.bench_build/result.json)")
	repeat := fs.Int("repeat", 1, "runs per workload and mode over every workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	build := filepath.Join(*root, ".bench_build") // where addsc is built and scratch files go
	if *seconds == 0 {
		spec, err := readSpec(*root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		*seconds = float64(spec.RunSeconds)
	}
	cfg := runConfig{
		childArgs: childArgs{workload: *wl, seed: *seed, root: *root},
		build:     build, seconds: *seconds, trace: *trace == 1,
		minPasses: defaultMinPass, minSetups: defaultMinSetup,
	}
	if *wl == "" {
		if *out == "" {
			*out = filepath.Join(build, "result.json")
		}
		return runAll(cfg, *repeat, *out)
	}
	fmt.Println(runMeta(cfg).String())
	res, err := runWorkload(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// defaultRoot is the checkout holding BENCHMARK.json: the working directory
// when run from the root, its parent when run from bench/ (go run .).
func defaultRoot() string {
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		if _, err := os.Stat(filepath.Join("..", "BENCHMARK.json")); err == nil {
			return ".."
		}
	}
	return "."
}

// meta records what a result was measured on, so two result files can be
// shown to measure the same plan with the same engine.
type meta struct {
	Seed          int64             `json:"seed"`
	Seconds       float64           `json:"seconds"`
	Repeat        int               `json:"repeat,omitempty"`
	PlanDigests   map[string]string `json:"planDigests,omitempty"`
	EngineVersion string            `json:"engineVersion"`
	GoVersion     string            `json:"goVersion"`
	GOMAXPROCS    int               `json:"gomaxprocs"`
	NProc         int               `json:"nproc"`
	GitCommit     string            `json:"gitCommit,omitempty"`
}

func runMeta(cfg runConfig) meta {
	m := meta{
		Seed: cfg.seed, Seconds: cfg.seconds,
		EngineVersion: pathmatrix.EngineVersion, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
	}
	// Only a checkout with its own .git is asked, so git never searches the
	// directories above the checkout.
	if _, err := os.Stat(filepath.Join(cfg.root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", cfg.root, "rev-parse", "HEAD").Output(); err == nil {
			m.GitCommit = strings.TrimSpace(string(out))
		}
	}
	return m
}

func (m meta) String() string {
	s := fmt.Sprintf("engine %s  %s  GOMAXPROCS %d  nproc %d", m.EngineVersion, m.GoVersion, m.GOMAXPROCS, m.NProc)
	if m.GitCommit != "" {
		s += "  commit " + m.GitCommit
	}
	return s
}

// resultFile is what a run over every workload writes, and compare reads.
type resultFile struct {
	Meta      meta                       `json:"meta"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	PlanDigest string       `json:"planDigest"`
	Runs       []*runResult `json:"runs"`  // untraced: end-to-end metrics
	Trace      []*runResult `json:"trace"` // traced: per-layer metrics
}

// runAll runs every workload untraced and traced, repeat times each, and
// writes the result file.
func runAll(cfg runConfig, repeat int, out string) int {
	rf := resultFile{Meta: runMeta(cfg), Workloads: map[string]*workloadResult{}}
	rf.Meta.Repeat, rf.Meta.PlanDigests = repeat, map[string]string{}
	fmt.Println(rf.Meta.String())
	ok := true
	for _, w := range workloads {
		p, err := buildPlan(w, cfg.seed, 0, cfg.root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		wr := &workloadResult{PlanDigest: p.digest}
		rf.Workloads[w], rf.Meta.PlanDigests[w] = wr, p.digest
		for range repeat {
			for _, traced := range []bool{false, true} {
				c := cfg
				c.workload, c.trace = w, traced
				res, err := runWorkload(c, os.Stdout)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				ok = ok && res.Correct
				if traced {
					wr.Trace = append(wr.Trace, res)
				} else {
					wr.Runs = append(wr.Runs, res)
				}
			}
		}
	}
	if err := writeJSON(out, rf); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println("result written to", out)
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: a correctness gate failed")
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// spec is the part of BENCHMARK.json the benchmark itself reads.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if s.RunSeconds <= 0 {
		return nil, errors.New("BENCHMARK.json: run_seconds must be positive")
	}
	return &s, nil
}
