package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"repro/adds"
	"repro/internal/service"
)

// The benchmark re-executes its own binary for every pass and walk, so no
// measurement inherits another's memo, summary cache, intern table or heap.
// childEnv selects the child's role; t0Env carries the wall clock the parent
// read just before exec, which set-up time is measured from.
const (
	childEnv = "ADDSBENCH_CHILD"
	t0Env    = "ADDSBENCH_T0"
)

// childArgs is what a child needs to rebuild the plan the parent holds.
type childArgs struct {
	workload string
	seed     int64
	pass     int // which of the run's passes, each in its own order
	root     string
	addsc    string // cold-cli: the addsc binary
	tmp      string // cold-cli: where the corpus is written
	limit    int    // jobs per pass (0 = the whole plan); smoke tests shorten it
	verify   int    // post-timing walk checks in a pass
	file     int    // walk: the cold-cli corpus file to walk
}

func (a childArgs) flags() []string {
	return []string{
		"-workload", a.workload, "-seed", strconv.FormatInt(a.seed, 10), "-pass", strconv.Itoa(a.pass), "-root", a.root,
		"-addsc", a.addsc, "-tmp", a.tmp, "-limit", strconv.Itoa(a.limit),
		"-verify", strconv.Itoa(a.verify), "-file", strconv.Itoa(a.file),
	}
}

// spawn runs one child to completion and returns its standard output.
func spawn(role string, a childArgs) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(exe, a.flags()...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.Env = append(os.Environ(), childEnv+"="+role, t0Env+"="+strconv.FormatInt(time.Now().UnixNano(), 10))
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %v: %.400s", role, err, stderr.Bytes())
	}
	return stdout.Bytes(), nil
}

// spawnJSON runs a child and decodes its report.
func spawnJSON(role string, a childArgs, v any) error {
	out, err := spawn(role, a)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(out, v); err != nil {
		return fmt.Errorf("%s child report: %w", role, err)
	}
	return nil
}

func loadPlan(a childArgs) (*plan, error) {
	p, err := buildPlan(a.workload, a.seed, a.pass, a.root)
	if err != nil {
		return nil, err
	}
	if a.limit > 0 && a.limit < len(p.jobs) {
		p.jobs = p.jobs[:a.limit]
	}
	return p, nil
}

// childMain is the entry point of a re-executed child.
func childMain(role string, args []string) int {
	t0 := time.Now()
	if ns, err := strconv.ParseInt(os.Getenv(t0Env), 10, 64); err == nil {
		t0 = time.Unix(0, ns)
	}
	var a childArgs
	fs := flag.NewFlagSet("bench child", flag.ContinueOnError)
	fs.StringVar(&a.workload, "workload", "", "")
	fs.Int64Var(&a.seed, "seed", 1, "")
	fs.IntVar(&a.pass, "pass", 0, "")
	fs.StringVar(&a.root, "root", ".", "")
	fs.StringVar(&a.addsc, "addsc", "", "")
	fs.StringVar(&a.tmp, "tmp", "", "")
	fs.IntVar(&a.limit, "limit", 0, "")
	fs.IntVar(&a.verify, "verify", 0, "")
	fs.IntVar(&a.file, "file", 0, "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	report, err := childRun(role, a, t0)
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(report)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench %s child: %v\n", role, err)
		return 1
	}
	return 0
}

func childRun(role string, a childArgs, t0 time.Time) (any, error) {
	if role == "serve" {
		return nil, serveOnce()
	}
	p, err := loadPlan(a)
	if err != nil {
		return nil, err
	}
	switch role {
	case "pass", "setup":
		if role == "setup" { // set up as a pass does, then time nothing
			p.jobs = nil
		}
		if p.workload == "cold-cli" {
			return cliPass(p, t0, a.addsc, a.tmp, a.verify)
		}
		return daemonPass(p, t0, a.verify)
	case "walk":
		return walkPlan(p, a.file)
	}
	return nil, fmt.Errorf("unknown child role %q", role)
}

// serveOnce is the daemon's process-start probe: bring the service up and
// answer one health check.
func serveOnce() error {
	ts := httptest.NewServer(service.New(service.Config{}).Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		return fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	return nil
}

// walkResult is what one walk child reports.
type walkResult struct {
	Jobs     int              `json:"jobs"`
	WalkNs   int64            `json:"walkNs"`
	LayerNs  map[string]int64 `json:"layerNs"`
	Before   adds.EngineStats `json:"before"`
	After    adds.EngineStats `json:"after"`
	Bytes    int64            `json:"bytes"`
	GCCycles uint32           `json:"gcCycles"`
	GCPause  uint64           `json:"gcPauseNs"`
	Alloc    uint64           `json:"allocBytes"`
	LiveHeap uint64           `json:"liveHeapBytes"`
	Digests  []string         `json:"digests"`
	Errors   []string         `json:"errors"`
}

// walkJobs picks what a workload's traced run replays: the whole pass of a
// miss workload, every edit of hit-edit (hits are pure service time and
// reach no analysis layer), or one cold-cli corpus file per process. warm is
// replayed untimed first, so the summary cache holds what the daemon's held.
func walkJobs(p *plan, file int) (warm, jobs []job, err error) {
	switch p.workload {
	case "hit-edit":
		for _, j := range p.jobs {
			if j.kind == kindEdit {
				jobs = append(jobs, j)
			}
		}
		return p.warm, jobs, nil
	case "cold-cli":
		if file < 0 || file >= len(p.warm) {
			return nil, nil, fmt.Errorf("no corpus file %d", file)
		}
		return nil, p.warm[file : file+1], nil
	}
	return nil, p.jobs, nil
}

func walkPlan(p *plan, file int) (*walkResult, error) {
	warm, jobs, err := walkJobs(p, file)
	if err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, errors.New("nothing to walk")
	}
	for _, j := range warm {
		if _, err := newWalker().run(j); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", j.name, err)
		}
	}
	res := &walkResult{Jobs: len(jobs), LayerNs: map[string]int64{}}
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	res.Before = adds.ReadEngineStats()
	w := newWalker()
	start := time.Now()
	for _, j := range jobs {
		out, err := w.run(j)
		if err != nil {
			res.Errors = append(res.Errors, fmt.Sprintf("%s: %v", j.name, err))
			res.Digests = append(res.Digests, "")
			continue
		}
		res.Bytes += int64(len(out))
		res.Digests = append(res.Digests, digest(out))
	}
	res.WalkNs = int64(time.Since(start))
	res.After = adds.ReadEngineStats()
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	for l, ns := range w.ns {
		res.LayerNs[layerNames[l]] = ns
	}
	res.GCCycles = m1.NumGC - m0.NumGC
	res.GCPause = m1.PauseTotalNs - m0.PauseTotalNs
	res.Alloc = m1.TotalAlloc - m0.TotalAlloc
	res.LiveHeap = m2.HeapAlloc
	return res, nil
}
