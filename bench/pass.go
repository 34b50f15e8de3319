package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/adds/wire"
	"repro/internal/core/pathmatrix"
	"repro/internal/service"
)

// passResult is what one pass child reports to the parent.
type passResult struct {
	Digest   string       `json:"digest"`   // plan digest the child built
	SetupNs  int64        `json:"setupNs"`  // child exec to first timed operation
	WallNs   int64        `json:"wallNs"`   // the timed window
	CPUNs    int64        `json:"cpuNs"`    // CPU of the serving processes in the window
	MaxRSSKB int64        `json:"maxRssKB"` // peak RSS of the serving process
	LatNs    []int64      `json:"latNs"`    // per timed job, plan order
	Failed   int          `json:"failed"`   // failed timed operations and checks
	Checked  int          `json:"checked"`  // post-timing checks made
	Errors   []string     `json:"errors"`   // the first few failures
	Digests  []string     `json:"digests"`  // body digests: per job, per edit, or per corpus file
	Service  serviceDelta `json:"service"`  // /metrics deltas over the timed window
}

// serviceDelta holds /metrics counter deltas across the timed window.
type serviceDelta struct {
	Hits, Misses, Coalesced, Shed float64
	QueueSec, RequestSec          float64
}

const maxErrors = 5

func (r *passResult) fail(err error) {
	r.Failed++
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, err.Error())
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func rusageCPU(ru *syscall.Rusage) int64 {
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func selfRusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

// peakRSSKB is this process's own peak RSS (VmHWM). getrusage's maxrss is
// no substitute: Linux folds the spawning process's peak into a child's at
// exec, and os/exec spawns with a shared address space, so a child of a
// large parent would report the parent's peak.
func peakRSSKB() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// daemonPass runs one pass of a daemon workload against an in-process addsd
// (service.New with the default config, behind httptest): warm-up, then the
// timed closed loop, then the post-timing checks.
func daemonPass(p *plan, t0 time.Time, verify int) (*passResult, error) {
	srv := service.New(service.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := ts.Client()
	res := &passResult{Digest: p.digest}

	warm := make([][]byte, len(p.warm))
	for i, j := range p.warm {
		body, err := send(c, ts.URL, j, nil)
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", j.name, err)
		}
		warm[i] = body
	}
	before, err := scrape(c, ts.URL)
	if err != nil {
		return nil, err
	}

	lat := make([]int64, len(p.jobs))
	errs := make([]error, len(p.jobs))
	digests := make([]string, len(p.jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	res.SetupNs = int64(time.Since(t0))
	ru0 := selfRusage()
	start := time.Now()
	for range p.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(p.jobs) {
					return
				}
				t := time.Now()
				body, err := send(c, ts.URL, p.jobs[i], warm)
				lat[i] = int64(time.Since(t))
				errs[i] = err
				if err == nil && p.jobs[i].kind != kindHit {
					digests[i] = digest(body)
				}
			}
		}()
	}
	wg.Wait()
	res.WallNs = int64(time.Since(start))
	ru1 := selfRusage()
	res.CPUNs = rusageCPU(&ru1) - rusageCPU(&ru0)
	if res.MaxRSSKB, err = peakRSSKB(); err != nil {
		return nil, err
	}
	res.LatNs = lat

	after, err := scrape(c, ts.URL)
	if err != nil {
		return nil, err
	}
	res.Service = serviceDelta{
		Hits:       after["addsd_cache_hits_total"] - before["addsd_cache_hits_total"],
		Misses:     after["addsd_cache_misses_total"] - before["addsd_cache_misses_total"],
		Coalesced:  after["addsd_cache_coalesced_total"] - before["addsd_cache_coalesced_total"],
		Shed:       after["addsd_shed_total"] - before["addsd_shed_total"],
		QueueSec:   after[queueSum] - before[queueSum],
		RequestSec: after["addsd_request_duration_seconds_sum"] - before["addsd_request_duration_seconds_sum"],
	}
	for i, err := range errs {
		if err != nil {
			res.fail(fmt.Errorf("%s: %w", p.jobs[i].name, err))
		}
		if p.jobs[i].kind != kindHit {
			res.Digests = append(res.Digests, digests[i])
		}
	}

	// Answers are engine-deterministic, so a walk in this process (warm
	// caches and all) must reproduce the daemon's bytes. Reanalyze bodies
	// report this run's summary-cache counters, so only analyze jobs and the
	// warmed pool are checked here; the traced run checks the edits.
	type answered struct {
		j    job
		want string
	}
	var cands []answered
	for i, j := range p.jobs {
		if j.kind == kindAnalyze && digests[i] != "" {
			cands = append(cands, answered{j, digests[i]})
		}
	}
	for i, j := range p.warm {
		if j.kind == kindAnalyze {
			cands = append(cands, answered{j, digest(warm[i])})
		}
	}
	for _, a := range cands[:min(verify, len(cands))] {
		res.Checked++
		got, err := newWalker().run(a.j)
		if err == nil && digest(got) != a.want {
			err = errors.New("daemon body differs from the layer walk's encoding")
		}
		if err != nil {
			res.fail(fmt.Errorf("verify %s: %w", a.j.name, err))
		}
	}
	return res, nil
}

const queueSum = `addsd_phase_duration_seconds_sum{phase="queue"}`

var analyzePrefix = []byte(`{"engineVersion":"` + pathmatrix.EngineVersion + `","functions":[`)

// send posts one job and checks the answer: the status, the cache outcome
// the workload promises, and the body. warm holds the warm-up bodies hits
// must repeat byte for byte (nil while warming up).
func send(c *http.Client, base string, j job, warm [][]byte) ([]byte, error) {
	path := "/v1/analyze"
	if j.kind == kindEdit {
		path = "/v1/reanalyze"
	}
	resp, err := c.Post(base+path, "application/json", bytes.NewReader(j.body))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
	}
	cache := resp.Header.Get("X-Cache")
	switch j.kind {
	case kindAnalyze:
		if cache != "miss" {
			return nil, fmt.Errorf("want a result-cache miss, got %q", cache)
		}
		if !bytes.HasPrefix(body, analyzePrefix) {
			return nil, fmt.Errorf("not an analysis: %.80s", body)
		}
	case kindHit:
		if cache != "hit" {
			return nil, fmt.Errorf("want a result-cache hit, got %q", cache)
		}
		if !bytes.Equal(body, warm[j.pool]) {
			return nil, errors.New("hit differs from its warm-up body")
		}
	case kindEdit:
		var first []byte // the untimed submission of the unedited file
		if warm != nil {
			first = warm[j.pool]
		}
		if err := checkEdit(j, body, first); err != nil {
			return nil, err
		}
	}
	return body, nil
}

// checkEdit requires a reanalysis to recompute at least one summary (the
// edited function's, or all of them on the first submission) and, for an
// edit, to recompute or reuse every summary the first submission of the
// unedited file computed — recursive functions have none.
func checkEdit(j job, body, first []byte) error {
	r, err := decodeReanalyze(body)
	if err != nil {
		return err
	}
	if !slices.Equal(r.Functions, j.fns) {
		return fmt.Errorf("functions %v, want %v", r.Functions, j.fns)
	}
	s, want := r.Summaries, len(j.fns)
	if first != nil {
		f, err := decodeReanalyze(first)
		if err != nil {
			return err
		}
		want = f.Summaries.Computed
	}
	if s.Computed < 1 || s.Computed+s.Reused > want || (first != nil && s.Computed+s.Reused != want) {
		return fmt.Errorf("summaries computed %d reused %d, want %d in all", s.Computed, s.Reused, want)
	}
	return nil
}

func decodeReanalyze(body []byte) (*wire.ReanalyzeResponse, error) {
	var r wire.ReanalyzeResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// scrape reads the daemon's /metrics exposition into series -> value.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// cliPass runs one pass of cold-cli: one addsc process per job, each timed
// from exec to exit, then checks every output.
func cliPass(p *plan, t0 time.Time, addsc, tmp string, verify int) (*passResult, error) {
	dir, err := os.MkdirTemp(tmp, "cold-cli-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	paths := make([]string, len(p.warm))
	for i, j := range p.warm {
		paths[i] = filepath.Join(dir, j.name)
		if err := os.WriteFile(paths[i], j.src, 0o644); err != nil {
			return nil, err
		}
	}
	res := &passResult{Digest: p.digest, LatNs: make([]int64, len(p.jobs))}
	outs := make([][]byte, len(p.warm))
	res.SetupNs = int64(time.Since(t0))
	start := time.Now()
	for i, j := range p.jobs {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(addsc, "-format", "json", "-show", "pipeline", paths[j.pool])
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		t := time.Now()
		err := cmd.Run()
		res.LatNs[i] = int64(time.Since(t))
		// A child's maxrss also covers this process's peak at the spawn (see
		// peakRSSKB); this process stays well under the largest addsc's
		// 20 MB, so the maximum over children is addsc's own.
		if cmd.ProcessState != nil {
			if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
				res.CPUNs += rusageCPU(ru)
				res.MaxRSSKB = max(res.MaxRSSKB, ru.Maxrss)
			}
		}
		switch {
		case err != nil:
			res.fail(fmt.Errorf("addsc %s: %v: %.200s", j.name, err, stderr.Bytes()))
		case outs[j.pool] == nil:
			outs[j.pool] = stdout.Bytes()
		case !bytes.Equal(outs[j.pool], stdout.Bytes()):
			res.fail(fmt.Errorf("addsc %s: output differs between runs", j.name))
		}
	}
	res.WallNs = int64(time.Since(start))

	for i, out := range outs {
		if out == nil { // not run in this pass, or failed (already counted)
			res.Digests = append(res.Digests, "")
			continue
		}
		res.Digests = append(res.Digests, digest(out))
		if p.warm[i].name == "shift.mini" {
			res.Checked++
			if err := checkShift(out); err != nil {
				res.fail(fmt.Errorf("shift.mini: %w", err))
			}
		}
		if i < verify {
			res.Checked++
			got, err := newWalker().run(p.warm[i])
			if err == nil && !bytes.Equal(got, out) {
				err = errors.New("addsc output differs from the layer walk's encoding")
			}
			if err != nil {
				res.fail(fmt.Errorf("verify %s: %w", p.warm[i].name, err))
			}
		}
	}
	return res, nil
}

// checkShift holds addsc's answer for the paper's running example to the
// paper's hand-derived values (Section 5.1.2 and 5.2): PM(hd,p) = next+ at
// the loop fixed point, no carried memory dependence under gpm, and II = 1.
func checkShift(out []byte) error {
	var doc struct {
		Functions []struct {
			Name        string
			LoopResults []struct {
				Matrix struct {
					Cells []struct {
						P, Q string
						Rels []struct{ Kind, Path string }
					}
				}
				CarriedMemEdges int
			}
			OracleComparison []struct {
				Oracle          string
				CarriedMemEdges int
			}
		}
		Pipelines []struct{ Info struct{ II int } }
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		return err
	}
	if len(doc.Functions) != 1 || doc.Functions[0].Name != "shift" || len(doc.Functions[0].LoopResults) != 1 {
		return errors.New("want one function shift with one loop")
	}
	fn := doc.Functions[0]
	next := false
	for _, c := range fn.LoopResults[0].Matrix.Cells {
		for _, r := range c.Rels {
			next = next || (c.P == "hd" && c.Q == "p" && r.Kind == "path" && r.Path == "next+")
		}
	}
	if !next {
		return errors.New("PM(hd,p) is not next+ at the loop fixed point")
	}
	if n := fn.LoopResults[0].CarriedMemEdges; n != 0 {
		return fmt.Errorf("%d carried memory edges under gpm, want 0", n)
	}
	for _, o := range fn.OracleComparison {
		if o.Oracle == "gpm" && o.CarriedMemEdges != 0 {
			return fmt.Errorf("gpm comparison has %d carried memory edges, want 0", o.CarriedMemEdges)
		}
	}
	if len(doc.Pipelines) != 1 || doc.Pipelines[0].Info.II != 1 {
		return errors.New("the shift loop does not pipeline at II = 1")
	}
	return nil
}
