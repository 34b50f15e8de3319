package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"repro/internal/difftest"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the line the benchmark ends with.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one benchmark run: a workload, traced or not.
type runConfig struct {
	childArgs
	build     string  // where addsc is built and temporary files go
	seconds   float64 // how long the untraced run measures
	trace     bool
	minPasses int // passes per run, so every metric is a median
	minSetups int // set-ups per run, passes included
}

const (
	verifyJobs      = 4  // in-process walk checks after the first pass
	soundMixed      = 32 // soundness-gate sample sizes
	soundHostile    = 8
	processStarts   = 7  // execs behind process.start_ms
	defaultMinPass  = 3  // passes behind the end-to-end metrics
	defaultMinSetup = 11 // set-ups behind setup_s
	reportedFailure = 3  // failure messages printed per source
)

// run holds one run's state while it is measured.
type run struct {
	cfg   runConfig
	plan  *plan
	res   *runResult
	notes map[string]string
	log   io.Writer
}

func (r *run) set(name, unit string, v float64, note string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		r.notes[name] = note
	}
}

func (r *run) fail(n int, errs []string) {
	r.res.Failed += n
	for _, e := range errs[:min(len(errs), reportedFailure)] {
		fmt.Fprintf(r.log, "  FAIL %s\n", e)
	}
}

// runWorkload performs one run and prints its report lines to log.
func runWorkload(cfg runConfig, log io.Writer) (*runResult, error) {
	p, err := loadPlan(cfg.childArgs)
	if err != nil {
		return nil, err
	}
	if cfg.tmp == "" {
		cfg.tmp = filepath.Join(cfg.build, "tmp")
	}
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return nil, err
	}
	if p.workload == "cold-cli" && cfg.addsc == "" {
		if cfg.addsc, err = buildAddsc(cfg.root, cfg.build); err != nil {
			return nil, err
		}
	}
	r := &run{cfg: cfg, plan: p, log: log, notes: map[string]string{},
		res: &runResult{Metrics: map[string]metric{}}}
	fmt.Fprintf(log, "workload %s  seed %d  trace %t  plan %s  %d jobs/pass\n",
		p.workload, p.seed, cfg.trace, p.digest, len(p.jobs))
	if cfg.trace {
		err = r.traced()
	} else {
		err = r.untraced()
	}
	if err != nil {
		return nil, err
	}
	r.res.Correct = r.res.Failed == 0
	names := make([]string, 0, len(r.res.Metrics))
	for name := range r.res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.res.Metrics[name]
		fmt.Fprintf(log, "  %-32s %14.6g %-6s %s\n", name, m.Value, m.Unit, r.notes[name])
	}
	fmt.Fprintf(log, "  attempted %d, failed %d\n", r.res.Attempted, r.res.Failed)
	return r.res, nil
}

// buildAddsc builds the addsc binary the cold-cli workload executes. The
// build is part of the run's preparation, not of any timed interval.
func buildAddsc(root, build string) (string, error) {
	out, err := filepath.Abs(filepath.Join(build, "addsc"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", out, "./cmd/addsc")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building addsc: %v: %s", err, msg)
	}
	return out, nil
}

// pass runs pass k of the run in a fresh child; in role "setup" the child
// only sets the pass up.
func (r *run) pass(role string, k, verify int) (*passResult, error) {
	a := r.cfg.childArgs
	a.pass, a.verify = k, verify
	want, err := loadPlan(a)
	if err != nil {
		return nil, err
	}
	var pr passResult
	if err := spawnJSON(role, a, &pr); err != nil {
		return nil, err
	}
	if pr.Digest != want.digest {
		return nil, fmt.Errorf("pass child built plan %s, parent %s", pr.Digest, want.digest)
	}
	r.res.Attempted += len(pr.LatNs) + pr.Checked
	r.fail(pr.Failed, pr.Errors)
	return &pr, nil
}

// untraced measures the end-to-end metrics: passes in fresh children until
// the run has lasted cfg.seconds and made at least cfg.minPasses passes,
// each pass between two calibration samples, then set-ups alone up to
// cfg.minSetups, then the sampled soundness gate.
func (r *run) untraced() error {
	var passes []*passResult
	start := time.Now()
	cal := newCalibrator()
	samples := []time.Duration{cal.sample()}
	for len(passes) < r.cfg.minPasses || time.Since(start).Seconds() < r.cfg.seconds {
		verify := 0
		if len(passes) == 0 {
			verify = verifyJobs
		}
		pr, err := r.pass("pass", len(passes), verify)
		if err != nil {
			return err
		}
		passes = append(passes, pr)
		samples = append(samples, cal.sample())
	}
	// Every metric is taken per pass and reported as the median over the
	// passes, so one pass disturbed by the machine does not move it. Times
	// are divided by the pass's speed factor (rates multiplied): the
	// geometric mean of the calibration samples before and after the pass,
	// over calRef. The report also gives each time's unscaled median.
	tail := tailPercentile(len(r.plan.jobs))
	var speed, rss []float64
	raw, scaled := map[string][]float64{}, map[string][]float64{}
	for i, pr := range passes {
		f := math.Sqrt(float64(samples[i])*float64(samples[i+1])) / float64(calRef)
		speed = append(speed, f)
		lat := make([]float64, len(pr.LatNs))
		for j, ns := range pr.LatNs {
			lat[j] = float64(ns) / 1e6
		}
		sort.Float64s(lat)
		ops := float64(len(lat))
		for name, v := range map[string]float64{
			"setup_s":          float64(pr.SetupNs) / 1e9,
			"throughput_ops_s": float64(pr.WallNs) / 1e9 / ops, // seconds per operation until reported
			"latency_p50_ms":   percentile(lat, 50),
			"latency_tail_ms":  percentile(lat, tail),
			"cpu_ms_per_op":    float64(pr.CPUNs) / ops / 1e6,
		} {
			raw[name] = append(raw[name], v)
			scaled[name] = append(scaled[name], v/f)
		}
		rss = append(rss, float64(pr.MaxRSSKB)/1024)
	}
	// A set-up lasts milliseconds on most workloads, so a burst on the
	// machine can double one; a run sets up more often than it passes.
	for k := len(passes); len(raw["setup_s"]) < r.cfg.minSetups; k++ {
		pr, err := r.pass("setup", k, 0)
		if err != nil {
			return err
		}
		v := float64(pr.SetupNs) / 1e9
		raw["setup_s"] = append(raw["setup_s"], v)
		scaled["setup_s"] = append(scaled["setup_s"], v/(float64(samples[len(samples)-1])/float64(calRef)))
	}
	fmt.Fprintf(r.log, "  speed factor %.4f (%.4f to %.4f over %d passes; %d calibration samples)\n",
		median(speed), slices.Min(speed), slices.Max(speed), len(passes), len(samples))
	set := func(name, unit, note string) {
		v, u := median(scaled[name]), median(raw[name])
		if name == "throughput_ops_s" {
			v, u = 1/v, 1/u
		}
		r.set(name, unit, v, fmt.Sprintf("%s; unscaled %.6g", note, u))
	}
	per := fmt.Sprintf("median of %d passes", len(passes))
	set("setup_s", "s", fmt.Sprintf("median of %d set-ups", len(raw["setup_s"])))
	set("throughput_ops_s", "ops/s", fmt.Sprintf("%s; %d clients, closed loop", per, r.plan.clients))
	set("latency_p50_ms", "ms", fmt.Sprintf("%s of %d samples", per, len(r.plan.jobs)))
	set("latency_tail_ms", "ms", fmt.Sprintf("p%g; %s of %d samples", tail, per, len(r.plan.jobs)))
	set("cpu_ms_per_op", "ms", per)
	// Peak RSS moves with where the heaviest programs fall in a pass's
	// order rather than with the machine, so it is averaged over the orders.
	r.set("peak_rss_mb", "MB", mean(rss), fmt.Sprintf("mean of %d passes", len(passes)))
	r.soundness()
	return nil
}

// soundness runs difftest's interpreter-trace soundness check over a seeded
// sample of the miss workloads' programs, untimed.
func (r *run) soundness() {
	n := map[string]int{"miss-mixed": soundMixed, "miss-hostile": soundHostile}[r.plan.workload]
	if n == 0 || r.cfg.limit > 0 {
		return
	}
	rng := rand.New(rand.NewSource(r.plan.seed))
	var errs []string
	for _, i := range rng.Perm(len(r.plan.jobs))[:n] {
		pr := r.plan.jobs[i].prog
		for _, d := range difftest.DiffOne(pr.Seed, pr.Profile, difftest.Config{Checks: []string{difftest.CheckSoundness}}) {
			errs = append(errs, fmt.Sprintf("soundness %s: %s", r.plan.jobs[i].name, d.Detail))
		}
	}
	r.res.Attempted += n
	r.fail(len(errs), errs)
	fmt.Fprintf(r.log, "  soundness gate: %d programs, %d divergences\n", n, len(errs))
}

// traced makes the per-layer run: one untraced pass (service counters and
// the daemon's bytes), the layer walk in fresh children, and the serving
// process's start time.
func (r *run) traced() error {
	pr, err := r.pass("pass", 0, 0)
	if err != nil {
		return err
	}
	// cold-cli walks each file the pass ran in its own process; the other
	// workloads walk the pass in one. want lines up with the walked digests.
	files, want := []int{0}, pr.Digests
	if r.plan.workload == "cold-cli" {
		files, want = nil, nil
		for f, d := range pr.Digests {
			if d != "" {
				files, want = append(files, f), append(want, d)
			}
		}
	}
	var walks []*walkResult
	var walked []string
	for _, f := range files {
		a := r.cfg.childArgs
		a.file = f
		var wr walkResult
		if err := spawnJSON("walk", a, &wr); err != nil {
			return err
		}
		r.fail(len(wr.Errors), wr.Errors)
		walks = append(walks, &wr)
		walked = append(walked, wr.Digests...)
	}

	// The walk's encoding must match the daemon's (or addsc's) bytes for
	// every replayed job. A job the walk failed on is already counted.
	mismatch := 0
	for i, d := range walked {
		if d != "" && (i >= len(want) || want[i] != d) {
			mismatch++
		}
	}
	r.res.Attempted += len(walked)
	if mismatch > 0 {
		r.fail(mismatch, []string{fmt.Sprintf("%d of %d replayed jobs differ from the layer walk's encoding", mismatch, len(walked))})
	}
	fmt.Fprintf(r.log, "  walk: %d jobs replayed, %d differ from the untraced answers\n", len(walked), mismatch)

	start, err := r.processStart()
	if err != nil {
		return err
	}
	r.layerMetrics(pr, walks, start)
	return nil
}

// processStart is the median time to exec the workload's serving process
// and get its first answer: addsc -show check on the paper's example for
// cold-cli, the in-process daemon's first health check otherwise.
func (r *run) processStart() (float64, error) {
	var ms []float64
	for range processStarts {
		t := time.Now()
		if r.plan.workload == "cold-cli" {
			cmd := exec.Command(r.cfg.addsc, "-show", "check", filepath.Join(r.cfg.root, "examples", "shift.mini"))
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			if err := cmd.Run(); err != nil {
				return 0, fmt.Errorf("addsc -show check: %v: %s", err, stderr.Bytes())
			}
		} else if _, err := spawn("serve", r.cfg.childArgs); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t))/1e6)
	}
	return median(ms), nil
}

// everyPath lists the layers every workload's requests reach; they are
// reported in ms per operation. The others (oracles, validation, depgraph,
// xform) sit on some workloads' paths only and are reported as shares.
var everyPath = []layer{lParse, lTypecheck, lSummaries, lNormalize, lFixpoint, lIR, lEncode}

func (r *run) layerMetrics(pr *passResult, walks []*walkResult, startMs float64) {
	var jobs int
	var walkNs, bytes int64
	var gcCycles, gcPause, alloc, live, intern float64
	layerNs := map[string]int64{}
	var d struct {
		analyses, iterations, widenings, clones, memoHits, memoMisses float64
		shared, dedup, computed, reused                               float64
	}
	for _, w := range walks {
		jobs += w.Jobs
		walkNs += w.WalkNs
		bytes += w.Bytes
		for name, ns := range w.LayerNs {
			layerNs[name] += ns
		}
		b, a := w.Before, w.After
		d.analyses += float64(a.Analyses - b.Analyses)
		d.iterations += float64(a.Iterations - b.Iterations)
		d.widenings += float64(a.Widenings - b.Widenings)
		d.clones += float64(a.Clones - b.Clones)
		d.memoHits += float64(a.MemoHits - b.MemoHits)
		d.memoMisses += float64(a.MemoMisses - b.MemoMisses)
		d.shared += float64(a.SharedRows - b.SharedRows)
		d.dedup += float64(a.DedupRows - b.DedupRows)
		d.computed += float64(a.SummaryComputed - b.SummaryComputed)
		d.reused += float64(a.SummaryReused - b.SummaryReused)
		gcCycles += float64(w.GCCycles)
		gcPause += float64(w.GCPause)
		alloc += float64(w.Alloc)
		live += float64(w.LiveHeap) / float64(len(walks))
		intern += float64(a.InternedPaths) / float64(len(walks))
	}
	ops := float64(jobs)
	perOp := func(ns int64) float64 { return float64(ns) / ops / 1e6 }
	note := fmt.Sprintf("%d walked jobs", jobs)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	r.set("walk.ms_per_op", "ms", perOp(walkNs), note)
	var attributed int64
	for _, name := range layerNames {
		attributed += layerNs[name]
		r.set(name+".share", "ratio", ratio(float64(layerNs[name]), float64(walkNs)), "of walk time")
	}
	for _, l := range everyPath {
		r.set(layerNames[l]+".ms_per_op", "ms", perOp(layerNs[layerNames[l]]), "")
	}
	r.set("walk.unattributed_ms_per_op", "ms", perOp(walkNs-attributed), "walk time outside every timed call")

	r.set("summaries.computed_per_op", "count", d.computed/ops, "")
	r.set("summaries.reuse_ratio", "ratio", ratio(d.reused, d.computed+d.reused), "")
	r.set("fixpoint.runs_per_op", "count", d.analyses/ops, "path-matrix fixpoints per request")
	r.set("fixpoint.iterations_per_op", "count", d.iterations/ops, "")
	r.set("fixpoint.clones_per_op", "count", d.clones/ops, "")
	r.set("fixpoint.widenings_per_op", "count", d.widenings/ops, "")
	r.set("fixpoint.shared_rows_per_op", "count", d.shared/ops, "")
	r.set("fixpoint.dedup_rows_per_op", "count", d.dedup/ops, "")
	r.set("memo.hit_ratio", "ratio", ratio(d.memoHits, d.memoHits+d.memoMisses), "")
	r.set("memo.lookups_per_op", "count", (d.memoHits+d.memoMisses)/ops, "")
	r.set("intern.paths", "count", intern, "interned paths at the end of a walk")
	r.set("encode.bytes_per_op", "bytes", float64(bytes)/ops, "")

	s := pr.Service
	r.set("service.cache_hit_ratio", "ratio", ratio(s.Hits, s.Hits+s.Misses), "untraced pass, /metrics")
	passOps := float64(len(pr.LatNs))
	r.set("service.coalesced_per_op", "count", s.Coalesced/passOps, "")
	r.set("service.shed_per_op", "count", s.Shed/passOps, "")
	r.set("service.queue_wait_share", "ratio", ratio(s.QueueSec, s.RequestSec), "of request time")
	r.set("process.start_ms", "ms", startMs, fmt.Sprintf("median of %d execs", processStarts))

	r.set("gc.cycles_per_op", "count", gcCycles/ops, "")
	r.set("gc.pause_share", "ratio", ratio(gcPause, float64(walkNs)), "of walk time")
	r.set("gc.alloc_kb_per_op", "KB", alloc/ops/1024, "")
	r.set("gc.live_heap_mb", "MB", live/(1<<20), "after GC at the end of a walk")

	r.set("trace.overhead_ratio", "ratio", ratio(float64(walkNs)/ops, r.untracedMean(pr))-1,
		"walk mean over untraced mean latency of the same jobs, minus 1")
}

// untracedMean is the untraced pass's mean latency (ns) over the kind of
// job the walk replayed: the edits for hit-edit, every job otherwise.
func (r *run) untracedMean(pr *passResult) float64 {
	var sum float64
	n := 0
	for i, ns := range pr.LatNs {
		if r.plan.workload == "hit-edit" && r.plan.jobs[i].kind != kindEdit {
			continue
		}
		sum += float64(ns)
		n++
	}
	return sum / float64(max(n, 1))
}
