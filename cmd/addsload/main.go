// Command addsload drives a mixed workload against one addsd process or an
// N-process cluster and reports the latency distribution, failing when a
// p50/p99 SLO is violated. The workload is derived deterministically from
// -seed, so a CI run is reproducible request for request:
//
//	addsload -targets 127.0.0.1:7201,127.0.0.1:7202,127.0.0.1:7203 \
//	    -requests 300 -mix hit=6,miss=3,divergent=1 -slo-p99 500ms
//
// Three request kinds model real traffic:
//
//   - hit: drawn from a small fixed pool of generated programs, so repeats
//     land in some shard's cache (or a peer's, in cluster mode);
//   - miss: a program no one has seen before (unique generator seed), which
//     must be analyzed from scratch;
//   - divergent: a malformed source that the server rejects with 422 — the
//     error path must stay fast too.
//
// Responses tally by outcome and by X-Cache disposition (hit, peer-hit,
// forwarded, ...), which is how the cluster smoke test proves peer cache
// traffic actually happened. 429 sheds are counted but are not failures;
// transport errors and 5xx are. Exit codes: 0 ok, 1 request failures,
// 2 flag misuse, 3 SLO violation.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/gen"
	"repro/internal/par"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// job is one planned request: the body is fixed before any request is sent
// so the workload depends only on -seed, never on timing.
type job struct {
	kind   string // hit | miss | divergent
	target string
	body   []byte
}

// sample is one completed request.
type sample struct {
	kind    string
	status  int
	cache   string // X-Cache response header, "" when absent
	latency time.Duration
	err     error
}

// report is the machine-readable summary (-format json) and the source of
// the text rendering.
type report struct {
	Targets     int            `json:"targets"`
	Requests    int            `json:"requests"`
	Elapsed     float64        `json:"elapsedSeconds"`
	Throughput  float64        `json:"requestsPerSecond"`
	OK          int            `json:"ok"`
	Divergent   int            `json:"divergent"`
	Shed        int            `json:"shed"`
	Failed      int            `json:"failed"`
	Cache       map[string]int `json:"cache"`
	P50ms       float64        `json:"p50ms"`
	P90ms       float64        `json:"p90ms"`
	P99ms       float64        `json:"p99ms"`
	MaxMs       float64        `json:"maxMs"`
	SLOViolated bool           `json:"sloViolated"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("addsload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	targets := fs.String("targets", "127.0.0.1:7117", "comma-separated addsd base addresses; requests round-robin across them")
	seed := fs.Int64("seed", 1, "workload seed: same seed, same request bodies in the same order")
	requests := fs.Int("requests", 200, "total requests to send")
	concurrency := fs.Int("concurrency", 8, "in-flight request cap")
	mix := fs.String("mix", "hit=6,miss=3,divergent=1", "workload weights as kind=weight, kinds: hit, miss, divergent")
	pool := fs.Int("hit-pool", 16, "distinct programs in the hit pool")
	profile := fs.String("profile", "mixed", "generator profile for program bodies")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request budget")
	sloP50 := fs.Duration("slo-p50", 0, "fail (exit 3) when p50 exceeds this (0 = no assertion)")
	sloP99 := fs.Duration("slo-p99", 0, "fail (exit 3) when p99 exceeds this (0 = no assertion)")
	format := fs.String("format", "text", "report format: text or json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *requests < 1 || *concurrency < 1 || *pool < 1 {
		fmt.Fprintln(stderr, "usage: addsload [flags]")
		fs.Usage()
		return 2
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "addsload: unknown -format %q\n", *format)
		return 2
	}
	weights, err := parseMix(*mix)
	if err != nil {
		fmt.Fprintln(stderr, "addsload:", err)
		return 2
	}
	pr, err := gen.ProfileByName(*profile)
	if err != nil {
		fmt.Fprintln(stderr, "addsload:", err)
		return 2
	}
	var bases []string
	for _, t := range strings.Split(*targets, ",") {
		if t = strings.TrimSpace(t); t != "" {
			if !strings.Contains(t, "://") {
				t = "http://" + t
			}
			bases = append(bases, strings.TrimRight(t, "/"))
		}
	}
	if len(bases) == 0 {
		fmt.Fprintln(stderr, "addsload: -targets is empty")
		return 2
	}

	jobs := plan(*seed, *requests, *pool, weights, pr, bases)
	client := &http.Client{Timeout: *timeout}
	samples := make([]sample, len(jobs))
	start := time.Now()
	par.Each(context.Background(), len(jobs), *concurrency, func(i int) error { //nolint:errcheck // never fails: no ctx, f returns nil
		samples[i] = send(client, jobs[i])
		return nil
	})
	elapsed := time.Since(start)

	rep := summarize(samples, len(bases), elapsed)
	rep.SLOViolated = (*sloP50 > 0 && rep.P50ms > float64(*sloP50)/1e6) ||
		(*sloP99 > 0 && rep.P99ms > float64(*sloP99)/1e6)

	if *format == "json" {
		enc := json.NewEncoder(stdout)
		enc.Encode(rep) //nolint:errcheck
	} else {
		render(stdout, rep, *sloP50, *sloP99)
	}
	switch {
	case rep.Failed > 0:
		return 1
	case rep.SLOViolated:
		return 3
	}
	return 0
}

// parseMix turns "hit=6,miss=3,divergent=1" into weights.
func parseMix(s string) (map[string]int, error) {
	w := map[string]int{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind, val, ok := strings.Cut(part, "=")
		var n int
		if _, err := fmt.Sscanf(val, "%d", &n); !ok || err != nil || n < 0 {
			return nil, fmt.Errorf("bad -mix entry %q (want kind=weight)", part)
		}
		switch kind {
		case "hit", "miss", "divergent":
			w[kind] = n
		default:
			return nil, fmt.Errorf("unknown -mix kind %q", kind)
		}
	}
	total := w["hit"] + w["miss"] + w["divergent"]
	if total == 0 {
		return nil, fmt.Errorf("-mix %q has zero total weight", s)
	}
	return w, nil
}

// plan lays out the whole workload up front from the seed: kind choices come
// from one rand stream, hit bodies from a fixed pool of generated programs,
// miss bodies from fresh per-request seeds, divergent bodies from a small
// rotation of malformed sources. Targets round-robin so every process sees
// every kind.
func plan(seed int64, n, poolSize int, weights map[string]int, pr gen.Profile, bases []string) []job {
	hitPool := make([][]byte, poolSize)
	for i := range hitPool {
		hitPool[i] = analyzeBody(gen.Generate(seed+int64(i), pr).Source())
	}
	rng := rand.New(rand.NewSource(seed))
	total := weights["hit"] + weights["miss"] + weights["divergent"]
	jobs := make([]job, n)
	missSeed := seed + int64(poolSize) // fresh seeds start past the hit pool
	for i := range jobs {
		j := job{target: bases[i%len(bases)]}
		switch pick := rng.Intn(total); {
		case pick < weights["hit"]:
			j.kind, j.body = "hit", hitPool[rng.Intn(poolSize)]
		case pick < weights["hit"]+weights["miss"]:
			missSeed++
			j.kind, j.body = "miss", analyzeBody(gen.Generate(missSeed, pr).Source())
		default:
			j.kind = "divergent"
			j.body = analyzeBody([]byte(fmt.Sprintf("void broken%d(TwoWayLL *p) {", rng.Intn(8))))
		}
		jobs[i] = j
	}
	return jobs
}

func analyzeBody(source []byte) []byte {
	b, _ := json.Marshal(map[string]string{"source": string(source)})
	return b
}

func send(client *http.Client, j job) sample {
	start := time.Now()
	resp, err := client.Post(j.target+"/v1/analyze", "application/json", strings.NewReader(string(j.body)))
	s := sample{kind: j.kind, latency: time.Since(start), err: err}
	if err != nil {
		return s
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	s.latency = time.Since(start)
	s.status = resp.StatusCode
	s.cache = resp.Header.Get("X-Cache")
	return s
}

func summarize(samples []sample, targets int, elapsed time.Duration) report {
	rep := report{
		Targets:    targets,
		Requests:   len(samples),
		Elapsed:    elapsed.Seconds(),
		Throughput: float64(len(samples)) / elapsed.Seconds(),
		Cache:      map[string]int{},
	}
	var lat []time.Duration
	for _, s := range samples {
		switch {
		case s.err != nil || s.status >= 500:
			rep.Failed++
			continue // a failed request's latency is noise (timeouts dominate)
		case s.status == http.StatusTooManyRequests:
			rep.Shed++
		case s.status == http.StatusUnprocessableEntity:
			rep.Divergent++
		case s.status == http.StatusOK:
			rep.OK++
		default:
			rep.Failed++
			continue
		}
		if s.cache != "" {
			rep.Cache[s.cache]++
		}
		lat = append(lat, s.latency)
	}
	sort.Slice(lat, func(i, k int) bool { return lat[i] < lat[k] })
	rep.P50ms = percentile(lat, 0.50)
	rep.P90ms = percentile(lat, 0.90)
	rep.P99ms = percentile(lat, 0.99)
	if len(lat) > 0 {
		rep.MaxMs = float64(lat[len(lat)-1]) / 1e6
	}
	return rep
}

// percentile is the nearest-rank percentile over sorted samples, in ms.
func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / 1e6
}

func render(w io.Writer, rep report, sloP50, sloP99 time.Duration) {
	fmt.Fprintf(w, "addsload: %d requests in %.2fs (%.1f req/s) against %d target(s)\n",
		rep.Requests, rep.Elapsed, rep.Throughput, rep.Targets)
	fmt.Fprintf(w, "  outcomes: %d ok, %d divergent(422), %d shed(429), %d failed\n",
		rep.OK, rep.Divergent, rep.Shed, rep.Failed)
	if len(rep.Cache) > 0 {
		keys := make([]string, 0, len(rep.Cache))
		for k := range rep.Cache {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s=%d", k, rep.Cache[k])
		}
		fmt.Fprintf(w, "  cache: %s\n", strings.Join(parts, " "))
	}
	fmt.Fprintf(w, "  latency: p50 %.2fms p90 %.2fms p99 %.2fms max %.2fms\n",
		rep.P50ms, rep.P90ms, rep.P99ms, rep.MaxMs)
	assert := func(name string, got float64, slo time.Duration) {
		if slo <= 0 {
			return
		}
		verdict := "ok"
		if got > float64(slo)/1e6 {
			verdict = "VIOLATED"
		}
		fmt.Fprintf(w, "  slo: %s %.2fms vs %s %s\n", name, got, slo, verdict)
	}
	assert("p50", rep.P50ms, sloP50)
	assert("p99", rep.P99ms, sloP99)
}
