package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/adds/wire"
	"repro/internal/core/pathmatrix"
)

const shiftSrc = `
type TwoWayLL [X] {
    int data;
    TwoWayLL *next is uniquely forward along X;
    TwoWayLL *prev is backward along X;
};
void shift(TwoWayLL *hd) {
    TwoWayLL *p;
    p = hd->next;
    while (p != NULL) {
        p->data = p->data - hd->data;
        p = p->next;
    }
}
`

// Mirror structs for decoding responses in tests.
type matrixT struct {
	Vars  []string `json:"vars"`
	Cells []struct {
		P    string `json:"p"`
		Q    string `json:"q"`
		Rels []struct {
			Kind    string `json:"kind"`
			Certain bool   `json:"certain"`
			Path    string `json:"path"`
		} `json:"rels"`
	} `json:"cells"`
	Valid bool `json:"valid"`
}

type analyzeRespT struct {
	EngineVersion string `json:"engineVersion"`
	Functions     []struct {
		Name     string  `json:"name"`
		Loops    int     `json:"loops"`
		Exit     matrixT `json:"exitMatrix"`
		LoopData []struct {
			Index           int             `json:"index"`
			Matrix          matrixT         `json:"matrix"`
			Dependences     json.RawMessage `json:"dependences"`
			CarriedMemEdges int             `json:"carriedMemEdges"`
		} `json:"loopResults"`
		Validation struct {
			ValidEverywhere bool     `json:"validEverywhere"`
			Intervals       []string `json:"intervals"`
		} `json:"validation"`
		Oracles []struct {
			Oracle          string `json:"oracle"`
			Loop            int    `json:"loop"`
			CarriedMemEdges int    `json:"carriedMemEdges"`
		} `json:"oracleComparison"`
	} `json:"functions"`
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestAnalyzeHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/analyze", wire.AnalyzeRequest{Source: shiftSrc, Fn: "shift"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("X-Cache = %q, want miss", got)
	}
	var out analyzeRespT
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, data)
	}
	if out.EngineVersion != pathmatrix.EngineVersion {
		t.Errorf("engineVersion = %q, want %q", out.EngineVersion, pathmatrix.EngineVersion)
	}
	if len(out.Functions) != 1 || out.Functions[0].Name != "shift" {
		t.Fatalf("functions = %+v", out.Functions)
	}
	fn := out.Functions[0]
	if fn.Loops != 1 || len(fn.LoopData) != 1 {
		t.Fatalf("loops = %d, loopResults = %d", fn.Loops, len(fn.LoopData))
	}
	// The paper's fixed-point entry: PM(hd, p) = next+.
	found := false
	for _, c := range fn.LoopData[0].Matrix.Cells {
		if c.P == "hd" && c.Q == "p" {
			for _, r := range c.Rels {
				if r.Kind == "path" && r.Path == "next+" {
					found = true
				}
			}
		}
	}
	if !found {
		t.Errorf("PM(hd, p) = next+ missing from loop matrix")
	}
	if !fn.Validation.ValidEverywhere {
		t.Errorf("shift should validate everywhere")
	}
	// GPM removes every carried memory dependence; conservative keeps some.
	byOracle := map[string]int{}
	for _, oc := range fn.Oracles {
		byOracle[oc.Oracle] = oc.CarriedMemEdges
	}
	if byOracle["gpm"] != 0 {
		t.Errorf("gpm carried mem edges = %d, want 0", byOracle["gpm"])
	}
	if byOracle["conservative"] == 0 {
		t.Errorf("conservative carried mem edges = 0, want > 0")
	}
}

func TestAnalyzeAllFunctionsSourceOrder(t *testing.T) {
	src := shiftSrc + `
void initlist(TwoWayLL *p) {
    while (p != NULL) {
        p->data = 0;
        p = p->next;
    }
}
`
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/analyze", wire.AnalyzeRequest{Source: src})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, data)
	}
	var out analyzeRespT
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Functions) != 2 || out.Functions[0].Name != "shift" || out.Functions[1].Name != "initlist" {
		t.Fatalf("functions out of source order: %+v", out.Functions)
	}
}

func TestAnalyzeMalformedBody(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// TestAnalyzeUnknownFieldRejected: a typoed key must be a loud 400 naming
// the field, never a silent fall-through to the default oracle.
func TestAnalyzeUnknownFieldRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/analyze",
		map[string]string{"source": shiftSrc, "orcale": "classic"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, data)
	}
	var body struct {
		Error string `json:"error"`
		Field string `json:"field"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatal(err)
	}
	if body.Field != "orcale" {
		t.Errorf("field = %q, want the offending %q; error %q", body.Field, "orcale", body.Error)
	}
	if !strings.Contains(body.Error, "orcale") {
		t.Errorf("error %q does not name the field", body.Error)
	}
}

func TestAnalyzeUnknownFunction(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/analyze", wire.AnalyzeRequest{Source: shiftSrc, Fn: "nope"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404; body %s", resp.StatusCode, data)
	}
}

func TestAnalyzeSourceErrorHasPosition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/analyze", wire.AnalyzeRequest{Source: "void f() { x = ; }"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422; body %s", resp.StatusCode, data)
	}
	var body struct {
		Error string `json:"error"`
		Line  int    `json:"line"`
		Col   int    `json:"col"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatal(err)
	}
	if body.Line == 0 || body.Error == "" {
		t.Errorf("source error missing position: %+v", body)
	}
}

func TestAnalyzeUnknownOracle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/analyze", wire.AnalyzeRequest{Source: shiftSrc, Oracle: "psychic"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, data)
	}
}

func TestAnalyzeTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	resp, data := postJSON(t, ts.URL+"/v1/analyze", wire.AnalyzeRequest{Source: shiftSrc, Fn: "shift"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", resp.StatusCode, data)
	}
}

func TestAnalyzeCancelledContext(t *testing.T) {
	s := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body, _ := json.Marshal(wire.AnalyzeRequest{Source: shiftSrc, Fn: "shift"})
	req := httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("status = %d, want %d; body %s", rec.Code, StatusClientClosedRequest, rec.Body)
	}
}

func TestAnalyzeCacheHitOnRepeat(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := wire.AnalyzeRequest{Source: shiftSrc, Fn: "shift"}
	resp1, data1 := postJSON(t, ts.URL+"/v1/analyze", req)
	resp2, data2 := postJSON(t, ts.URL+"/v1/analyze", req)
	if resp1.StatusCode != 200 || resp2.StatusCode != 200 {
		t.Fatalf("statuses = %d, %d", resp1.StatusCode, resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(data1, data2) {
		t.Errorf("cached response differs from computed response")
	}
	if h := s.Metrics().Count(CacheHits); h != 1 {
		t.Errorf("cache hits = %d, want 1", h)
	}
	if m := s.Metrics().Count(CacheMisses); m != 1 {
		t.Errorf("cache misses = %d, want 1", m)
	}
}

// TestAnalyzeWorkersNotInKey: the worker count does not change the answer,
// so it is not part of the content address. Requests differing only in
// workers share one cache entry, through /v1/analyze and /v1/batch alike.
func TestAnalyzeWorkersNotInKey(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	src, err := os.ReadFile("../../testdata/listops.mini")
	if err != nil {
		t.Fatal(err)
	}
	var first []byte
	for i, c := range []struct {
		workers int
		want    string
	}{{0, "miss"}, {1, "hit"}, {3, "hit"}} {
		resp, data := postJSON(t, ts.URL+"/v1/analyze", wire.AnalyzeRequest{Source: string(src), Workers: c.workers})
		if resp.StatusCode != 200 {
			t.Fatalf("workers=%d: status %d: %s", c.workers, resp.StatusCode, data)
		}
		if got := resp.Header.Get("X-Cache"); got != c.want {
			t.Errorf("workers=%d: X-Cache = %q, want %s", c.workers, got, c.want)
		}
		if i == 0 {
			first = data
		} else if !bytes.Equal(data, first) {
			t.Errorf("workers=%d: body differs from the workers=0 body", c.workers)
		}
	}
	body, err := json.Marshal(wire.BatchRequest{Items: []wire.AnalyzeRequest{{Source: string(src), Workers: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp, out := postBatch(t, ts.URL, body); resp.StatusCode != 200 {
		t.Fatalf("batch status %d: %s", resp.StatusCode, out)
	}
	if h := s.Metrics().Count(CacheHits); h != 3 {
		t.Errorf("cache hits = %d, want 3 (two analyze repeats and the batch item)", h)
	}
}

// TestAnalyzeConcurrentIdenticalRequests drives N identical requests
// through the HTTP layer at once: whatever mix of coalesced waits and cache
// hits the schedule produces, the analysis itself must run exactly once
// (exactly one miss).
func TestAnalyzeConcurrentIdenticalRequests(t *testing.T) {
	const n = 8
	s, ts := newTestServer(t, Config{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := postJSON(t, ts.URL+"/v1/analyze", wire.AnalyzeRequest{Source: shiftSrc})
			if resp.StatusCode != 200 {
				t.Errorf("status = %d, body %s", resp.StatusCode, data)
			}
		}()
	}
	wg.Wait()
	if m := s.Metrics().Count(CacheMisses); m != 1 {
		t.Errorf("cache misses = %d, want 1 (analysis must run once)", m)
	}
	total := s.Metrics().Count(CacheMisses) + s.Metrics().Count(CacheHits) + s.Metrics().Count(CacheCoalesced)
	if total != n {
		t.Errorf("outcomes = %d, want %d", total, n)
	}
}

func TestPipelineHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/pipeline",
		wire.PipelineRequest{Source: shiftSrc, Fn: "shift", Loop: 0, Width: 8})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, data)
	}
	var out struct {
		Info struct {
			II        int     `json:"ii"`
			Theoretic float64 `json:"theoreticalSpeedup"`
			OK        bool    `json:"ok"`
		} `json:"info"`
		VLIW string `json:"vliw"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Info.OK || out.Info.Theoretic != 5.0 {
		t.Errorf("info = %+v, want ok with theoretical speedup 5", out.Info)
	}
	if !strings.Contains(out.VLIW, "kernel") {
		t.Errorf("vliw missing kernel:\n%s", out.VLIW)
	}
}

func TestPipelineNoSuchLoop(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/pipeline",
		wire.PipelineRequest{Source: shiftSrc, Fn: "shift", Loop: 7})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404; body %s", resp.StatusCode, data)
	}
}

func TestPipelineBadWidth(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/pipeline",
		wire.PipelineRequest{Source: shiftSrc, Fn: "shift", Width: -3})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, data)
	}
}

func TestExperimentEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	var defs []wire.ExperimentDef
	if err := json.NewDecoder(resp.Body).Decode(&defs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(defs) != 10 || defs[0].ID != "E1" {
		t.Fatalf("defs = %+v", defs)
	}

	resp, err = http.Get(ts.URL + "/v1/experiments/E4")
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		ID      string     `json:"id"`
		Rows    [][]string `json:"rows"`
		Figures []string   `json:"figures"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rep.ID != "E4" || len(rep.Figures) == 0 {
		t.Fatalf("report = %+v", rep)
	}

	resp, err = http.Get(ts.URL + "/v1/experiments/E99")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown experiment status = %d, want 404", resp.StatusCode)
	}
}

// TestOracleListPinned pins GET /v1/oracles byte-for-byte: the rows come
// from the registry in rank order, so this golden is the contract that new
// oracles append (never reorder) and existing descriptions hold still.
func TestOracleListPinned(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/oracles")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := `[{"name":"gpm","description":"general path matrix analysis with ADDS declarations (the paper's analysis; default)","acceptsK":false},` +
		`{"name":"classic","description":"path matrix analysis with the ADDS declarations stripped","acceptsK":false},` +
		`{"name":"conservative","description":"worst-case baseline: same-type pointers may always alias","acceptsK":false},` +
		`{"name":"klimit","description":"k-limited storage graphs (Jones & Muchnick); -k bounds per-site materialization","acceptsK":true},` +
		`{"name":"smg","description":"SMG-lite symbolic memory graphs (Predator-style segments with materialization)","acceptsK":false}]` + "\n"
	if string(data) != want {
		t.Errorf("/v1/oracles body drifted:\n got %s\nwant %s", data, want)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" || body["engine"] != pathmatrix.EngineVersion {
		t.Fatalf("body = %v", body)
	}
}

func TestMetricsScrape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := wire.AnalyzeRequest{Source: shiftSrc, Fn: "shift"}
	postJSON(t, ts.URL+"/v1/analyze", req)
	postJSON(t, ts.URL+"/v1/analyze", req)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	text := string(data)
	for _, want := range []string{
		"addsd_requests_total{endpoint=\"analyze\",code=\"200\"} 2",
		"addsd_cache_hits_total 1",
		"addsd_cache_misses_total 1",
		"addsd_cache_entries 1",
		"addsd_inflight_requests",
		"addsd_request_duration_seconds_count 2",
		"addsd_engine_analyses_total",
		"addsd_engine_smg_analyses_total",
		"addsd_engine_smg_nodes_total",
		"addsd_engine_smg_segments_total",
		"addsd_engine_smg_materializations_total",
		"addsd_pool_capacity",
		"addsd_shed_total 0",
		"addsd_queue_depth 0",
		"addsd_queue_capacity",
		"addsd_flight_refs{endpoint=\"analyze\"} 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

func TestPprofLive(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof status = %d", resp.StatusCode)
	}
}

// TestStatusWriterFlushPassthrough: the metrics middleware must not
// swallow http.Flusher — streaming endpoints (pprof trace) depend on it.
func TestStatusWriterFlushPassthrough(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec, code: http.StatusOK}
	var _ http.Flusher = sw
	sw.Flush()
	if !rec.Flushed {
		t.Error("Flush did not reach the underlying writer")
	}
	if sw.Unwrap() != http.ResponseWriter(rec) {
		t.Error("Unwrap must expose the underlying writer for ResponseController")
	}
	// And the stdlib's discovery path works end to end.
	rec2 := httptest.NewRecorder()
	sw2 := &statusWriter{ResponseWriter: rec2, code: http.StatusOK}
	if err := http.NewResponseController(sw2).Flush(); err != nil {
		t.Errorf("ResponseController.Flush = %v", err)
	}
	if !rec2.Flushed {
		t.Error("ResponseController flush did not reach the underlying writer")
	}
}

func TestEndpointLabelBounded(t *testing.T) {
	cases := map[string]string{
		"/v1/analyze":        "analyze",
		"/v1/pipeline":       "pipeline",
		"/v1/experiments":    "experiments",
		"/v1/experiments/E4": "experiments",
		"/v1/oracles":        "oracles",
		"/healthz":           "healthz",
		"/metrics":           "metrics",
		"/debug/pprof/heap":  "pprof",
		"/anything/else":     "other",
		"/analyze":           "other",
		"/v1/nope":           "other",
	}
	for path, want := range cases {
		if got := endpointLabel(path); got != want {
			t.Errorf("endpointLabel(%q) = %q, want %q", path, got, want)
		}
	}
}

// testBody is a compute hook's answer: a JSON object of strings.
type testBody map[string]string

func (b testBody) AppendJSON(dst []byte) []byte {
	out, err := json.Marshal(map[string]string(b))
	if err != nil {
		panic(err) // a map of strings always marshals
	}
	return append(dst, out...)
}
