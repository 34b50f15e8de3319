package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/adds/wire"
	"repro/internal/core/pathmatrix"
	"repro/internal/obs"
)

// syncBuffer is a concurrency-safe bytes.Buffer for capturing the access
// log (the handler goroutines write while the test reads).
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func do(t *testing.T, method, url string, body []byte, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
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

// TestRouteErrorsJSON: unrouted requests (no such path, wrong method) get
// the typed JSON envelope, not net/http's plain-text defaults.
func TestRouteErrorsJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, data := do(t, "GET", ts.URL+"/nope", nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var body wire.ErrorEnvelope
	if err := json.Unmarshal(data, &body); err != nil || body.Error == "" {
		t.Fatalf("404 body is not the error envelope: %v %q", err, data)
	}

	// The unversioned spellings are gone: only /v1 routes analyses.
	analyzeBody, _ := json.Marshal(wire.AnalyzeRequest{Source: shiftSrc, Fn: "shift"})
	if resp, _ := do(t, "POST", ts.URL+"/analyze", analyzeBody, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /analyze status = %d, want 404", resp.StatusCode)
	}

	resp, data = do(t, "GET", ts.URL+"/v1/analyze", nil, nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "POST") {
		t.Errorf("Allow = %q, want POST listed", allow)
	}
	if err := json.Unmarshal(data, &body); err != nil || !strings.Contains(body.Error, "not allowed") {
		t.Fatalf("405 body is not the error envelope: %v %q", err, data)
	}
}

// TestDepgraphEndpoint: the standalone dependence-graph endpoint answers
// with per-loop graphs and validates its selectors.
func TestDepgraphEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, data := postJSON(t, ts.URL+"/v1/depgraph", wire.DepgraphRequest{Source: shiftSrc, Fn: "shift"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var dg struct {
		EngineVersion string `json:"engineVersion"`
		Fn            string `json:"fn"`
		Oracle        string `json:"oracle"`
		Loops         []struct {
			Index           int             `json:"index"`
			Dependences     json.RawMessage `json:"dependences"`
			CarriedMemEdges int             `json:"carriedMemEdges"`
		} `json:"loops"`
	}
	if err := json.Unmarshal(data, &dg); err != nil {
		t.Fatal(err)
	}
	if dg.Fn != "shift" || dg.Oracle != "gpm" || len(dg.Loops) != 1 {
		t.Fatalf("fn=%q oracle=%q loops=%d", dg.Fn, dg.Oracle, len(dg.Loops))
	}
	if len(dg.Loops[0].Dependences) == 0 {
		t.Fatal("loop 0 has no dependence graph")
	}

	resp, _ = postJSON(t, ts.URL+"/v1/depgraph", wire.DepgraphRequest{Source: shiftSrc, Fn: "nope"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown fn status = %d, want 404", resp.StatusCode)
	}
	bad := 7
	resp, _ = postJSON(t, ts.URL+"/v1/depgraph", wire.DepgraphRequest{Source: shiftSrc, Fn: "shift", Loop: &bad})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bad loop status = %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/depgraph", wire.DepgraphRequest{Source: shiftSrc})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing fn status = %d, want 400", resp.StatusCode)
	}
}

// accessRecords parses the captured JSON access log and returns the records
// for one endpoint.
func accessRecords(t *testing.T, logs *syncBuffer, endpoint string) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("access log line is not JSON: %v\n%s", err, line)
		}
		if rec["msg"] == "request" && rec["endpoint"] == endpoint {
			out = append(out, rec)
		}
	}
	return out
}

// waitAccessRecords polls for n access-log records on the endpoint — the
// line is written after the response body, so the client can be ahead of
// the logger for a moment.
func waitAccessRecords(t *testing.T, logs *syncBuffer, endpoint string, n int) []map[string]any {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		recs := accessRecords(t, logs, endpoint)
		if len(recs) >= n {
			return recs
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d access records for %s:\n%s", len(recs), n, endpoint, logs.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// getTraceJSON polls /debug/trace/{id} until the trace lands in the ring
// (the root span ends after the response is written).
func getTraceJSON(t *testing.T, base, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, data := do(t, "GET", base+"/debug/trace/"+id, nil, nil)
		if resp.StatusCode == http.StatusOK {
			var tr map[string]any
			if err := json.Unmarshal(data, &tr); err != nil {
				t.Fatalf("trace body: %v\n%s", err, data)
			}
			return tr
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never appeared: %d %s", id, resp.StatusCode, data)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// spanNames flattens a TraceJSON span forest into its span names.
func spanNames(tr map[string]any) []string {
	var names []string
	var walk func(any)
	walk = func(v any) {
		sp, ok := v.(map[string]any)
		if !ok {
			return
		}
		if n, ok := sp["name"].(string); ok {
			names = append(names, n)
		}
		if kids, ok := sp["children"].([]any); ok {
			for _, k := range kids {
				walk(k)
			}
		}
	}
	if spans, ok := tr["spans"].([]any); ok {
		for _, s := range spans {
			walk(s)
		}
	}
	return names
}

// TestTraceparentPropagation drives the miss, hit, and coalesced cache
// paths each under its own W3C traceparent and checks that (a) the
// response echoes the trace id, (b) the access log carries the request id
// and trace id as JSON, and (c) /debug/trace/{id} serves the span tree —
// with analysis-phase spans on the leader's trace only.
func TestTraceparentPropagation(t *testing.T) {
	logs := &syncBuffer{}
	lg, err := obs.NewLogger(logs, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Logger: lg})
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s.computeHook = func(endpoint string) func(ctx context.Context) (response, error) {
		return func(ctx context.Context) (response, error) {
			started <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return testBody{"ok": "yes"}, nil
		}
	}
	ts := newHTTPServer(t, s)

	const (
		missID  = "0af7651916cd43dd8448eb211c80319c"
		coalID  = "1bf7651916cd43dd8448eb211c80319c"
		hitID   = "2cf7651916cd43dd8448eb211c80319c"
		someone = "b7ad6b7169203331"
	)
	body, _ := json.Marshal(wire.AnalyzeRequest{Source: shiftSrc, Fn: "shift"})
	tp := func(id string) map[string]string {
		return map[string]string{"traceparent": "00-" + id + "-" + someone + "-01"}
	}

	type result struct {
		resp *http.Response
	}
	leader := make(chan result, 1)
	go func() {
		resp, _ := do(t, "POST", ts+"/v1/analyze", body, tp(missID))
		leader <- result{resp}
	}()
	<-started // the leader's flight is computing; the next request coalesces
	follower := make(chan result, 1)
	go func() {
		resp, _ := do(t, "POST", ts+"/v1/analyze", body, tp(coalID))
		follower <- result{resp}
	}()
	// Wait for the follower to join the flight, then release the compute.
	time.Sleep(50 * time.Millisecond)
	close(release)

	missResp := (<-leader).resp
	coalResp := (<-follower).resp
	if got := missResp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("leader X-Cache = %q, want miss", got)
	}
	if got := coalResp.Header.Get("X-Cache"); got != "coalesced" {
		t.Fatalf("follower X-Cache = %q, want coalesced", got)
	}
	hitResp, _ := do(t, "POST", ts+"/v1/analyze", body, tp(hitID))
	if got := hitResp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("third X-Cache = %q, want hit", got)
	}

	// (a) every response echoes its own trace id and carries a request id.
	for _, tc := range []struct {
		resp *http.Response
		id   string
	}{{missResp, missID}, {coalResp, coalID}, {hitResp, hitID}} {
		if got := tc.resp.Header.Get("Traceparent"); !strings.Contains(got, tc.id) {
			t.Errorf("response traceparent = %q, want trace id %s", got, tc.id)
		}
		if tc.resp.Header.Get("X-Request-Id") == "" {
			t.Error("response has no X-Request-Id")
		}
	}

	// (b) three JSON access-log records, each with requestId + traceId.
	recs := waitAccessRecords(t, logs, "analyze", 3)
	seen := map[string]map[string]any{}
	for _, rec := range recs {
		if rec["requestId"] == "" || rec["requestId"] == nil {
			t.Errorf("access record without requestId: %v", rec)
		}
		if id, ok := rec["traceId"].(string); ok {
			seen[id] = rec
		}
	}
	for _, id := range []string{missID, coalID, hitID} {
		if seen[id] == nil {
			t.Errorf("no access record for trace %s:\n%s", id, logs.String())
		}
	}
	if got := seen[missID]["cache"]; got != "miss" {
		t.Errorf("leader access record cache = %v, want miss", got)
	}
	if got := seen[coalID]["cache"]; got != "coalesced" {
		t.Errorf("follower access record cache = %v, want coalesced", got)
	}

	// (c) the leader's trace has the flight-side spans; the coalesced and
	// hit traces only their own root span.
	missTrace := getTraceJSON(t, ts, missID)
	names := spanNames(missTrace)
	if !contains(names, "http analyze") || !contains(names, "queue") {
		t.Errorf("leader trace spans = %v, want http analyze + queue", names)
	}
	for _, id := range []string{coalID, hitID} {
		tr := getTraceJSON(t, ts, id)
		names := spanNames(tr)
		if contains(names, "queue") {
			t.Errorf("trace %s has flight spans %v; they belong to the leader", id, names)
		}
		if !contains(names, "http analyze") {
			t.Errorf("trace %s is missing its root span: %v", id, names)
		}
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// TestTraceRealAnalysisSpans runs a real (unhooked) analysis and checks the
// fixpoint phase span — with its iteration count attribute — lands on the
// request trace, and that the text rendering works.
func TestTraceRealAnalysisSpans(t *testing.T) {
	s := New(Config{})
	base := newHTTPServer(t, s)

	const id = "3df7651916cd43dd8448eb211c80319c"
	body, _ := json.Marshal(wire.AnalyzeRequest{Source: shiftSrc, Fn: "shift"})
	resp, data := do(t, "POST", base+"/v1/analyze", body,
		map[string]string{"traceparent": "00-" + id + "-b7ad6b7169203331-01"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d %s", resp.StatusCode, data)
	}
	tr := getTraceJSON(t, base, id)
	names := spanNames(tr)
	for _, want := range []string{"http analyze", "queue", "parse", "typecheck", "shape", "normalize", "fixpoint", "ir"} {
		if !contains(names, want) {
			t.Errorf("trace is missing %q span: %v", want, names)
		}
	}

	resp, text := do(t, "GET", base+"/debug/trace/"+id+"?format=text", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("text trace: %d %s", resp.StatusCode, text)
	}
	if !strings.Contains(string(text), "trace "+id) || !strings.Contains(string(text), "fixpoint") {
		t.Errorf("text rendering missing header or fixpoint span:\n%s", text)
	}

	// The fixpoint histogram observed the iteration count.
	mresp, metrics := do(t, "GET", base+"/metrics", nil, nil)
	if mresp.StatusCode != http.StatusOK {
		t.Fatal("metrics scrape failed")
	}
	for _, want := range []string{"addsd_phase_duration_seconds", "addsd_fixpoint_iterations_count", "addsd_engine_matrix_clones_total"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics is missing %s", want)
		}
	}

	resp, _ = do(t, "GET", base+"/debug/trace/ffffffffffffffffffffffffffffffff", nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace status = %d, want 404", resp.StatusCode)
	}
	resp, _ = do(t, "GET", base+"/debug/trace/zzz", nil, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad trace id status = %d, want 400", resp.StatusCode)
	}
}

// newHTTPServer mounts an already-constructed Server (so tests can install
// hooks first) and returns its base URL.
func newHTTPServer(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestReanalyzeIncremental drives the incremental contract end to end over
// HTTP: the first POST /v1/reanalyze computes every function's summary; a
// second POST with exactly one (caller-free) function edited recomputes only
// that one and reuses the rest; and /metrics exposes the engine's summary
// counters for scrapers.
func TestReanalyzeIncremental(t *testing.T) {
	const llType = `
type TwoWayLL [X] {
    int data;
    TwoWayLL *next is uniquely forward along X;
    TwoWayLL *prev is backward along X;
};`
	base := llType + `
void drain(TwoWayLL *h) {
    while (h != NULL) {
        h->data = 0;
        h = h->next;
    }
}
void detach(TwoWayLL *h) {
    if (h != NULL) {
        h->next = NULL;
    }
}`
	edited := llType + `
void drain(TwoWayLL *h) {
    while (h != NULL) {
        h->data = 0;
        h = h->next;
    }
}
void detach(TwoWayLL *h) {
    if (h != NULL) {
        h->prev = NULL;
    }
}`
	pathmatrix.ResetSummaryCache()
	_, ts := newTestServer(t, Config{})

	post := func(src string) wire.ReanalyzeResponse {
		t.Helper()
		resp, data := postJSON(t, ts.URL+"/v1/reanalyze", wire.ReanalyzeRequest{Source: src})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, body %s", resp.StatusCode, data)
		}
		var out wire.ReanalyzeResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("bad response JSON: %v\n%s", err, data)
		}
		return out
	}

	cold := post(base)
	if len(cold.Functions) != 2 {
		t.Fatalf("functions = %v, want drain and detach", cold.Functions)
	}
	if cold.Summaries.Computed != 2 || cold.Summaries.Reused != 0 {
		t.Fatalf("cold run: computed=%d reused=%d, want 2/0", cold.Summaries.Computed, cold.Summaries.Reused)
	}

	warm := post(edited)
	if warm.Summaries.Computed != 1 || warm.Summaries.Reused != 1 {
		t.Fatalf("edited run: computed=%d reused=%d, want 1/1", warm.Summaries.Computed, warm.Summaries.Reused)
	}

	resp, body := do(t, "GET", ts.URL+"/metrics", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	for _, metric := range []string{
		"addsd_engine_summary_computed_total",
		"addsd_engine_summary_reused_total",
		"addsd_engine_summary_entries",
		"addsd_engine_summary_applied_total",
		"addsd_engine_summary_fallbacks_total",
	} {
		if !strings.Contains(string(body), metric) {
			t.Errorf("/metrics missing %s", metric)
		}
	}
	if !strings.Contains(string(body), `addsd_requests_total{endpoint="reanalyze",code="200"} 2`) {
		t.Errorf("/metrics missing reanalyze request counter:\n%s", body)
	}
}
