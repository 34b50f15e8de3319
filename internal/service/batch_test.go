package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/adds/wire"
)

func postBatch(t *testing.T, base string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, b
}

func batchBody(t *testing.T, sources ...string) []byte {
	t.Helper()
	req := wire.BatchRequest{}
	for _, s := range sources {
		req.Items = append(req.Items, wire.AnalyzeRequest{Source: s})
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A batch mixing good and bad programs streams one NDJSON line per item,
// in item order, with per-item error envelopes — a parse error in the
// middle never costs the other items their answers.
func TestBatchMixedResults(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := batchBody(t, shiftSrc, "not a program {", shiftSrc+"\nvoid extra(TwoWayLL *q) { q = NULL; }\n")
	resp, out := postBatch(t, ts.URL, body)
	if resp.StatusCode != 200 {
		t.Fatalf("batch = %d %s", resp.StatusCode, out)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("batch produced %d lines, want 3:\n%s", len(lines), out)
	}
	wantStatus := []int{200, 422, 200}
	for i, line := range lines {
		var res wire.BatchItemResult
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		if res.Index != i {
			t.Errorf("line %d has index %d (must stream in item order)", i, res.Index)
		}
		if res.Status != wantStatus[i] {
			t.Errorf("item %d status = %d, want %d", i, res.Status, wantStatus[i])
		}
		if wantStatus[i] == 200 {
			if res.Error != nil || !bytes.Contains(res.Response, []byte("engineVersion")) {
				t.Errorf("item %d: want a response payload, got error %v", i, res.Error)
			}
		} else {
			if res.Error == nil || res.Error.Error == "" {
				t.Errorf("item %d: want an error envelope, got %s", i, line)
			}
			if res.Error != nil && res.Error.Line == 0 {
				t.Errorf("item %d: parse-error envelope missing source position: %s", i, line)
			}
		}
	}
}

// The same batch must produce byte-identical NDJSON however warm the cache
// is, and a batch item must answer byte-identically to the standalone
// /v1/analyze for the same request.
func TestBatchDeterministicBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := batchBody(t, shiftSrc, "garbage {", shiftSrc)

	_, first := postBatch(t, ts.URL, body)
	_, second := postBatch(t, ts.URL, body) // all cache hits now
	if !bytes.Equal(first, second) {
		t.Fatalf("batch bytes changed between cold and warm runs:\ncold: %s\nwarm: %s", first, second)
	}

	resp, single := postAnalyze(t, ts.URL, shiftSrc)
	if resp.StatusCode != 200 {
		t.Fatal("standalone analyze failed")
	}
	var res wire.BatchItemResult
	if err := json.Unmarshal([]byte(strings.SplitN(string(first), "\n", 2)[0]), &res); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Response, bytes.TrimRight(single, "\n")) {
		t.Error("batch item payload differs from standalone /v1/analyze")
	}
}

// Batch items route through the cluster exactly like standalone requests:
// a 3-shard cluster answers the same batch byte-identically to one process.
func TestBatchAcrossCluster(t *testing.T) {
	_, single := newTestServer(t, Config{})
	_, urls := startCluster(t, 3, nil)

	body := batchBody(t, shiftSrc, shiftSrc+"\nvoid touch(TwoWayLL *q) { q = NULL; }\n", "broken {")
	_, want := postBatch(t, single.URL, body)
	for round := 0; round < 2; round++ {
		for ni, u := range urls {
			_, got := postBatch(t, u, body)
			if !bytes.Equal(got, want) {
				t.Fatalf("node %d round %d: batch differs from single process\ncluster: %s\nsingle:  %s",
					ni, round, got, want)
			}
		}
	}
}

func TestBatchRejectsEmptyAndOversized(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatchItems: 2})

	resp, out := postBatch(t, ts.URL, []byte(`{"items":[]}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch = %d %s, want 400", resp.StatusCode, out)
	}

	resp, out = postBatch(t, ts.URL, batchBody(t, "a", "b", "c"))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch = %d %s, want 413", resp.StatusCode, out)
	}
	var env wire.ErrorEnvelope
	if err := json.Unmarshal(out, &env); err != nil || !strings.Contains(env.Error, "batch items") {
		t.Errorf("413 envelope = %s, want typed TooLargeError naming batch items", out)
	}
}

// Oversized bodies are rejected with 413 + the typed envelope before the
// JSON decoder runs, on batch and single-program endpoints alike.
func TestMaxBodyBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})

	big := strings.Repeat("x", 300)
	req, _ := json.Marshal(map[string]string{"source": big})
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized analyze body = %d %s, want 413", resp.StatusCode, out)
	}
	var env wire.ErrorEnvelope
	if err := json.Unmarshal(out, &env); err != nil || !strings.Contains(env.Error, "request too large") {
		t.Errorf("413 envelope = %s, want typed TooLargeError", out)
	}

	resp, out = postBatch(t, ts.URL, append([]byte(`{"items":[{"source":"`), append([]byte(big), []byte(`"}]}`)...)...))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch body = %d %s, want 413", resp.StatusCode, out)
	}
}

// Within one batch, duplicate items coalesce onto one computation via the
// regular singleflight; the lines still come back per item.
func TestBatchDuplicateItemsShareOneCompute(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := batchBody(t, shiftSrc, shiftSrc, shiftSrc, shiftSrc)
	resp, out := postBatch(t, ts.URL, body)
	if resp.StatusCode != 200 {
		t.Fatalf("batch = %d", resp.StatusCode)
	}
	if n := strings.Count(string(out), "\n"); n != 4 {
		t.Fatalf("lines = %d, want 4", n)
	}
	m := s.Metrics()
	if m.Count(CacheMisses) != 1 {
		t.Errorf("misses = %d, want exactly 1 (duplicates must coalesce or hit)", m.Count(CacheMisses))
	}
	if got := m.Count(CacheHits) + m.Count(CacheCoalesced); got != 3 {
		t.Errorf("hits+coalesced = %d, want 3", got)
	}
}

// A batch item keys exactly as the same /v1/analyze request does, worker
// count aside, so each answers from the other's cache entry.
func TestBatchSharesAnalyzeKeys(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/analyze", wire.AnalyzeRequest{Source: shiftSrc, Workers: 3})
	if resp.StatusCode != 200 {
		t.Fatalf("analyze = %d", resp.StatusCode)
	}
	b, err := json.Marshal(wire.BatchRequest{Items: []wire.AnalyzeRequest{{Source: shiftSrc, Workers: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp, _ = postBatch(t, ts.URL, b); resp.StatusCode != 200 {
		t.Fatalf("batch = %d", resp.StatusCode)
	}
	m := s.Metrics()
	if m.Count(CacheMisses) != 1 || m.Count(CacheHits) != 1 {
		t.Errorf("misses, hits = %d, %d; want 1, 1", m.Count(CacheMisses), m.Count(CacheHits))
	}
	resp, again := postJSON(t, ts.URL+"/v1/analyze", wire.AnalyzeRequest{Source: shiftSrc})
	if resp.Header.Get("X-Cache") != "hit" || !bytes.Equal(again, body) {
		t.Errorf("analyze after batch: X-Cache %q, same body %v", resp.Header.Get("X-Cache"), bytes.Equal(again, body))
	}
}
