package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"repro/adds/wire"
	"repro/internal/par"
)

// handleBatch serves POST /v1/batch: many analyze requests in one call,
// answered as NDJSON — one wire.BatchItemResult line per item, flushed as soon
// as it is ready, always in item order. Items run concurrently, at most
// min(Workers, 4) at a time, so one batch cannot monopolize the admission
// queue; each item then passes through exactly the same resolve path as a
// standalone /v1/analyze (cluster routing, peer peek, cache, singleflight,
// pool admission), so per-item failures come back as per-item error
// envelopes — a parse error in item 3 never costs items 0–2 their answers.
//
// The emitted bytes are deterministic for a fixed item list: lines carry no
// cache or shard telemetry, and in-order emission makes the whole response
// byte-identical whether results landed hot, cold, or on another shard.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req wire.BatchRequest
	if err := s.decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	n := len(req.Items)
	if n == 0 {
		writeError(w, fmt.Errorf("%w: batch has no items", ErrBadRequest))
		return
	}
	if n > s.cfg.MaxBatchItems {
		writeError(w, &TooLargeError{What: "batch items", Size: int64(n), Limit: int64(s.cfg.MaxBatchItems)})
		return
	}
	s.metrics.add(BatchRequests, 1)
	s.metrics.add(BatchItems, uint64(n))

	ctx := r.Context()
	forwarded := isForwarded(r)
	lines := make([][]byte, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	// Items start in order; once the client is gone no new one starts and
	// the emitter, which watches ctx itself, has already returned, so Each's
	// error carries nothing to report.
	go par.Each(ctx, n, max(1, min(s.cfg.Workers, 4)), func(i int) error { //nolint:errcheck
		defer close(done[i])
		lines[i] = s.batchLine(ctx, i, &req.Items[i], forwarded)
		return nil
	})

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	for i := 0; i < n; i++ {
		select {
		case <-done[i]:
		case <-ctx.Done():
			return
		}
		w.Write(lines[i])     //nolint:errcheck
		w.Write([]byte{'\n'}) //nolint:errcheck
		rc.Flush()            //nolint:errcheck
	}
}

// batchLine resolves one batch item and renders its NDJSON line.
func (s *Server) batchLine(ctx context.Context, idx int, item *wire.AnalyzeRequest, forwarded bool) []byte {
	key, canonical, compute, err := s.keyed("analyze", item, func(c context.Context) (response, error) { return BuildAnalyze(c, item) })
	res := resolved{err: err}
	if err == nil {
		res = s.resolve(ctx, "batch", "analyze", key, canonical, forwarded, compute)
	}

	out := wire.BatchItemResult{Index: idx}
	switch {
	case res.err != nil:
		code, env := statusFor(res.err)
		out.Status, out.Error = code, &env
	case res.status >= 400:
		// A peer relayed its error envelope; re-embed it typed so the line
		// shape matches locally-resolved failures byte for byte.
		env := wire.ErrorEnvelope{}
		if err := json.Unmarshal(bytes.TrimSpace(res.body), &env); err != nil || env.Error == "" {
			env = wire.ErrorEnvelope{Error: strings.TrimSpace(string(res.body))}
		}
		out.Status, out.Error = res.status, &env
	default:
		out.Status = res.status
		out.Response = json.RawMessage(bytes.TrimRight(res.body, "\n"))
	}
	line, err := json.Marshal(out)
	if err != nil {
		// Marshal of our own structs cannot fail; keep the stream coherent
		// if it somehow does.
		line, _ = json.Marshal(wire.BatchItemResult{Index: idx, Status: http.StatusInternalServerError,
			Error: &wire.ErrorEnvelope{Error: "encoding batch line: " + err.Error()}})
	}
	return line
}
