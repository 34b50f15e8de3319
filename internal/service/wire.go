package service

import (
	"context"
	"errors"
	"fmt"

	"repro/adds/wire"
	"repro/internal/respond"
)

// ErrNotFound classifies lookups of resources outside the registry (an
// unknown experiment id); handlers map it to 404.
var ErrNotFound = errors.New("not found")

// UnknownFieldError reports a JSON request body carrying a field no request
// type defines — almost always a typo (an "orcale" that would otherwise
// silently select the default oracle). Handlers map it to 400 and echo the
// offending field in the error envelope.
type UnknownFieldError struct{ Field string }

func (e *UnknownFieldError) Error() string {
	return fmt.Sprintf("bad request: unknown field %q", e.Field)
}

// Unwrap lets errors.Is(err, respond.ErrBadRequest) classify it alongside
// the other request-shape failures.
func (e *UnknownFieldError) Unwrap() error { return respond.ErrBadRequest }

// TooLargeError reports a request that exceeds a configured admission bound
// — a body over -max-body bytes, or a /v1/batch item count over -max-batch.
// Handlers map it to 413 so an oversized body is rejected before the JSON
// decoder reads unbounded input, instead of the generic 400.
type TooLargeError struct {
	What  string // what was measured: "body", "batch items"
	Size  int64  // observed size (0 when only the excess is known)
	Limit int64  // the configured bound
}

func (e *TooLargeError) Error() string {
	if e.Size > 0 {
		return fmt.Sprintf("request too large: %s %d exceeds limit %d", e.What, e.Size, e.Limit)
	}
	return fmt.Sprintf("request too large: %s exceeds limit %d", e.What, e.Limit)
}

// Unwrap classifies an oversized request as a request-shape failure for
// callers that only branch on respond.ErrBadRequest.
func (e *TooLargeError) Unwrap() error { return respond.ErrBadRequest }

// BuildAnalyze forwards to respond.BuildAnalyze for the layer walk's tests
// in bench/, which call it here; new code calls respond directly.
func BuildAnalyze(ctx context.Context, req *wire.AnalyzeRequest) (*wire.AnalyzeResponse, error) {
	return respond.BuildAnalyze(ctx, req)
}

// BuildReanalyze forwards to respond.BuildReanalyze for the layer walk's
// tests in bench/, which call it here; new code calls respond directly.
func BuildReanalyze(ctx context.Context, req *wire.ReanalyzeRequest) (*wire.ReanalyzeResponse, error) {
	return respond.BuildReanalyze(ctx, req)
}
