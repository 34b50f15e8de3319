package service

import (
	"context"
	"errors"
	"fmt"

	"repro/adds"
	"repro/adds/wire"
	"repro/internal/core/pathmatrix"
)

// ErrBadRequest classifies request-shape failures (unknown oracle, missing
// fields) that are not typed facade errors; handlers map it to 400.
var ErrBadRequest = errors.New("bad request")

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

// Unwrap lets errors.Is(err, ErrBadRequest) classify it alongside the other
// request-shape failures.
func (e *UnknownFieldError) Unwrap() error { return ErrBadRequest }

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
// callers that only branch on ErrBadRequest.
func (e *TooLargeError) Unwrap() error { return ErrBadRequest }

// The request/response shapes live in the public adds/wire package so
// clients can share them; the aliases keep every existing reference in this
// package (and the encoded bytes, pinned by the goldens) unchanged.
type (
	AnalyzeRequest    = wire.AnalyzeRequest
	LoopResult        = wire.LoopResult
	OracleComparison  = wire.OracleComparison
	ValidationResult  = wire.ValidationResult
	FunctionResult    = wire.FunctionResult
	AnalyzeResponse   = wire.AnalyzeResponse
	DepgraphRequest   = wire.DepgraphRequest
	LoopDeps          = wire.LoopDeps
	DepgraphResponse  = wire.DepgraphResponse
	PipelineRequest   = wire.PipelineRequest
	PipelineResponse  = wire.PipelineResponse
	ExperimentDef     = wire.ExperimentDef
	OracleInfo        = wire.OracleInfo
	ReanalyzeRequest  = wire.ReanalyzeRequest
	SummaryStats      = wire.SummaryStats
	ReanalyzeResponse = wire.ReanalyzeResponse
	BatchRequest      = wire.BatchRequest
	BatchItemResult   = wire.BatchItemResult
	ErrorEnvelope     = wire.ErrorEnvelope
)

// oracleFor resolves the request's oracle selection against an analysis
// through the registry; unknown names are 400s. The context carries the
// request's tracer so oracle-internal spans land on its trace.
func oracleFor(ctx context.Context, an *adds.Analysis, name string, k int) (adds.Oracle, error) {
	o, err := an.OracleNamed(ctx, name, k)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return o, nil
}

// BuildAnalyze runs the analysis an AnalyzeRequest describes and assembles
// the response. It is the single implementation behind POST /v1/analyze and
// addsc -format json, so the daemon and the CLI can never drift apart.
func BuildAnalyze(ctx context.Context, req *AnalyzeRequest) (*AnalyzeResponse, error) {
	oracleName, err := adds.ParseOracle(req.Oracle)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	unit, err := adds.LoadCtx(ctx, []byte(req.Source))
	if err != nil {
		return nil, err
	}

	var names []string
	analyses := map[string]*adds.Analysis{}
	if req.Fn != "" {
		an, err := unit.AnalyzeOpt(ctx, req.Fn)
		if err != nil {
			return nil, err
		}
		names = []string{req.Fn}
		analyses[req.Fn] = an
	} else {
		analyses, err = unit.AnalyzeAllOpt(ctx, adds.WithWorkers(req.Workers))
		if err != nil {
			return nil, err
		}
		for _, fd := range unit.Prog.Funcs {
			names = append(names, fd.Name)
		}
	}

	resp := &AnalyzeResponse{EngineVersion: pathmatrix.EngineVersion, Functions: []FunctionResult{}}
	for _, name := range names {
		an := analyses[name]
		oracle, err := oracleFor(ctx, an, req.Oracle, req.K)
		if err != nil {
			return nil, err
		}
		fr := FunctionResult{
			Name:     name,
			Loops:    an.Loops(),
			Entry:    an.EntryMatrix(),
			Exit:     an.ExitMatrix(),
			LoopData: []LoopResult{},
			Oracles:  []OracleComparison{},
		}
		val := an.Validation()
		fr.Validation = ValidationResult{ValidEverywhere: val.ValidEverywhere(), Intervals: []string{}}
		for _, iv := range val.Intervals() {
			fr.Validation.Intervals = append(fr.Validation.Intervals, iv.String())
		}
		// Each comparison oracle is built once per function, at its first
		// loop; the request's own oracle serves its name.
		cmpOracles := map[string]adds.Oracle{oracleName: oracle}
		for i := 0; i < an.Loops(); i++ {
			dg := an.DependencesCtx(ctx, i, oracle)
			fr.LoopData = append(fr.LoopData, LoopResult{
				Index:           i,
				Matrix:          an.LoopMatrix(i),
				Iteration:       an.IterationMatrix(i),
				Dependences:     dg,
				CarriedMemEdges: len(dg.CarriedMemEdges()),
			})
			// The comparison set and its order are part of the wire format
			// (pinned byte-identical by the goldens), so it stays a literal
			// instead of enumerating the registry.
			for _, cmp := range []string{"conservative", "classic", "gpm"} {
				o, ok := cmpOracles[cmp]
				if !ok {
					if o, err = oracleFor(ctx, an, cmp, req.K); err != nil {
						return nil, err
					}
					cmpOracles[cmp] = o
				}
				fr.Oracles = append(fr.Oracles, OracleComparison{
					Oracle:          cmp,
					Loop:            i,
					CarriedMemEdges: len(an.Dependences(i, o).CarriedMemEdges()),
				})
			}
		}
		resp.Functions = append(resp.Functions, fr)
	}
	// A done context degrades the classic oracle to the conservative one;
	// such an answer is never encoded or cached.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return resp, nil
}

// BuildReanalyze re-runs whole-program analysis for a ReanalyzeRequest and
// reports this run's interprocedural summary-cache behavior. It backs POST
// /v1/reanalyze and deliberately bypasses the daemon's response cache: the
// computed/reused counters describe the run that produced them (a cached
// first-run response would keep reporting cold-cache numbers forever).
func BuildReanalyze(ctx context.Context, req *ReanalyzeRequest) (*ReanalyzeResponse, error) {
	unit, err := adds.LoadCtx(ctx, []byte(req.Source))
	if err != nil {
		return nil, err
	}
	analyses, err := unit.AnalyzeAllOpt(ctx, adds.WithWorkers(req.Workers))
	if err != nil {
		return nil, err
	}
	resp := &ReanalyzeResponse{EngineVersion: pathmatrix.EngineVersion, Functions: []string{}}
	for _, fd := range unit.Prog.Funcs {
		resp.Functions = append(resp.Functions, fd.Name)
	}
	// All analyses of one run share the same table; any entry reports it.
	for _, an := range analyses {
		if tab := an.SummaryTable(); tab != nil {
			resp.Summaries = SummaryStats{Computed: tab.Computed, Reused: tab.Reused}
			break
		}
	}
	return resp, nil
}

// BuildDepgraph computes the dependence graphs a DepgraphRequest selects.
// Backs POST /v1/depgraph.
func BuildDepgraph(ctx context.Context, req *DepgraphRequest) (*DepgraphResponse, error) {
	if req.Fn == "" {
		return nil, fmt.Errorf("%w: missing fn", ErrBadRequest)
	}
	oracleName, err := adds.ParseOracle(req.Oracle)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	unit, err := adds.LoadCtx(ctx, []byte(req.Source))
	if err != nil {
		return nil, err
	}
	an, err := unit.AnalyzeOpt(ctx, req.Fn)
	if err != nil {
		return nil, err
	}
	oracle, err := oracleFor(ctx, an, req.Oracle, req.K)
	if err != nil {
		return nil, err
	}
	lo, hi := 0, an.Loops()
	if req.Loop != nil {
		if err := an.CheckLoop(*req.Loop); err != nil {
			return nil, err
		}
		lo, hi = *req.Loop, *req.Loop+1
	}
	resp := &DepgraphResponse{
		EngineVersion: pathmatrix.EngineVersion,
		Fn:            req.Fn,
		Oracle:        oracleName,
		Loops:         []LoopDeps{},
	}
	for i := lo; i < hi; i++ {
		dg := an.DependencesCtx(ctx, i, oracle)
		resp.Loops = append(resp.Loops, LoopDeps{
			Index:           i,
			Dependences:     dg,
			CarriedMemEdges: len(dg.CarriedMemEdges()),
		})
	}
	if err := ctx.Err(); err != nil {
		return nil, err // possibly a degraded oracle; see BuildAnalyze
	}
	return resp, nil
}

// BuildPipeline runs the pipelining analysis a PipelineRequest describes.
// Shared by POST /v1/pipeline and addsc -format json -show pipeline.
func BuildPipeline(ctx context.Context, req *PipelineRequest) (*PipelineResponse, error) {
	if req.Fn == "" {
		return nil, fmt.Errorf("%w: missing fn", ErrBadRequest)
	}
	width := req.Width
	if width == 0 {
		width = 8
	}
	if width < 1 {
		return nil, fmt.Errorf("adds: %w: %d", adds.ErrBadWidth, width)
	}
	unit, err := adds.LoadCtx(ctx, []byte(req.Source))
	if err != nil {
		return nil, err
	}
	an, err := unit.AnalyzeOpt(ctx, req.Fn)
	if err != nil {
		return nil, err
	}
	if err := an.CheckLoop(req.Loop); err != nil {
		return nil, err
	}
	oracle, err := oracleFor(ctx, an, req.Oracle, req.K)
	if err != nil {
		return nil, err
	}
	// The raw-loop II bounds under the requested oracle; replaced by the
	// emitted schedule's info when the full paper transformation succeeds.
	resp := &PipelineResponse{
		EngineVersion: pathmatrix.EngineVersion,
		Fn:            req.Fn, Loop: req.Loop, Width: width,
		Info: an.AnalyzePipeline(req.Loop, oracle, width),
	}
	prog, info, err := an.PipelineCtx(ctx, req.Loop, width)
	switch {
	case errors.Is(err, adds.ErrBadWidth) || errors.Is(err, adds.ErrNoSuchLoop):
		return nil, err
	case err != nil:
		resp.PipelineError = err.Error()
	default:
		resp.Info = info
		resp.VLIW = prog.String()
	}
	if err := ctx.Err(); err != nil {
		return nil, err // possibly a degraded oracle; see BuildAnalyze
	}
	return resp, nil
}
