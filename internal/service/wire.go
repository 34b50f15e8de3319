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

// BuildAnalyze runs the analysis a wire.AnalyzeRequest describes and assembles
// the response. It is the single implementation behind POST /v1/analyze and
// addsc -format json, so the daemon and the CLI can never drift apart.
func BuildAnalyze(ctx context.Context, req *wire.AnalyzeRequest) (*wire.AnalyzeResponse, error) {
	resp, _, err := buildAnalyze(ctx, req)
	return resp, err
}

// BuildAnalyzePipelines is BuildAnalyze plus one pipeline response per loop
// of every analyzed function, in response order: what addsc -format json
// -show pipeline prints. The pipelines come from the analyses and request
// oracles the response was built from, assembled exactly as BuildPipeline
// assembles a POST /v1/pipeline body. Width 0 selects that endpoint's
// default.
func BuildAnalyzePipelines(ctx context.Context, req *wire.AnalyzeRequest, width int) (*wire.AnalyzeResponse, []*wire.PipelineResponse, error) {
	width, err := pipelineWidth(width)
	if err != nil {
		return nil, nil, err
	}
	resp, analyzed, err := buildAnalyze(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	var out []*wire.PipelineResponse
	for _, fa := range analyzed {
		for i := 0; i < fa.an.Loops(); i++ {
			p, err := buildPipeline(ctx, fa.an, fa.oracle, i, width)
			if err != nil {
				return nil, nil, err
			}
			out = append(out, p)
		}
	}
	return resp, out, nil
}

// analyzedFunc is one function of an analyze response with the request
// oracle its dependences were computed under.
type analyzedFunc struct {
	an     *adds.Analysis
	oracle adds.Oracle
}

// buildAnalyze is BuildAnalyze, also returning each response function's
// analysis and request oracle in response order.
func buildAnalyze(ctx context.Context, req *wire.AnalyzeRequest) (*wire.AnalyzeResponse, []analyzedFunc, error) {
	oracleName, err := adds.ParseOracle(req.Oracle)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	unit, err := adds.LoadCtx(ctx, []byte(req.Source))
	if err != nil {
		return nil, nil, err
	}

	var names []string
	analyses := map[string]*adds.Analysis{}
	if req.Fn != "" {
		an, err := unit.AnalyzeOpt(ctx, req.Fn)
		if err != nil {
			return nil, nil, err
		}
		names = []string{req.Fn}
		analyses[req.Fn] = an
	} else {
		analyses, err = unit.AnalyzeAllOpt(ctx, adds.WithWorkers(req.Workers))
		if err != nil {
			return nil, nil, err
		}
		for _, fd := range unit.Prog.Funcs {
			names = append(names, fd.Name)
		}
	}

	resp := &wire.AnalyzeResponse{EngineVersion: pathmatrix.EngineVersion, Functions: []wire.FunctionResult{}}
	analyzed := make([]analyzedFunc, 0, len(names))
	for _, name := range names {
		an := analyses[name]
		oracle, err := oracleFor(ctx, an, req.Oracle, req.K)
		if err != nil {
			return nil, nil, err
		}
		analyzed = append(analyzed, analyzedFunc{an: an, oracle: oracle})
		fr := wire.FunctionResult{
			Name:     name,
			Loops:    an.Loops(),
			Entry:    an.EntryMatrix(),
			Exit:     an.ExitMatrix(),
			LoopData: []wire.LoopResult{},
			Oracles:  []wire.OracleComparison{},
		}
		val := an.Validation()
		fr.Validation = wire.ValidationResult{ValidEverywhere: val.ValidEverywhere(), Intervals: []string{}}
		for _, iv := range val.Intervals() {
			fr.Validation.Intervals = append(fr.Validation.Intervals, iv.String())
		}
		// Each comparison oracle is built once per function, at its first
		// loop; the request oracle's own row reuses its dependence graph.
		cmpOracles := map[string]adds.Oracle{}
		for i := 0; i < an.Loops(); i++ {
			dg := an.DependencesCtx(ctx, i, oracle)
			fr.LoopData = append(fr.LoopData, wire.LoopResult{
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
				cdg := dg
				if cmp != oracleName {
					o, ok := cmpOracles[cmp]
					if !ok {
						if o, err = oracleFor(ctx, an, cmp, req.K); err != nil {
							return nil, nil, err
						}
						cmpOracles[cmp] = o
					}
					cdg = an.Dependences(i, o)
				}
				fr.Oracles = append(fr.Oracles, wire.OracleComparison{
					Oracle:          cmp,
					Loop:            i,
					CarriedMemEdges: len(cdg.CarriedMemEdges()),
				})
			}
		}
		resp.Functions = append(resp.Functions, fr)
	}
	// A done context degrades the classic oracle to the conservative one;
	// such an answer is never encoded or cached.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return resp, analyzed, nil
}

// BuildReanalyze re-runs whole-program analysis for a wire.ReanalyzeRequest and
// reports this run's interprocedural summary-cache behavior. It backs POST
// /v1/reanalyze and deliberately bypasses the daemon's response cache: the
// computed/reused counters describe the run that produced them (a cached
// first-run response would keep reporting cold-cache numbers forever).
func BuildReanalyze(ctx context.Context, req *wire.ReanalyzeRequest) (*wire.ReanalyzeResponse, error) {
	unit, err := adds.LoadCtx(ctx, []byte(req.Source))
	if err != nil {
		return nil, err
	}
	analyses, err := unit.AnalyzeAllOpt(ctx, adds.WithWorkers(req.Workers))
	if err != nil {
		return nil, err
	}
	resp := &wire.ReanalyzeResponse{EngineVersion: pathmatrix.EngineVersion, Functions: []string{}}
	for _, fd := range unit.Prog.Funcs {
		resp.Functions = append(resp.Functions, fd.Name)
	}
	// All analyses of one run share the same table; any entry reports it.
	for _, an := range analyses {
		if tab := an.SummaryTable(); tab != nil {
			resp.Summaries = wire.SummaryStats{Computed: tab.Computed, Reused: tab.Reused}
			break
		}
	}
	return resp, nil
}

// BuildDepgraph computes the dependence graphs a wire.DepgraphRequest selects.
// Backs POST /v1/depgraph.
func BuildDepgraph(ctx context.Context, req *wire.DepgraphRequest) (*wire.DepgraphResponse, error) {
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
	resp := &wire.DepgraphResponse{
		EngineVersion: pathmatrix.EngineVersion,
		Fn:            req.Fn,
		Oracle:        oracleName,
		Loops:         []wire.LoopDeps{},
	}
	for i := lo; i < hi; i++ {
		dg := an.DependencesCtx(ctx, i, oracle)
		resp.Loops = append(resp.Loops, wire.LoopDeps{
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

// BuildPipeline runs the pipelining analysis a wire.PipelineRequest describes.
// Backs POST /v1/pipeline; addsc -format json -show pipeline assembles the
// same bodies through BuildAnalyzePipelines.
func BuildPipeline(ctx context.Context, req *wire.PipelineRequest) (*wire.PipelineResponse, error) {
	if req.Fn == "" {
		return nil, fmt.Errorf("%w: missing fn", ErrBadRequest)
	}
	width, err := pipelineWidth(req.Width)
	if err != nil {
		return nil, err
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
	return buildPipeline(ctx, an, oracle, req.Loop, width)
}

// pipelineWidth applies the pipeline endpoints' default machine width (8
// for 0) and rejects a negative one.
func pipelineWidth(width int) (int, error) {
	if width == 0 {
		width = 8
	}
	if width < 1 {
		return 0, fmt.Errorf("adds: %w: %d", adds.ErrBadWidth, width)
	}
	return width, nil
}

// buildPipeline assembles one pipeline response for loop i of an analysis
// under the request oracle: the raw loop's II bounds under that oracle,
// replaced by the emitted schedule's info when the paper's full
// transformation succeeds. It is the one assembly behind BuildPipeline and
// BuildAnalyzePipelines.
func buildPipeline(ctx context.Context, an *adds.Analysis, oracle adds.Oracle, i, width int) (*wire.PipelineResponse, error) {
	resp := &wire.PipelineResponse{
		EngineVersion: pathmatrix.EngineVersion,
		Fn:            an.Fn.Decl.Name, Loop: i, Width: width,
		Info: an.AnalyzePipeline(i, oracle, width),
	}
	prog, info, err := an.PipelineCtx(ctx, i, width)
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
