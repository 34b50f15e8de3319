package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/adds/wire"
	"repro/internal/alias"
	"repro/internal/core/pathmatrix"
	"repro/internal/core/validation"
	"repro/internal/depgraph"
	"repro/internal/ir"
	"repro/internal/norm"
	"repro/internal/source/ast"
	"repro/internal/source/parser"
	"repro/internal/source/types"
	"repro/internal/xform"
)

// layer is one timed call site of the walk, named after the module called.
type layer int

const (
	lParse layer = iota
	lTypecheck
	lSummaries
	lNormalize
	lFixpoint
	lIR
	lValidation
	lOracleGPM
	lOracleClassic
	lOracleConservative
	lDepgraph
	lXform
	lEncode
	numLayers
)

var layerNames = [numLayers]string{
	"parse", "typecheck", "summaries", "normalize", "fixpoint", "ir", "validation",
	"oracle.gpm", "oracle.classic", "oracle.conservative", "depgraph", "xform", "encode",
}

// oracleLayers maps the oracles the serving code builds to their layer.
var oracleLayers = map[string]layer{
	"gpm": lOracleGPM, "classic": lOracleClassic, "conservative": lOracleConservative,
}

// cliWidth, cliOracle and cliK are addsc's flag defaults (-width, -oracle, -k).
const (
	cliWidth  = 8
	cliOracle = "gpm"
	cliK      = 2
)

// walker is the layer walk: it makes the public calls service.BuildAnalyze,
// service.BuildReanalyze and addsc's runJSON/BuildPipeline make, in the same
// order and number, and times each call from the benchmark's side. Repeated
// calls (the per-loop oracle rebuilds) are repeated here too, so the layer
// times add up to the request time. It runs serially, which is what makes
// engine-counter deltas exact.
type walker struct {
	ctx context.Context
	ns  [numLayers]int64
}

func newWalker() *walker { return &walker{ctx: context.Background()} }

func (w *walker) timed(l layer, f func()) {
	t := time.Now()
	f()
	w.ns[l] += int64(time.Since(t))
}

// fnResult is one function's analysis artifacts (adds.Analysis, unwrapped).
type fnResult struct {
	fi   *types.FuncInfo
	g    *norm.Graph
	r    *pathmatrix.Result
	prog *ir.Program
}

func (fr *fnResult) options(i int, o alias.Oracle, info *types.Info) depgraph.Options {
	return depgraph.Options{
		Oracle:   o,
		NormLoop: fr.g.Loops[fr.prog.Loops[i].SrcID],
		Env:      info.Env,
		VarTypes: fr.fi.Vars,
	}
}

// load is adds.LoadCtx.
func (w *walker) load(src []byte) (*types.Info, error) {
	var prog *ast.Program
	var err error
	w.timed(lParse, func() { prog, err = parser.Parse(src) })
	if err != nil {
		return nil, err
	}
	var info *types.Info
	var errs []*types.Error
	w.timed(lTypecheck, func() { info, errs = types.CheckCtx(w.ctx, prog) })
	if len(errs) > 0 {
		return nil, errs[0]
	}
	return info, nil
}

// summaries is the summary-table step of AnalyzeProgramCtx and AnalyzeOpt.
func (w *walker) summaries(info *types.Info) (*pathmatrix.SummaryTable, error) {
	if !pathmatrix.Summarize {
		return nil, nil
	}
	var tab *pathmatrix.SummaryTable
	var err error
	w.timed(lSummaries, func() { tab, err = pathmatrix.ComputeSummariesCtx(w.ctx, info, info.Env) })
	return tab, err
}

func (w *walker) fixpoint(g *norm.Graph, info *types.Info, tab *pathmatrix.SummaryTable) (*pathmatrix.Result, error) {
	var r *pathmatrix.Result
	var err error
	w.timed(lFixpoint, func() { r, err = pathmatrix.AnalyzeCtxWith(w.ctx, g, info.Env, tab) })
	return r, err
}

// analyzeAll is Unit.AnalyzeAllOpt: the summary table once, then every
// function (sorted by name) normalized and analyzed, then lowered to IR.
func (w *walker) analyzeAll(info *types.Info) (map[string]*fnResult, *pathmatrix.SummaryTable, error) {
	tab, err := w.summaries(info)
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, 0, len(info.Funcs))
	for name := range info.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make(map[string]*fnResult, len(names))
	for _, name := range names {
		fr := &fnResult{fi: info.Funcs[name]}
		w.timed(lNormalize, func() { fr.g = norm.Build(fr.fi, info.Env) })
		if fr.r, err = w.fixpoint(fr.g, info, tab); err != nil {
			return nil, nil, err
		}
		out[name] = fr
	}
	for _, name := range names {
		fr := out[name]
		w.timed(lIR, func() { fr.prog = ir.Build(fr.fi, info.Env) })
	}
	return out, tab, nil
}

// analyzeOne is Unit.AnalyzeOpt for one function.
func (w *walker) analyzeOne(info *types.Info, fn string) (*fnResult, error) {
	fr := &fnResult{fi: info.Func(fn)}
	if fr.fi == nil {
		return nil, fmt.Errorf("unknown function %q", fn)
	}
	w.timed(lNormalize, func() { fr.g = norm.Build(fr.fi, info.Env) })
	tab, err := w.summaries(info)
	if err != nil {
		return nil, err
	}
	if fr.r, err = w.fixpoint(fr.g, info, tab); err != nil {
		return nil, err
	}
	w.timed(lIR, func() { fr.prog = ir.Build(fr.fi, info.Env) })
	return fr, nil
}

// oracle is Analysis.OracleNamed: a registry lookup and build.
func (w *walker) oracle(name string, k int, info *types.Info, fr *fnResult) (alias.Oracle, error) {
	f, err := alias.Lookup(name)
	if err != nil {
		return nil, err
	}
	l, ok := oracleLayers[f.Name]
	if !ok {
		return nil, fmt.Errorf("the walk does not time oracle %q", f.Name)
	}
	var o alias.Oracle
	w.timed(l, func() {
		o = f.Build(w.ctx, fr.g, alias.BuildOpts{Env: info.Env, Info: info, Summaries: fr.r.Summaries, K: k})
	})
	return o, nil
}

func (w *walker) depgraph(fr *fnResult, i int, o alias.Oracle, info *types.Info) (dg *depgraph.Graph, carried int) {
	w.timed(lDepgraph, func() {
		dg = depgraph.Build(fr.prog, fr.prog.Loops[i], fr.options(i, o, info))
		carried = len(dg.CarriedMemEdges())
	})
	return dg, carried
}

// analyze is service.BuildAnalyze for a whole-program request.
func (w *walker) analyze(src []byte, oracleName string, k int) (*wire.AnalyzeResponse, error) {
	if _, err := alias.Lookup(oracleName); err != nil {
		return nil, err
	}
	info, err := w.load(src)
	if err != nil {
		return nil, err
	}
	fns, _, err := w.analyzeAll(info)
	if err != nil {
		return nil, err
	}
	resp := &wire.AnalyzeResponse{EngineVersion: pathmatrix.EngineVersion, Functions: []wire.FunctionResult{}}
	for _, fd := range info.Prog.Funcs {
		fr := fns[fd.Name]
		oracle, err := w.oracle(oracleName, k, info, fr)
		if err != nil {
			return nil, err
		}
		out := wire.FunctionResult{
			Name:     fd.Name,
			Loops:    len(fr.prog.Loops),
			LoopData: []wire.LoopResult{},
			Oracles:  []wire.OracleComparison{},
		}
		w.timed(lFixpoint, func() { out.Entry, out.Exit = fr.r.AtEntry(), fr.r.BeforeNode(fr.g.Exit) })
		w.timed(lValidation, func() {
			val := validation.FromResult(fr.r)
			out.Validation = wire.ValidationResult{ValidEverywhere: val.ValidEverywhere(), Intervals: []string{}}
			for _, iv := range val.Intervals() {
				out.Validation.Intervals = append(out.Validation.Intervals, iv.String())
			}
		})
		for i := range fr.prog.Loops {
			dg, carried := w.depgraph(fr, i, oracle, info)
			lr := wire.LoopResult{Index: i, Dependences: dg, CarriedMemEdges: carried}
			w.timed(lFixpoint, func() {
				lr.Matrix = fr.r.LoopHead(fr.g.Loops[i])
				lr.Iteration = fr.r.IterationMatrix(fr.g.Loops[i])
			})
			out.LoopData = append(out.LoopData, lr)
			for _, cmp := range []string{"conservative", "classic", "gpm"} {
				o, err := w.oracle(cmp, k, info, fr)
				if err != nil {
					return nil, err
				}
				_, carried := w.depgraph(fr, i, o, info)
				out.Oracles = append(out.Oracles, wire.OracleComparison{Oracle: cmp, Loop: i, CarriedMemEdges: carried})
			}
		}
		resp.Functions = append(resp.Functions, out)
	}
	return resp, nil
}

// reanalyze is service.BuildReanalyze.
func (w *walker) reanalyze(src []byte) (*wire.ReanalyzeResponse, error) {
	info, err := w.load(src)
	if err != nil {
		return nil, err
	}
	_, tab, err := w.analyzeAll(info)
	if err != nil {
		return nil, err
	}
	resp := &wire.ReanalyzeResponse{EngineVersion: pathmatrix.EngineVersion, Functions: []string{}}
	for _, fd := range info.Prog.Funcs {
		resp.Functions = append(resp.Functions, fd.Name)
	}
	if tab != nil {
		resp.Summaries = wire.SummaryStats{Computed: tab.Computed, Reused: tab.Reused}
	}
	return resp, nil
}

// pipeline is service.BuildPipeline with addsc's defaults.
func (w *walker) pipeline(src []byte, fn string, loop int) (*wire.PipelineResponse, error) {
	info, err := w.load(src)
	if err != nil {
		return nil, err
	}
	fr, err := w.analyzeOne(info, fn)
	if err != nil {
		return nil, err
	}
	if loop >= len(fr.prog.Loops) {
		return nil, fmt.Errorf("%s has no loop %d", fn, loop)
	}
	oracle, err := w.oracle(cliOracle, cliK, info, fr)
	if err != nil {
		return nil, err
	}
	resp := &wire.PipelineResponse{EngineVersion: pathmatrix.EngineVersion, Fn: fn, Loop: loop, Width: cliWidth}
	w.timed(lXform, func() {
		resp.Info = xform.AnalyzePipeline(fr.prog, fr.prog.Loops[loop], fr.options(loop, oracle, info), cliWidth)
	})
	// Analysis.PipelineCtx schedules under a fresh ADDS-informed oracle.
	var gpm alias.Oracle
	w.timed(lOracleGPM, func() { gpm = alias.NewGPMWith(fr.g, info.Env, fr.r.Summaries) })
	w.timed(lXform, func() {
		pl, err := xform.EmitPipelined(fr.prog, fr.prog.Loops[loop], fr.options(loop, gpm, info), cliWidth)
		if err != nil {
			resp.PipelineError = err.Error()
			return
		}
		resp.Info, resp.VLIW = pl.Info, pl.Prog.String()
	})
	return resp, nil
}

// cliOutput is the document addsc -format json -show pipeline prints.
type cliOutput struct {
	*wire.AnalyzeResponse
	Pipelines []*wire.PipelineResponse `json:"pipelines,omitempty"`
}

// run walks one job and returns the bytes the daemon or addsc answers it
// with: json.Marshal plus a newline for analyze (serveCached), an encoder
// without HTML escaping for reanalyze (writeJSON), the same indented for
// addsc.
func (w *walker) run(j job) ([]byte, error) {
	switch j.kind {
	case kindAnalyze, kindHit:
		resp, err := w.analyze(j.src, "", 0)
		if err != nil {
			return nil, err
		}
		var b []byte
		w.timed(lEncode, func() { b, err = json.Marshal(resp) })
		return append(b, '\n'), err
	case kindEdit:
		resp, err := w.reanalyze(j.src)
		if err != nil {
			return nil, err
		}
		return w.encode(resp, "")
	case kindCLI:
		resp, err := w.analyze(j.src, cliOracle, cliK)
		if err != nil {
			return nil, err
		}
		out := cliOutput{AnalyzeResponse: resp}
		for _, fr := range resp.Functions {
			for i := 0; i < fr.Loops; i++ {
				p, err := w.pipeline(j.src, fr.Name, i)
				if err != nil {
					return nil, err
				}
				out.Pipelines = append(out.Pipelines, p)
			}
		}
		return w.encode(out, "  ")
	}
	return nil, fmt.Errorf("job kind %d has no walk", j.kind)
}

func (w *walker) encode(v any, indent string) ([]byte, error) {
	var buf bytes.Buffer
	var err error
	w.timed(lEncode, func() {
		e := json.NewEncoder(&buf)
		e.SetEscapeHTML(false)
		e.SetIndent("", indent)
		err = e.Encode(v)
	})
	return buf.Bytes(), err
}
