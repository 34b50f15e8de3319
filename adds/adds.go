// Package adds is the public API of the ADDS reproduction: Abstractions for
// Recursive Pointer Data Structures (Hendren, Hummel, Nicolau, PLDI 1992).
//
// The package bundles the whole pipeline behind a small surface. The
// context-first entry points are the canonical ones:
//
//	unit, err := adds.Load(src)              // parse + type-check mini source
//	an, err := unit.AnalyzeOpt(ctx, "shift") // general path matrix analysis
//	m := an.LoopMatrix(0)                    // PM at the loop's fixed point
//	dg := an.Dependences(0, an.GPMOracle())  // dependences under the GPM oracle
//	pl, _ := an.Pipeline(0, 8)               // software-pipelined VLIW code
//
// Recoverable failures are typed (ErrUnknownFunction, ErrNoSuchLoop,
// ErrBadWidth, *SourceError) and match with errors.Is/As; MustLoad and
// MustAnalyze are test helpers that panic instead.
//
// Mini is a small C-like language whose type declarations carry the paper's
// ADDS annotations ("is uniquely forward along X", "where X || Y", ...).
// See the examples directory for complete programs.
package adds

import (
	"context"

	"repro/internal/alias"
	"repro/internal/core/pathmatrix"
	"repro/internal/core/validation"
	"repro/internal/depgraph"
	"repro/internal/exper"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/norm"
	"repro/internal/obs"
	"repro/internal/shape"
	"repro/internal/source/ast"
	"repro/internal/source/parser"
	"repro/internal/source/types"
	"repro/internal/xform"
)

// Re-exported types, so callers need only this package.
type (
	// Program is a parsed mini compilation unit.
	Program = ast.Program
	// Info is the type-checked program information.
	Info = types.Info
	// ShapeEnv is the ADDS shape model of the program's declarations.
	ShapeEnv = shape.Env
	// Matrix is a general path matrix at a program point.
	Matrix = pathmatrix.Matrix
	// SummaryTable holds per-function interprocedural summaries; its
	// Computed/Reused fields report cache behavior.
	SummaryTable = pathmatrix.SummaryTable
	// DepGraph is a loop dependence graph.
	DepGraph = depgraph.Graph
	// Oracle answers may/must-alias and loop-carried queries.
	Oracle = alias.Oracle
	// IRProgram is pseudo-assembly for one function.
	IRProgram = ir.Program
	// VLIWProgram is bundled VLIW code.
	VLIWProgram = machine.VLIWProgram
	// Node is a concrete heap node.
	Node = interp.Node
	// Heap allocates concrete nodes.
	Heap = interp.Heap
	// Value is an interpreter value.
	Value = interp.Value
	// Word is a machine register value.
	Word = machine.Word
	// Report is a regenerated experiment table.
	Report = exper.Report
	// PipelineInfo summarizes a software-pipelining analysis.
	PipelineInfo = xform.PipelineInfo
	// CheckViolation is a dynamic ADDS-property violation.
	CheckViolation = interp.CheckViolation
	// Tracer collects phase spans for the whole pipeline; wire one in with
	// WithTracer (or an obs-carrying context) and read the finished traces
	// from its ring. See internal/obs for the span model.
	Tracer = obs.Tracer
)

// NewTracer returns a tracer whose ring keeps the last n finished traces
// (n <= 0 selects the obs default).
func NewTracer(n int) *Tracer { return obs.NewTracer(n) }

// Value and word constructors, re-exported.
var (
	IntVal  = interp.IntVal
	PtrVal  = interp.PtrVal
	RefWord = machine.RefWord
)

// NewHeap returns an empty concrete heap.
func NewHeap() *Heap { return interp.NewHeap() }

// Unit is a loaded (parsed and checked) program.
type Unit struct {
	Prog *Program
	Info *Info
}

// Load parses and type-checks mini source. Parse and type diagnostics are
// reported as a *SourceError carrying the first position (errors.As).
func Load(src []byte) (*Unit, error) {
	return LoadCtx(context.Background(), src)
}

// LoadCtx is Load under a context. When the context carries a tracer (see
// WithTracer and obs.With), the front-end phases land as "parse", "shape",
// and "typecheck" spans; otherwise the context costs three nil checks.
func LoadCtx(ctx context.Context, src []byte) (*Unit, error) {
	_, span := obs.Start(ctx, "parse")
	prog, err := parser.Parse(src)
	span.End()
	if err != nil {
		return nil, wrapParseErr(err)
	}
	info, errs := types.CheckCtx(ctx, prog)
	if len(errs) > 0 {
		return nil, wrapTypeErrs(errs)
	}
	return &Unit{Prog: prog, Info: info}, nil
}

// MustLoad is Load for fixed sources; it panics on error. It is a test and
// example helper only — serving paths and tools load with Load and report
// the typed error.
func MustLoad(src string) *Unit {
	u, err := Load([]byte(src))
	if err != nil {
		panic("adds.MustLoad: " + err.Error())
	}
	return u
}

// Shapes returns the ADDS shape environment of the unit's declarations.
func (u *Unit) Shapes() *ShapeEnv { return u.Info.Env }

// Interp returns an interpreter over a fresh heap for the unit.
func (u *Unit) Interp() *interp.Interp { return interp.New(u.Prog) }

// CheckHeap runs the dynamic ADDS property checks (Defs 4.2-4.9) against
// the heap reachable from roots.
func (u *Unit) CheckHeap(roots ...*Node) []CheckViolation {
	return interp.Check(u.Info.Env, roots...)
}

// Analysis bundles every static artifact for one function.
type Analysis struct {
	Unit  *Unit
	Fn    *types.FuncInfo
	Graph *norm.Graph
	GPM   *pathmatrix.Result

	prog *ir.Program
}

// MustAnalyze panics on error. It is a test and example helper only —
// serving paths and tools use AnalyzeOpt and report the typed error.
func (u *Unit) MustAnalyze(fn string) *Analysis {
	a, err := u.AnalyzeOpt(context.Background(), fn)
	if err != nil {
		panic(err)
	}
	return a
}

// IR returns the function's pseudo-assembly.
func (a *Analysis) IR() *IRProgram { return a.prog }

// Loops returns the number of loops in the function.
func (a *Analysis) Loops() int { return len(a.prog.Loops) }

// EntryMatrix returns the path matrix at function entry.
func (a *Analysis) EntryMatrix() *Matrix { return a.GPM.AtEntry() }

// ExitMatrix returns the path matrix at function exit.
func (a *Analysis) ExitMatrix() *Matrix { return a.GPM.BeforeNode(a.Graph.Exit) }

// LoopMatrix returns the fixed-point matrix inside loop i (source order).
func (a *Analysis) LoopMatrix(i int) *Matrix {
	return a.GPM.LoopHead(a.Graph.Loops[i])
}

// IterationMatrix returns the primed-variable matrix for loop i: relations
// between the previous iteration's values (suffixed ') and the current.
func (a *Analysis) IterationMatrix(i int) *Matrix {
	return a.GPM.IterationMatrix(a.Graph.Loops[i])
}

// Validation exposes the abstraction-validation view of the analysis:
// per-point validity and broken/repaired intervals (Section 5.1.1).
func (a *Analysis) Validation() *validation.Result {
	return validation.FromResult(a.GPM)
}

// GPMOracle returns the ADDS-informed alias oracle (the paper's analysis).
// It answers from the analysis's own fixpoint, so call sites answer with
// the same precision the per-node matrices were computed with.
func (a *Analysis) GPMOracle() Oracle { return alias.GPMOf(a.GPM) }

// ClassicOracle returns the annotation-free path matrix oracle, built by the
// oracle table's classic factory.
func (a *Analysis) ClassicOracle() Oracle {
	o, _ := a.OracleNamed(context.Background(), "classic", 0) // listed in package alias; cannot fail
	return o
}

// SummaryTable exposes the interprocedural summary table the analysis ran
// with (nil for havoc-only runs). Its Computed and Reused fields report this
// run's summary-cache misses and hits.
func (a *Analysis) SummaryTable() *SummaryTable { return a.GPM.Summaries }

// ConservativeOracle returns the worst-case baseline.
func (a *Analysis) ConservativeOracle() Oracle { return alias.NewConservative(a.Graph) }

// options builds dependence options for loop i under an oracle.
func (a *Analysis) options(i int, o Oracle) depgraph.Options {
	return depgraph.Options{
		Oracle:   o,
		NormLoop: a.Graph.Loops[a.prog.Loops[i].SrcID],
		Env:      a.Unit.Info.Env,
		VarTypes: a.Fn.Vars,
	}
}

// Dependences builds the dependence graph of loop i under the oracle.
func (a *Analysis) Dependences(i int, o Oracle) *DepGraph {
	return a.DependencesCtx(context.Background(), i, o)
}

// DependencesCtx is Dependences under a context: when the context carries
// a tracer, the build lands as a "depgraph" span with the loop index.
func (a *Analysis) DependencesCtx(ctx context.Context, i int, o Oracle) *DepGraph {
	_, span := obs.Start(ctx, "depgraph")
	defer span.End()
	span.SetAttr("loop", i)
	return depgraph.Build(a.prog, a.prog.Loops[i], a.options(i, o))
}

// AnalyzePipeline computes initiation-interval bounds for loop i under the
// oracle at the given machine width.
func (a *Analysis) AnalyzePipeline(i int, o Oracle, width int) PipelineInfo {
	return xform.AnalyzePipeline(a.prog, a.prog.Loops[i], a.options(i, o), width)
}

// Pipeline software-pipelines loop i for a VLIW of the given width using
// the ADDS-informed oracle, following the paper's Section 5.2 derivation.
// A bad loop index reports ErrNoSuchLoop, a non-positive width ErrBadWidth.
func (a *Analysis) Pipeline(i, width int) (*VLIWProgram, PipelineInfo, error) {
	return a.PipelineCtx(context.Background(), i, width)
}

// PipelineCtx is Pipeline under a context: with a tracer the derivation
// lands as a "pipeline" span carrying the loop index and width.
func (a *Analysis) PipelineCtx(ctx context.Context, i, width int) (*VLIWProgram, PipelineInfo, error) {
	if err := a.CheckLoop(i); err != nil {
		return nil, PipelineInfo{}, err
	}
	if err := checkWidth(width); err != nil {
		return nil, PipelineInfo{}, err
	}
	_, span := obs.Start(ctx, "pipeline")
	defer span.End()
	span.SetAttr("loop", i)
	span.SetAttr("width", width)
	pl, err := xform.EmitPipelined(a.prog, a.prog.Loops[i], a.options(i, a.GPMOracle()), width)
	if err != nil {
		return nil, PipelineInfo{}, err
	}
	return pl.Prog, pl.Info, nil
}

// UnrollCtx returns loop i unrolled k times for the scalar machine. A bad
// loop index reports ErrNoSuchLoop. With a tracer the transformation lands
// as an "unroll" span.
func (a *Analysis) UnrollCtx(ctx context.Context, i, k int) (*IRProgram, error) {
	if err := a.CheckLoop(i); err != nil {
		return nil, err
	}
	_, span := obs.Start(ctx, "unroll")
	defer span.End()
	span.SetAttr("loop", i)
	span.SetAttr("factor", k)
	return xform.Unroll(a.prog, a.prog.Loops[i], k, a.options(i, a.GPMOracle()))
}

// RunScalar executes an IR program on the scalar machine model.
func RunScalar(p *IRProgram, heap *Heap, args map[string]Word) (*machine.Result, error) {
	return machine.RunScalar(p, machine.DefaultScalar(), heap, args)
}

// RunVLIW executes bundled code on the VLIW machine model (speculative,
// non-faulting loads enabled, as the paper's transformation requires).
func RunVLIW(p *VLIWProgram, heap *Heap, args map[string]Word) (*machine.Result, error) {
	return machine.RunVLIW(p, machine.DefaultVLIW(), heap, args)
}

// Sequentialize turns linear IR into one-op bundles (the unpipelined VLIW
// baseline).
func Sequentialize(p *IRProgram) *VLIWProgram { return machine.Sequentialize(p) }

// ExperimentDef names one experiment without running it.
type ExperimentDef = exper.Def

// ExperimentDefs returns the experiment registry (ids and titles) without
// running anything.
func ExperimentDefs() []ExperimentDef { return exper.Defs() }
