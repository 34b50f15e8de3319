// Package alias defines the alias-oracle interface that dependence testing
// and the transformations consume, plus the paper's comparison analyses:
//
//   - Conservative: every pair of same-type pointers may alias (the "assume
//     the worst" baseline of Section 1.2, producing the all-"=?" alias
//     matrix of Section 5.1.2).
//   - GPM: general path matrix analysis with ADDS declarations (the paper's
//     approach).
//   - Classic: the same engine with the ADDS information stripped, modelling
//     the original path matrix analysis applied without declarations.
//
// The k-limited storage-graph baseline lives in the klimit subpackage.
package alias

import (
	"context"

	"repro/internal/core/pathmatrix"
	"repro/internal/norm"
	"repro/internal/shape"
	"repro/internal/source/types"
)

// Oracle answers alias questions about pointer variables of one function.
// All queries are about variable values at a program point (a CFG node):
// MayAlias/MustAlias compare values before node n executes; LoopCarried
// compares p's value at the start of one iteration of l with q's value at
// the start of the next.
type Oracle interface {
	// Name identifies the analysis in reports.
	Name() string
	// MayAlias reports whether p and q may point to the same node before n.
	MayAlias(n *norm.Node, p, q string) bool
	// MustAlias reports whether p and q definitely point to the same node.
	MustAlias(n *norm.Node, p, q string) bool
	// LoopCarried reports whether p at iteration i may point to the same
	// node as q at iteration i+1 of loop l.
	LoopCarried(l *norm.Loop, p, q string) bool
	// Valid reports whether the declared abstraction is intact before n
	// (always true for analyses without validation).
	Valid(n *norm.Node) bool
}

// ---------------------------------------------------------------------------
// Conservative baseline

// Conservative is the no-analysis baseline: any two pointers of the same
// record type are possible aliases everywhere.
type Conservative struct {
	g *norm.Graph
}

// NewConservative returns the conservative oracle for a function.
func NewConservative(g *norm.Graph) *Conservative { return &Conservative{g: g} }

// Name implements Oracle.
func (c *Conservative) Name() string { return "conservative" }

func (c *Conservative) sameType(p, q string) bool {
	tp, tq := c.g.VarTypes[p], c.g.VarTypes[q]
	return tp.Kind == types.KindPointer && tq.Kind == types.KindPointer &&
		tp.Record == tq.Record
}

// MayAlias implements Oracle: same record type means possible alias.
func (c *Conservative) MayAlias(_ *norm.Node, p, q string) bool {
	return p == q || c.sameType(p, q)
}

// MustAlias implements Oracle: only a variable with itself.
func (c *Conservative) MustAlias(_ *norm.Node, p, q string) bool { return p == q }

// LoopCarried implements Oracle: always possible for same-type pointers.
// Note p with itself across iterations may alias too (the conservative
// analysis cannot rule out a cyclic structure).
func (c *Conservative) LoopCarried(_ *norm.Loop, p, q string) bool {
	return p == q || c.sameType(p, q)
}

// Valid implements Oracle: the conservative analysis asserts nothing about
// shape, so there is never a violated abstraction to protect.
func (c *Conservative) Valid(*norm.Node) bool { return true }

// ---------------------------------------------------------------------------
// General path matrix oracles

// GPM adapts a path matrix analysis result to the Oracle interface.
type GPM struct {
	name string
	res  *pathmatrix.Result
}

// NewGPM runs general path matrix analysis with the full ADDS environment.
func NewGPM(g *norm.Graph, env *shape.Env) *GPM {
	return NewGPMWith(g, env, nil)
}

// NewGPMWith is NewGPM with an interprocedural summary table (see
// pathmatrix.ComputeSummaries); nil falls back to the opaque call havoc.
func NewGPMWith(g *norm.Graph, env *shape.Env, tab *pathmatrix.SummaryTable) *GPM {
	res, err := pathmatrix.AnalyzeCtxWith(context.Background(), g, env, tab)
	if err != nil {
		// Background contexts never expire; this is unreachable.
		panic("alias: " + err.Error())
	}
	return GPMOf(res)
}

// GPMOf answers GPM queries from an analysis the caller already ran with
// the full ADDS environment, instead of running the fixpoint again.
func GPMOf(res *pathmatrix.Result) *GPM {
	return &GPM{name: "adds+gpm", res: res}
}

// NewClassic runs the engine with directions stripped, modelling path matrix
// analysis without ADDS declarations.
func NewClassic(g *norm.Graph, env *shape.Env) *GPM {
	o, err := newClassicCtx(context.Background(), g, env, nil)
	if err != nil {
		// Background contexts never expire; this is unreachable.
		panic("alias: " + err.Error())
	}
	return o
}

// newClassicCtx is NewClassic under ctx and an interprocedural summary
// table: it fails with ctx's error when ctx is done before the fixpoint
// completes. A non-nil table must have been computed under env.Stripped()
// (SummaryTable.Stripped derives one) — summary rows depend on the
// environment they were derived in, and mixing them across environments
// would smuggle ADDS-informed facts into the classic oracle. The analysis
// runs under the table's environment.
func newClassicCtx(ctx context.Context, g *norm.Graph, env *shape.Env, tab *pathmatrix.SummaryTable) (*GPM, error) {
	stripped := tab.Env()
	if stripped == nil {
		stripped = env.Stripped()
	}
	res, err := pathmatrix.AnalyzeCtxWith(ctx, g, stripped, tab)
	if err != nil {
		return nil, err
	}
	return &GPM{name: "classic-pm", res: res}, nil
}

// Name implements Oracle.
func (o *GPM) Name() string { return o.name }

// MayAlias implements Oracle.
func (o *GPM) MayAlias(n *norm.Node, p, q string) bool {
	return o.res.BeforeNode(n).MayAlias(p, q)
}

// MustAlias implements Oracle.
func (o *GPM) MustAlias(n *norm.Node, p, q string) bool {
	return o.res.BeforeNode(n).MustAlias(p, q)
}

// LoopCarried implements Oracle: query the primed-variable matrix, which
// the result computes once per loop.
func (o *GPM) LoopCarried(l *norm.Loop, p, q string) bool {
	return o.res.IterationMatrix(l).MayAlias(p+pathmatrix.Shadow, q)
}

// Valid implements Oracle.
func (o *GPM) Valid(n *norm.Node) bool {
	return o.res.BeforeNode(n).Valid()
}
