package adds

import (
	"context"
	"fmt"

	"repro/internal/alias"
	"repro/internal/core/pathmatrix"
	"repro/internal/ir"
	"repro/internal/obs"
)

// ParseOracle validates a CLI/API oracle spelling against the registry and
// returns its canonical name ("" and aliases like "klimited" canonicalize;
// the empty name selects the default, gpm). Unknown names report an error
// listing every registered oracle.
func ParseOracle(name string) (string, error) {
	f, err := alias.Lookup(name)
	if err != nil {
		return "", fmt.Errorf("adds: %w", err)
	}
	return f.Name, nil
}

// OracleNames returns the canonical names of every registered oracle, in
// listing order — CLI usage strings and endpoint documentation derive from
// this so spellings can never drift from what ParseOracle accepts.
func OracleNames() []string { return alias.Names() }

// OracleInfo describes one registered oracle for listings (GET /v1/oracles).
type OracleInfo struct {
	// Name is the canonical spelling ParseOracle returns.
	Name string
	// Description is the one-line human summary.
	Description string
	// NeedsK reports whether the oracle consumes the -k flag / request K.
	NeedsK bool
}

// Oracles enumerates the registered oracles in listing order.
func Oracles() []OracleInfo {
	fs := alias.Factories()
	out := make([]OracleInfo, len(fs))
	for i, f := range fs {
		out[i] = OracleInfo{Name: f.Name, Description: f.Description, NeedsK: f.NeedsK}
	}
	return out
}

// config collects the effect of the functional options.
type config struct {
	workers int
	tracer  *Tracer
}

// Option configures AnalyzeOpt and AnalyzeAllOpt.
type Option func(*config)

// WithWorkers bounds the analysis worker pool for AnalyzeAllOpt
// (n <= 0 means one worker per CPU). It has no effect on single-function
// analysis.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithTracer attaches a tracer to the analysis so every phase (parse and
// typecheck happen in LoadCtx; normalization, the per-statement fixpoint,
// IR building, and the transformation helpers here) lands as a span on one
// trace. It composes with a context that already carries a tracer (the
// daemon's request middleware); the option wins when both are set. Without
// either, instrumented code runs the nil-tracer fast path — one context
// lookup and one nil check per phase.
func WithTracer(t *Tracer) Option { return func(c *config) { c.tracer = t } }

// AnalyzeOpt runs general path matrix analysis over one function:
//
//	an, err := u.AnalyzeOpt(ctx, "shift", adds.WithTracer(tr))
//
// Cancelling ctx abandons the fixed-point computation and returns ctx's
// error. An unknown function name reports ErrUnknownFunction.
func (u *Unit) AnalyzeOpt(ctx context.Context, fn string, opts ...Option) (*Analysis, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	fi := u.Info.Func(fn)
	if fi == nil {
		return nil, fmt.Errorf("adds: %w: %q not declared", ErrUnknownFunction, fn)
	}
	if cfg.tracer != nil {
		ctx = obs.With(ctx, cfg.tracer)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Single-function analysis shares the program-wide summary table, which
	// also lowers the function; the content-addressed cache makes repeated
	// computation cheap.
	tab, err := pathmatrix.ComputeSummariesCtx(ctx, u.Info, u.Info.Env)
	if err != nil {
		return nil, err
	}
	g := tab.Graph(fn)
	r, err := pathmatrix.AnalyzeCtxWith(ctx, g, u.Info.Env, tab)
	if err != nil {
		return nil, err
	}
	_, span := obs.Start(ctx, "ir")
	prog := ir.Build(fi, u.Info.Env)
	span.End()
	return &Analysis{
		Unit: u, Fn: fi, Graph: g, GPM: r,
		prog: prog,
	}, nil
}

// AnalyzeAllOpt analyzes every function of the unit with a bounded worker
// pool (see WithWorkers). The result map is independent of worker count and
// scheduling; cancelling ctx abandons the remaining functions and returns
// ctx's error.
func (u *Unit) AnalyzeAllOpt(ctx context.Context, opts ...Option) (map[string]*Analysis, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.tracer != nil {
		ctx = obs.With(ctx, cfg.tracer)
	}
	frs, err := pathmatrix.AnalyzeProgramCtx(ctx, u.Info, u.Info.Env, cfg.workers)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*Analysis, len(frs))
	for name, fr := range frs {
		_, span := obs.Start(ctx, "ir")
		span.SetAttr("fn", name)
		prog := ir.Build(fr.Info, u.Info.Env)
		span.End()
		out[name] = &Analysis{
			Unit: u, Fn: fr.Info, Graph: fr.Graph, GPM: fr.Result,
			prog: prog,
		}
	}
	return out, nil
}

// OracleNamed builds the named registered oracle for this analysis (see
// OracleNames; "" selects gpm, k <= 0 the oracle's default k). The gpm
// oracle answers from this analysis's fixpoint rather than running another.
// The context carries the caller's tracer, so oracles that record obs spans
// land on the request trace. Unknown names report the registry's typed
// error.
func (a *Analysis) OracleNamed(ctx context.Context, name string, k int) (Oracle, error) {
	f, err := alias.Lookup(name)
	if err != nil {
		return nil, fmt.Errorf("adds: %w", err)
	}
	return f.Build(ctx, a.Graph, alias.BuildOpts{
		Env:       a.Unit.Info.Env,
		Info:      a.Unit.Info,
		Summaries: a.GPM.Summaries,
		Result:    a.GPM,
		K:         k,
	}), nil
}

// CheckLoop reports ErrNoSuchLoop when i is not a loop index of the
// function. The positional accessors (LoopMatrix, Dependences, ...) assume
// a valid index; boundary-facing callers validate with CheckLoop first.
func (a *Analysis) CheckLoop(i int) error {
	if i < 0 || i >= a.Loops() {
		return fmt.Errorf("adds: %w: loop %d of function %s (has %d)",
			ErrNoSuchLoop, i, a.Fn.Decl.Name, a.Loops())
	}
	return nil
}

// checkWidth reports ErrBadWidth for a non-positive machine width.
func checkWidth(width int) error {
	if width < 1 {
		return fmt.Errorf("adds: %w: %d", ErrBadWidth, width)
	}
	return nil
}
